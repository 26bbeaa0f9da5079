"""Acceptance suite: one test per release criterion, each printing a
single [PASS]/[FAIL] line. The planted-subspace benchmark is expensive
and shared across several criteria, so it runs once per session."""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (all_assignments, direct_prob, log_marginal_subspace,
                      random_categorical_model, random_gaussian_model)
from spnexplain.datagen import GenConfig, generate
from spnexplain.explain import (ExplainConfig, backward_elimination,
                                elbow_select, explain, forward_beam_search)
from spnexplain.learn import LearnConfig, learn_spn
from spnexplain.metrics import f1_dims, run_benchmark, trace_record
from spnexplain.model import EvalCounter, eval_log_density

BW = ExplainConfig(strategy="backward", selection="elbow")
FW = ExplainConfig(strategy="forward", selection="elbow")
SIZES = (10, 20, 30, 50)
SEEDS = range(5)


@pytest.fixture
def announce(capsys):
    def _p(line):
        with capsys.disabled():
            print(line, flush=True)
    return _p


def check(announce, name, fn):
    try:
        fn()
    except BaseException:
        announce(f"[FAIL] {name}")
        raise
    announce(f"[PASS] {name}")


# --- shared heavy benchmark -------------------------------------------------

@dataclass
class SuiteRun:
    labeled: object
    model: object
    lines: list          # JSON-lines, one per explained outlier (backward)
    f1s: list
    per_sizes: list      # per-outlier SizeBest lists, for kappa analysis
    eval_counts: list


def _run_suite(n, seed, config):
    labeled = generate(GenConfig(n_features=n, seed=seed))
    model = learn_spn(labeled.dataset, LearnConfig(seed=seed))
    lines, f1s, per_sizes, evals = [], [], [], []
    for row in labeled.outlier_rows:
        trace = explain(model, labeled.dataset.values[row], config)
        lines.append(json.dumps(trace_record(row, trace)))
        f1s.append(f1_dims(trace.selected, labeled.ground_truth[row])[2])
        per_sizes.append(trace.per_size)
        evals.append(trace.eval_count)
    return SuiteRun(labeled, model, lines, f1s, per_sizes, evals)


@pytest.fixture(scope="session")
def planted_suite():
    t0 = time.perf_counter()
    runs = {(n, s): _run_suite(n, s, BW) for n in SIZES for s in SEEDS}
    forward50 = {}
    for s in SEEDS:
        base = runs[(50, s)]
        f1s = []
        for row in base.labeled.outlier_rows:
            trace = explain(base.model, base.labeled.dataset.values[row], FW)
            f1s.append(f1_dims(trace.selected, base.labeled.ground_truth[row])[2])
        forward50[s] = float(np.mean(f1s))
    return {"runs": runs, "forward50": forward50,
            "elapsed": time.perf_counter() - t0}


# --- criteria ----------------------------------------------------------------

def test_marginal_inference_oracle(announce):
    def body():
        t0 = time.perf_counter()
        for seed in range(200):
            m = random_categorical_model(np.random.default_rng(seed))
            dims = [len(c.categories) for c in m.schema]
            joint = np.array([direct_prob(m, m.root, x)
                              for x in all_assignments(m)]).reshape(dims)
            n = m.n_features
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    want = joint.sum(axis=tuple(j for j in range(n)
                                                if j not in sub))
                    combos = list(itertools.product(*[range(dims[j])
                                                      for j in sub]))
                    q = np.full((len(combos), n), np.nan)
                    q[:, list(sub)] = combos
                    got = np.exp(eval_log_density(m, q))
                    np.testing.assert_allclose(got, want.reshape(-1), rtol=1e-9)
        assert time.perf_counter() - t0 < 10.0
    check(announce, "marginal-inference oracle: 200 categorical SPNs vs "
          "brute force, rel 1e-9, < 10 s", body)


def test_normalization(announce):
    def body():
        for seed in range(200):
            m = random_categorical_model(np.random.default_rng(seed))
            q = np.array(list(all_assignments(m)), dtype=np.float64)
            total = np.exp(eval_log_density(m, q)).sum()
            assert abs(total - 1.0) <= 1e-9
    check(announce, "normalization: total probability of 200 models is 1 "
          "within 1e-9", body)


def test_gaussian_marginal_quadrature(announce):
    def body():
        t0 = time.perf_counter()
        for seed in range(50):
            rng = np.random.default_rng(10_000 + seed)
            m = random_gaussian_model(rng, 2)
            x = rng.uniform(-2, 2, size=2)
            for keep, free in ((0, 1), (1, 0)):
                def joint(y, keep=keep, free=free):
                    q = [0.0, 0.0]
                    q[keep] = x[keep]
                    q[free] = y
                    return math.exp(eval_log_density(m, np.array([q]))[0])
                # anchor the adaptive rule at the mixture modes so narrow
                # components are not stepped over
                mus = sorted(node.mu for node in m.nodes
                             if getattr(node, "feature", None) == free
                             and hasattr(node, "mu"))
                oracle, _ = quad(joint, -60, 60, limit=500,
                                 epsabs=1e-14, epsrel=1e-10, points=mus)
                got = math.exp(log_marginal_subspace(m, x, [keep]))
                assert got == pytest.approx(oracle, rel=1e-6, abs=1e-15)
        assert time.perf_counter() - t0 < 30.0
    check(announce, "Gaussian marginals: 50 models vs adaptive quadrature, "
          "rel 1e-6, < 30 s", body)


def test_search_oracles(announce):
    def body():
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            n = int(rng.integers(2, 9))
            m = random_gaussian_model(rng, n)
            x = rng.normal(size=n) * 2

            current = tuple(range(n))
            reference = []
            while len(current) > 1:
                scored = [(log_marginal_subspace(m, x, tuple(d for d in current
                                                             if d != drop)), drop)
                          for drop in current]
                _, drop = min(scored)
                current = tuple(d for d in current if d != drop)
                reference.append(current)
            reference.reverse()
            got = backward_elimination(m, x)
            assert [sb.subspace for sb in got] == reference

            res = forward_beam_search(m, x, max_size=n, beam_width=2 ** n)
            for sb in res:
                best = min(itertools.combinations(range(n), sb.size),
                           key=lambda sub: (log_marginal_subspace(m, x, sub), sub))
                assert sb.subspace == best
    check(announce, "search oracles: 100 models n<=8, backward == stepwise "
          "reference, forward B=2^n == exhaustive minima", body)


def test_eval_count_exactness(announce, planted_suite):
    def body():
        for n in (3, 5, 8, 12):
            rng = np.random.default_rng(n)
            m = random_gaussian_model(rng, n)
            x = rng.normal(size=n)
            counter = EvalCounter()
            backward_elimination(m, x, counter)
            assert counter.queries == n * (n + 1) // 2 - 1
            counter = EvalCounter()
            forward_beam_search(m, x, n, 10, counter)
            assert counter.queries <= 10 * n * n + n
        # benchmark traces are instrumented too
        for (n, _), run in planted_suite["runs"].items():
            assert all(e == n * (n + 1) // 2 - 1 for e in run.eval_counts)
    check(announce, "evaluation counts: backward exactly n(n+1)/2 - 1, "
          "forward <= B*n*S + n", body)


def test_planted_subspace_recovery(announce, planted_suite):
    def body():
        runs = planted_suite["runs"]
        for n in SIZES:
            f1 = float(np.mean([f for s in SEEDS for f in runs[(n, s)].f1s]))
            assert f1 >= 0.6, f"backward mean F1 {f1:.3f} at n={n}"
        bw50 = float(np.mean([f for s in SEEDS for f in runs[(50, s)].f1s]))
        fw50 = float(np.mean(list(planted_suite["forward50"].values())))
        assert bw50 >= fw50, f"backward {bw50:.3f} < forward {fw50:.3f} at n=50"
        assert planted_suite["elapsed"] < 600.0
    check(announce, "planted-subspace recovery: backward+elbow mean F1 >= 0.6 "
          "at n in {10,20,30,50}, backward >= forward at n=50, < 10 min", body)


def test_kappa_insensitivity(announce, planted_suite):
    def body():
        agree = total = 0
        for run in planted_suite["runs"].values():
            for per_size in run.per_sizes:
                a = elbow_select(per_size, 1.0)
                b = elbow_select(per_size, math.e)
                agree += a.subspace == b.subspace
                total += 1
        assert agree / total >= 0.9, f"kappa agreement {agree / total:.3f}"
    check(announce, "kappa-insensitivity: elbow selections under kappa=1 vs "
          "kappa=e agree on >= 90% of outliers", body)


def test_determinism(announce, planted_suite, tmp_path):
    def body():
        for n in (10, 50):
            labeled = generate(GenConfig(n_features=n, seed=0))
            path = tmp_path / f"rerun_{n}.jsonl"
            run_benchmark(labeled, LearnConfig(seed=0), BW,
                          explanations_path=str(path))
            rerun = path.read_bytes()
            first = ("\n".join(planted_suite["runs"][(n, 0)].lines) + "\n").encode()
            assert rerun == first
    check(announce, "determinism: benchmark rerun with identical seeds gives "
          "byte-identical explanation JSON-lines", body)


def test_runtime_scaling(announce, planted_suite):
    def body():
        labeled = generate(GenConfig(n_features=100, seed=0))
        model = learn_spn(labeled.dataset, LearnConfig(seed=0))
        t0 = time.perf_counter()
        evals100 = []
        for row in labeled.outlier_rows:
            trace = explain(model, labeled.dataset.values[row], BW)
            evals100.append(trace.eval_count)
        assert time.perf_counter() - t0 < 60.0
        mean_evals = [float(np.mean(planted_suite["runs"][(n, 0)].eval_counts))
                      for n in (10, 20, 50)] + [float(np.mean(evals100))]
        slope = np.polyfit(np.log([10, 20, 50, 100]), np.log(mean_evals), 1)[0]
        assert 1.8 <= slope <= 2.2, f"log-log slope {slope:.3f}"
    check(announce, "runtime scaling: 30 outliers at n=100 in < 60 s, "
          "eval-count log-log slope 2.0 +/- 0.2", body)
