"""The benchmark's workloads: inputs from the seed, timed phases, checks.

Both workloads are one process with one closed-loop caller: each operation
starts when the previous one has returned. They call spnexplain only through
its public functions and `spnexplain.cli.main(argv)`. Every operation is
counted in `Tally`; one whose output fails a check counts as failed. Checks
run outside the timed phases.

`measure` returns the end-to-end metrics (untraced). `trace` runs one unit
of the workload untraced and one traced, and returns the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle
from speed import Speed, Timing
from tracer import Tracer, layer_metrics

CONTAMINATION = 0.03
SETUP_REPEATS = 3         # set-ups per run; setup_s is their median
ORACLE_CASES = 200        # sampled per_size log-densities checked per run
ORACLE_ROWS = 100         # sampled detect scores checked per run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:3])


def _seed_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


def _sample(rng, items: list, k: int) -> list:
    if len(items) <= k:
        return items
    return [items[i] for i in sorted(rng.choice(len(items), size=k, replace=False))]


def _median(xs) -> float:
    return float(statistics.median(xs))


def _fill(budget_s: float, minimum: int, op) -> list:
    """Call op (which returns (result, seconds)) at least `minimum` times, then
    again while the next call is expected to end within `budget_s` of timed work."""
    done, spent = [], 0.0
    while len(done) < minimum or spent + done[-1][1] <= budget_s:
        done.append(op(len(done)))
        spent += done[-1][1]
    return done


def _paired(tracer: Tracer, op):
    """Run op untraced, then at once traced. Returns both results and both
    wall times; adjacent pairs keep the machine's swings out of the ratio."""
    t0 = perf_counter()
    plain = op()
    t1 = perf_counter()
    with tracer.installed():
        traced = op()
    return plain, traced, t1 - t0, perf_counter() - t1


class ExplainBackward:
    """explain-backward-n100: learn the n=100 planted table in set-up, then
    (a) explain each planted outlier with backward elimination and elbow
    selection, one row at a time (narrow batches of <= n queries), and
    (b) run full-table `detect` passes (wide batches of 1000 rows).

    (a) and (b) alternate, a few detect passes after each explained row, so
    that a slow spell of the machine falls on both alike."""

    name = "explain-backward-n100"
    N_FEATURES = 100
    DETECT_PER_ROW = 5

    def __init__(self, sp, seed: int, workdir: str, tally: Tally, tracer: Tracer):
        self.sp, self.seed, self.tally, self.tracer = sp, seed, tally, tracer
        self.speed = Speed()
        self.config = sp.ExplainConfig(strategy="backward", selection="elbow")

    def setup(self):
        """Returns the labeled table, the model, and the timings of the whole
        set-up and of learning alone."""
        with self.tracer.span("bench.setup"), self.speed.timing() as whole:
            labeled = self.sp.generate(self.sp.GenConfig(n_features=self.N_FEATURES,
                                                         seed=self.seed))
            with self.speed.timing() as learn:
                model = self.sp.learn_spn(labeled.dataset,
                                          self.sp.LearnConfig(seed=self.seed))
        return labeled, model, whole, learn

    def explain_row(self, model, labeled, row):
        x = labeled.dataset.values[row]
        with self.tracer.span("bench.explain"), self.speed.timing() as t:
            trace = self.sp.explain(model, x, self.config)
        return (row, trace), t

    def detect(self, model, labeled):
        with self.tracer.span("bench.detect"), self.speed.timing() as t:
            _, scores = self.sp.detect(model, labeled.dataset, CONTAMINATION)
        return scores, t

    def step(self, model, labeled, row):
        """Explain one row, then run DETECT_PER_ROW detect passes."""
        explained = self.explain_row(model, labeled, row)
        passes = [self.detect(model, labeled) for _ in range(self.DETECT_PER_ROW)]
        return (explained, passes), explained[1].seconds + sum(t.seconds for _, t in passes)

    def steps(self, model, labeled, seconds: float):
        """One step per planted outlier, then more (cycling through them)
        while `seconds` of timed work lasts. Returns explanations and passes."""
        rows = labeled.outlier_rows
        done = _fill(seconds, len(rows),
                     lambda i: self.step(model, labeled, rows[i % len(rows)]))
        return ([explained for (explained, _), _ in done],
                [p for (_, passes), _ in done for p in passes])

    # --- checks ---------------------------------------------------------

    def check_setups(self, setups) -> None:
        first = setups[0][1]
        for i, (_, model, _, _) in enumerate(setups):
            problems = [f"validate: {p}" for p in self.sp.validate(model)]
            if model.nodes != first.nodes or model.root != first.root:
                problems.append("learning the same table twice gave different models")
            self.tally.record(f"setup {i}", problems)

    def check_explained(self, model, labeled, explained) -> float:
        """Checks every explanation; returns mean F1 of the first pass."""
        n = labeled.dataset.n_features
        rng = _seed_rng(self.seed, 1)
        first: dict[int, object] = {}
        cases = []
        for (row, trace), _ in explained:
            per_size = [(sb.size, sb.subspace) for sb in trace.per_size]
            problems = oracle.check_per_size(per_size, n, nested=True)
            if len(per_size) != n - 1:
                problems.append(f"{len(per_size)} sizes, expected {n - 1}")
            if trace.eval_count != n * (n + 1) // 2 - 1:
                problems.append(f"eval_count {trace.eval_count}, "
                                f"expected n(n+1)/2-1 = {n * (n + 1) // 2 - 1}")
            if not any(k == trace.selected_size and sub == trace.selected
                       for k, sub in per_size):
                problems.append("selected subspace is not in per_size")
            if row in first:
                if (trace.per_size, trace.selected) != first[row]:
                    problems.append("explaining the same row again gave another result")
            else:
                first[row] = (trace.per_size, trace.selected)
                cases += [(row, sb.subspace, sb.log_density) for sb in trace.per_size]
            self.tally.record(f"explain row {row}", problems)
        cases = _sample(rng, cases, ORACLE_CASES)
        self.tally.record("oracle per_size", oracle.check_log_densities(
            model, labeled.dataset.values, cases))
        return statistics.fmean(oracle.set_f1(sel, labeled.ground_truth[row])
                                for row, (_, sel) in first.items())

    def check_passes(self, model, labeled, passes) -> None:
        reference = passes[0][0]
        for i, (scores, _) in enumerate(passes):
            problems = [] if np.all(np.isfinite(scores)) else ["scores not all finite"]
            if not np.array_equal(scores, reference):
                problems.append("scores differ from the first pass")
            self.tally.record(f"detect pass {i}", problems)
        rows = _sample(_seed_rng(self.seed, 2), list(range(len(reference))), ORACLE_ROWS)
        self.tally.record("oracle detect", oracle.check_scores(
            model, labeled.dataset.values, reference, rows))

    # --- runs -----------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        with self.speed.sampling():
            setups = [self.setup() for _ in range(SETUP_REPEATS)]
            labeled, model = setups[-1][0], setups[-1][1]
            explained, passes = self.steps(model, labeled, seconds)
        self.check_setups(setups)
        self.check_explained(model, labeled, explained)
        self.check_passes(model, labeled, passes)
        at_ref = self.speed.at_reference
        learn_s = _median(at_ref(s[3]) for s in setups)
        row_s = _median(at_ref(t) for _, t in explained)
        detect_s = _median(at_ref(t) for _, t in passes)
        return {
            "setup_s": _median(at_ref(s[2]) for s in setups),
            "learn_s": learn_s,
            "explain_rows_per_s": 1.0 / row_s,
            "score_rows_per_s": labeled.dataset.n_rows / detect_s,
            "pipeline_s": learn_s + detect_s + len(labeled.outlier_rows) * row_s,
        }

    def trace(self) -> dict[str, float]:
        """The set-up and one step per planted outlier, each run untraced and
        then traced; the per-layer metrics come from the traced half. A first
        set-up and step, untimed, warm the process up."""
        labeled, model, _, _ = self.setup()
        self.step(model, labeled, labeled.outlier_rows[0])
        pairs = [_paired(self.tracer, self.setup)]
        labeled, model = pairs[0][0][0], pairs[0][0][1]
        pairs += [_paired(self.tracer, lambda: self.step(model, labeled, row))
                  for row in labeled.outlier_rows]
        self.check_setups([pairs[0][0], pairs[0][1]])
        for half in (0, 1):
            explained = [p[half][0][0] for p in pairs[1:]]
            self.check_passes(model, labeled, [t for p in pairs[1:] for t in p[half][0][1]])
            mean_f1 = self.check_explained(model, labeled, explained)
        self.tracer.count("explain.logical_queries",
                          sum(trace.eval_count for (_, trace), _ in explained))
        overhead = sum(p[3] for p in pairs) / sum(p[2] for p in pairs) - 1.0
        return layer_metrics(self.tracer, model, overhead, mean_f1)


def build_mixed(sp, seed: int):
    """The planted table of 40 real columns with 10 independent categorical
    noise columns appended. Each noise column draws the probabilities of its
    5 levels from a Dirichlet(0.5) and its cells from them; labels are
    unchanged."""
    labeled = sp.generate(sp.GenConfig(n_features=40, seed=seed))
    rng = _seed_rng(seed, 3)
    n_rows = labeled.dataset.n_rows
    names = ("L0", "L1", "L2", "L3", "L4")
    schema = list(labeled.dataset.schema)
    blocks = [labeled.dataset.values]
    for j in range(10):
        probs = rng.dirichlet(np.full(len(names), 0.5))
        blocks.append(rng.choice(len(names), size=(n_rows, 1), p=probs).astype(np.float64))
        schema.append(sp.Column(f"cat{j}", "categorical", names))
    dataset = sp.Dataset(schema, np.hstack(blocks))
    return sp.LabeledDataset(dataset, labeled.outlier_rows, labeled.ground_truth)


@dataclass
class CliRun:
    code: int
    timing: Timing
    stdout: str
    stderr: str


class CliMixed:
    """cli-mixed-n50: `spnexplain.cli.main` runs train -> score -> explain ->
    eval on one CSV of 40 planted real columns and 10 categorical noise
    columns, explaining every planted outlier with forward beam search and
    z-score selection."""

    name = "cli-mixed-n50"
    # more commands after each pipeline, for score_rows_per_s and learn_s
    SCORE_REPEATS = 29
    TRAIN_REPEATS = 2

    def __init__(self, sp, seed: int, workdir: str, tally: Tally, tracer: Tracer):
        self.sp, self.seed, self.tally, self.tracer = sp, seed, tally, tracer
        self.speed = Speed()
        self.main = importlib.import_module("spnexplain.cli").main
        path = lambda name: os.path.join(workdir, name)
        self.csv, self.labels, self.model = path("data.csv"), path("labels.json"), path("model.json")
        self.scores, self.explanations = path("scores.tsv"), path("explanations.jsonl")
        self.rows: tuple[int, ...] = ()
        self.n_rows = 0

    def setup(self) -> tuple[Timing, str]:
        with self.tracer.span("bench.setup"), self.speed.timing() as t:
            labeled = build_mixed(self.sp, self.seed)
            self.sp.save_csv(labeled.dataset, self.csv)
            self.sp.write_labels(labeled, self.labels)
        self.rows, self.n_rows = labeled.outlier_rows, labeled.dataset.n_rows
        with open(self.csv, "rb") as fh:
            return t, hashlib.sha256(fh.read()).hexdigest()

    def cli(self, command: str, *args: str) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{command}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), self.speed.timing() as t:
            try:
                code = self.main([command, *args])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return CliRun(code, t, out.getvalue(), err.getvalue())

    def train(self) -> CliRun:
        return self.cli("train", "--data", self.csv, "--model", self.model,
                        "--seed", str(self.seed))

    def score(self) -> CliRun:
        return self.cli("score", "--model", self.model, "--data", self.csv,
                        "--contamination", str(CONTAMINATION), "--out", self.scores)

    def commands(self):
        """The pipeline, in order: (command, call that runs it)."""
        return [
            ("train", self.train),
            ("score", self.score),
            ("explain", lambda: self.cli(
                "explain", "--model", self.model, "--data", self.csv,
                "--rows", ",".join(str(r) for r in self.rows),
                "--strategy", "forward", "--selection", "zscore",
                "--out", self.explanations)),
            ("eval", lambda: self.cli("eval", "--explanations", self.explanations,
                                      "--data", self.csv, "--labels", self.labels)),
        ]

    def pipeline(self) -> dict[str, CliRun]:
        return {command: run() for command, run in self.commands()}

    # --- checks ---------------------------------------------------------

    def _exit(self, run: CliRun) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}: {run.stderr.strip()[-200:]}"]
        return []

    def check_pipeline(self, runs: dict[str, CliRun]):
        """Checks every command's output; returns (mean F1 from eval, the
        explanation records, score file bytes, model)."""
        if any(run.code != 0 for run in runs.values()):
            for command, run in runs.items():
                self.tally.record(f"cli {command}", self._exit(run))
            return math.nan, [], b"", None
        values = self.sp.load_csv(self.csv).values
        model = self.sp.load_model(self.model)
        n = model.n_features
        self.tally.record("cli train", [f"validate: {p}" for p in self.sp.validate(model)])

        with open(self.scores, "rb") as fh:
            score_bytes = fh.read()
        lines = score_bytes.decode().splitlines()
        problems = [] if lines[0] == "row\tscore\tflagged" else [f"header {lines[0]!r}"]
        table = [line.split("\t") for line in lines[1:]]
        scores = np.array([float(cells[1]) for cells in table])
        flagged = np.array([cells[2] == "1" for cells in table])
        if len(table) != len(values) or [int(c[0]) for c in table] != list(range(len(values))):
            problems.append(f"{len(table)} score lines for {len(values)} rows")
        elif not flagged.any() or (not flagged.all() and
                                   scores[flagged].min() < scores[~flagged].max()):
            problems.append("flagged rows are not the highest scores")
        rows = _sample(_seed_rng(self.seed, 2), list(range(len(scores))), ORACLE_ROWS)
        problems += oracle.check_scores(model, values, scores, rows)
        self.tally.record("cli score", problems)

        with open(self.explanations) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        problems = []
        if sorted(rec["row"] for rec in records) != sorted(self.rows):
            problems.append(f"{len(records)} records for {len(self.rows)} requested rows")
        cases = []
        for rec in records:
            per_size = [(e["k"], tuple(e["features"])) for e in rec["per_size"]]
            problems += oracle.check_per_size(per_size, n, nested=False)
            if len(per_size) != n:
                problems.append(f"row {rec['row']}: {len(per_size)} sizes, expected {n}")
            if (rec["size"], tuple(rec["selected"])) not in per_size:
                problems.append(f"row {rec['row']}: selected subspace is not in per_size")
            cases += [(rec["row"], e["features"], e["log_density"]) for e in rec["per_size"]]
        cases = _sample(_seed_rng(self.seed, 1), cases, ORACLE_CASES)
        problems += oracle.check_log_densities(model, values, cases)
        self.tally.record("cli explain", problems)

        with open(self.labels) as fh:
            truth = {e["row"]: e["subspace"] for e in json.load(fh)["outliers"]}
        f1s = [oracle.set_f1(rec["selected"], truth[rec["row"]]) for rec in records]
        expected = sum(f1s) / len(f1s) if f1s else math.nan
        last = runs["eval"].stdout.strip().splitlines()[-1].split("\t")
        problems = []
        if last[0] != "mean" or abs(float(last[-1]) - expected) > 1e-12:
            problems.append(f"eval reports {last!r}, recomputed mean F1 is {expected!r}")
        self.tally.record("cli eval", problems)
        return expected, records, score_bytes, model

    def check_repeat(self, run: CliRun, path: str, reference: bytes) -> None:
        """A repeated command exited 0 and rewrote `path` byte for byte."""
        problems = self._exit(run)
        with open(path, "rb") as fh:
            if not problems and fh.read() != reference:
                problems.append(f"repeating the command changed {os.path.basename(path)}")
        self.tally.record("cli repeat", problems)

    def check_setups(self, setups) -> None:
        for i, (_, digest) in enumerate(setups):
            problems = [] if digest == setups[0][1] else ["set-up wrote a different CSV"]
            self.tally.record(f"setup {i}", problems)

    # --- runs -----------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        def one(_):
            runs = self.pipeline()
            checked = self.check_pipeline(runs)
            with open(self.model, "rb") as fh:
                model_bytes = fh.read()
            repeats = {"score": [], "train": []}
            for command, n, path, reference in (
                    ("score", self.SCORE_REPEATS, self.scores, checked[2]),
                    ("train", self.TRAIN_REPEATS, self.model, model_bytes)):
                for _ in range(n):
                    repeats[command].append(getattr(self, command)())
                    self.check_repeat(repeats[command][-1], path, reference)
            spent = sum(r.timing.seconds for r in
                        [*runs.values(), *repeats["score"], *repeats["train"]])
            return (runs, checked[0], repeats), spent

        with self.speed.sampling():
            setups = [self.setup() for _ in range(SETUP_REPEATS)]
            done = [result for result, _ in _fill(seconds, 1, one)]
        self.check_setups(setups)
        f1s = [f1 for _, f1, _ in done]
        self.tally.record("mean F1 of repeated pipelines", [] if len(set(f1s)) == 1 else
                          [f"pipelines gave mean F1 {f1s}"])
        at_ref = self.speed.at_reference
        pipelines = [{command: at_ref(run.timing) for command, run in runs.items()}
                     for runs, _, _ in done]
        def repeated(command):
            return _median(at_ref(run.timing) for runs, _, repeats in done
                           for run in [runs[command], *repeats[command]])

        return {
            "setup_s": _median(at_ref(t) for t, _ in setups),
            "learn_s": repeated("train"),
            "explain_rows_per_s": len(self.rows) / _median(p["explain"] for p in pipelines),
            "score_rows_per_s": self.n_rows / repeated("score"),
            "pipeline_s": _median(sum(p.values()) for p in pipelines),
        }

    def trace(self) -> dict[str, float]:
        """The set-up and each command run untraced and then traced; the
        traced runs' outputs are checked, the untraced ones' exit codes. A
        first pass, untimed, warms the process up."""
        self.setup()
        self.pipeline()
        pairs = [_paired(self.tracer, self.setup)]
        runs = {}
        for command, run in self.commands():
            pairs.append(_paired(self.tracer, run))
            runs[command] = pairs[-1][1]
            self.tally.record(f"cli {command} (untraced)", self._exit(pairs[-1][0]))
        self.check_setups([pairs[0][0], pairs[0][1]])
        mean_f1, records, _, model = self.check_pipeline(runs)
        overhead = sum(p[3] for p in pairs) / sum(p[2] for p in pairs) - 1.0
        self.tracer.count("explain.logical_queries", sum(rec["evals"] for rec in records))
        return layer_metrics(self.tracer, model, overhead, mean_f1)
