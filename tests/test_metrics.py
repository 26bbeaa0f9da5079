import json
from unittest import mock

import numpy as np
import pytest

import spnexplain.metrics as metrics
from spnexplain.data import Column, Dataset
from spnexplain.datagen import GenConfig, generate
from spnexplain.explain import ExplainConfig
from spnexplain.learn import LearnConfig, learn_spn
from spnexplain.metrics import detect, f1_dims, run_benchmark, write_summary
from spnexplain.model import GaussianLeaf, ProductNode, SpnModel


class TestF1Dims:
    def test_exact_match(self):
        assert f1_dims({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)

    def test_partial_overlap(self):
        p, r, f1 = f1_dims({1}, {1, 2})
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_disjoint_sets(self):
        assert f1_dims({3}, {1, 2}) == (0.0, 0.0, 0.0)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            f1_dims(set(), {1})
        with pytest.raises(ValueError):
            f1_dims({1}, set())


def _std_model(n):
    leaves = [GaussianLeaf(j, 0.0, 1.0) for j in range(n)]
    return SpnModel(leaves + [ProductNode(tuple(range(n)))], n,
                    [Column(f"f{j}", "real") for j in range(n)])


class TestDetect:
    def test_flags_top_quantile(self):
        m = _std_model(1)
        X = np.linspace(-1, 1, 100)[:, None]
        ds = Dataset(m.schema, X)
        flagged, scores = detect(m, ds, 0.1)
        assert len(flagged) == 10
        cut = sorted(scores)[-10]
        assert all(scores[i] >= cut for i in flagged)

    def test_degenerate_identical_rows_flags_everything(self):
        m = _std_model(2)
        ds = Dataset(m.schema, np.zeros((20, 2)))
        flagged, _ = detect(m, ds, 0.05)
        assert flagged == list(range(20))

    def test_contamination_range(self):
        m = _std_model(1)
        ds = Dataset(m.schema, np.zeros((5, 1)))
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                detect(m, ds, bad)

    def test_recovers_planted_outliers(self):
        labeled = generate(GenConfig(n_features=10, seed=1))
        model = learn_spn(labeled.dataset, LearnConfig(seed=1))
        flagged, _ = detect(model, labeled.dataset, 0.03)
        truth = set(labeled.outlier_rows)
        recall = len(truth & set(flagged)) / len(truth)
        assert recall >= 0.8


class TestRunBenchmark:
    def test_trains_exactly_once(self, tmp_path):
        labeled = generate(GenConfig(n_features=6, n_samples=400,
                                     n_outliers=5, seed=2))
        with mock.patch.object(metrics, "learn_spn",
                               side_effect=learn_spn) as spy:
            run_benchmark(labeled, LearnConfig(seed=2), ExplainConfig())
            assert spy.call_count == 1

    def test_mean_f1_integrity_and_outputs(self, tmp_path):
        labeled = generate(GenConfig(n_features=6, n_samples=400,
                                     n_outliers=8, seed=3))
        exp_path = str(tmp_path / "expl.jsonl")
        sum_path = str(tmp_path / "summary.tsv")
        report = run_benchmark(labeled, LearnConfig(seed=3), ExplainConfig(),
                               explanations_path=exp_path, summary_path=sum_path)
        assert report.mean_f1 == pytest.approx(np.mean(report.f1), abs=1e-12)
        assert report.rows == list(labeled.outlier_rows)
        assert report.eval_counts == [6 * 7 // 2 - 1] * len(report.rows)

        records = [json.loads(l) for l in open(exp_path)]
        assert [r["row"] for r in records] == report.rows
        for rec, f1 in zip(records, report.f1):
            p, r, want = f1_dims(rec["selected"],
                                 labeled.ground_truth[rec["row"]])
            assert f1 == want
            assert rec["strategy"] == "backward"
            assert rec["evals"] == 6 * 7 // 2 - 1
            assert [e["k"] for e in rec["per_size"]] == list(range(1, 6))

        header, row = open(sum_path).read().splitlines()
        assert header.split("\t") == list(metrics.SUMMARY_COLUMNS)
        cells = row.split("\t")
        assert cells[0] == "6"
        assert float(cells[3]) == pytest.approx(report.mean_f1)

    def test_zscore_selection_runs(self):
        labeled = generate(GenConfig(n_features=6, n_samples=400,
                                     n_outliers=5, seed=4))
        report = run_benchmark(labeled, LearnConfig(seed=4),
                               ExplainConfig(selection="zscore"))
        assert len(report.f1) == 5
        assert report.selection == "zscore"


class TestWriteSummary:
    def test_multiple_reports_one_line_each(self, tmp_path):
        r = metrics.EvalReport([0], [1.0], [5], 1.0, 0.1, 0.2,
                               4, "backward", "elbow")
        path = str(tmp_path / "s.tsv")
        write_summary([r, r], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]
