import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import gaussian_kde

import spnexplain.datagen as datagen
from spnexplain.cli import main
from spnexplain.data import load_csv, save_csv
from spnexplain.datagen import (MAX_REJECTION_BATCHES, GenConfig, LabeledDataset,
                                generate, read_labels, write_labels)
from spnexplain.errors import DataError

PAIRS_CFG = GenConfig(n_features=6, n_samples=600, n_outliers=20,
                      subspace_min=2, subspace_max=2, seed=3)


def inlier_mask(labeled):
    mask = np.ones(labeled.dataset.n_rows, dtype=bool)
    mask[list(labeled.outlier_rows)] = False
    return mask


class TestStructure:
    def test_forced_block_size_and_disjoint_partition(self):
        labeled = generate(PAIRS_CFG)
        used = [s for s in labeled.ground_truth.values()]
        assert all(len(s) == 2 for s in used)
        blocks = set(used)
        flat = [f for b in blocks for f in b]
        assert len(flat) == len(set(flat))  # blocks never share a feature

    def test_shapes_and_labels_are_consistent(self):
        labeled = generate(PAIRS_CFG)
        assert labeled.dataset.values.shape == (600, 6)
        assert len(labeled.outlier_rows) == 20
        assert labeled.outlier_rows == tuple(sorted(labeled.outlier_rows))
        assert set(labeled.ground_truth) == set(labeled.outlier_rows)

    def test_outliers_stay_inside_inlier_bounding_box(self):
        labeled = generate(PAIRS_CFG)
        X = labeled.dataset.values
        inliers = X[inlier_mask(labeled)]
        lo, hi = inliers.min(axis=0), inliers.max(axis=0)
        for row, sub in labeled.ground_truth.items():
            for f in sub:
                assert lo[f] <= X[row, f] <= hi[f]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n_features=1)
        with pytest.raises(ValueError):
            GenConfig(n_features=5, n_outliers=0)
        with pytest.raises(ValueError):
            GenConfig(n_features=5, subspace_min=3, subspace_max=2)
        with pytest.raises(ValueError):
            GenConfig(n_features=5, subspace_min=6, subspace_max=6)

    def test_noise_sigma_must_be_positive_and_finite(self):
        for sigma in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise_sigma must be positive and finite"):
                GenConfig(n_features=5, noise_sigma=sigma)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        a = generate(PAIRS_CFG)
        b = generate(PAIRS_CFG)
        assert a.dataset.values.tobytes() == b.dataset.values.tobytes()
        assert a.outlier_rows == b.outlier_rows
        assert a.ground_truth == b.ground_truth

    def test_different_seeds_differ(self):
        a = generate(PAIRS_CFG)
        b = generate(GenConfig(n_features=6, n_samples=600, n_outliers=20,
                               subspace_min=2, subspace_max=2, seed=4))
        assert a.dataset.values.tobytes() != b.dataset.values.tobytes()


def assert_planted_rows_inside_the_box(labeled):
    X = labeled.dataset.values
    inliers = X[inlier_mask(labeled)]
    lo, hi = inliers.min(axis=0), inliers.max(axis=0)
    for row, sub in labeled.ground_truth.items():
        sub = list(sub)
        assert np.isfinite(X[row, sub]).all()
        assert (lo[sub] <= X[row, sub]).all() and (X[row, sub] <= hi[sub]).all()


def generate_twice(cfg):
    a, b = generate(cfg), generate(cfg)
    assert a.dataset.values.tobytes() == b.dataset.values.tobytes()
    assert a.ground_truth == b.ground_truth
    return a


class TestFallbacks:
    def test_many_clusters_take_evenly_spaced_centers(self, monkeypatch):
        # eight centers 0.6/7 apart in every coordinate almost never come
        # from 1000 uniform draws, so each coordinate falls back to linspace
        drawn = []
        draw = datagen._draw_centers
        monkeypatch.setattr(datagen, "_draw_centers",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        labeled = generate_twice(GenConfig(n_features=4, clusters_per_subspace=8))
        assert drawn
        for centers in drawn:
            for column in centers.T:
                assert np.array_equal(column, np.linspace(0.15, 0.85, 8))
        assert_planted_rows_inside_the_box(labeled)

    def test_wide_noise_plants_the_non_qualifying_fallback(self, monkeypatch):
        # at sigma = 2 no candidate qualifies: each planted row runs every
        # rejection batch and keeps the lowest-density candidate
        calls = []
        joint = datagen._mixture_log_joint
        monkeypatch.setattr(datagen, "_mixture_log_joint",
                            lambda *args: calls.append(1) or joint(*args))
        cfg = GenConfig(n_features=4, noise_sigma=2.0, n_outliers=3)
        labeled = generate(cfg)
        # one call for the inlier cut, then one per rejection batch
        assert len(calls) == cfg.n_outliers * (1 + MAX_REJECTION_BATCHES)
        assert_planted_rows_inside_the_box(labeled)
        assert generate(cfg).dataset.values.tobytes() == labeled.dataset.values.tobytes()

    @pytest.mark.parametrize("sigma", [1e-160, 1e-320])
    def test_tiny_noise_sigma_gives_a_finite_table(self, sigma, tmp_path):
        # a candidate's z^2 passes the largest float, so its log density is
        # -inf: the planted rows are finite fallbacks, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labeled = generate_twice(GenConfig(n_features=4, noise_sigma=sigma,
                                               n_outliers=3))
        assert np.isfinite(labeled.dataset.values).all()
        assert_planted_rows_inside_the_box(labeled)
        path = str(tmp_path / "d.csv")
        save_csv(labeled.dataset, path)
        assert [c.kind for c in load_csv(path).schema] == ["real"] * 4


class TestLabelsSidecar:
    def test_round_trip(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        path = str(tmp_path / "labels.json")
        write_labels(labeled, path)
        back = read_labels(labeled.dataset, path)
        assert back.outlier_rows == labeled.outlier_rows
        assert back.ground_truth == labeled.ground_truth

    def test_missing_sidecar(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        with pytest.raises(DataError, match="not found"):
            read_labels(labeled.dataset, str(tmp_path / "nope.json"))

    def test_out_of_range_row_rejected(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        path = str(tmp_path / "labels.json")
        bad = LabeledDataset(labeled.dataset, (9999,), {9999: (0, 1)})
        write_labels(bad, path)
        with pytest.raises(DataError, match="row 9999"):
            read_labels(labeled.dataset, path)

    def test_out_of_range_feature_rejected(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        path = str(tmp_path / "labels.json")
        bad = LabeledDataset(labeled.dataset, (0,), {0: (0, 99)})
        write_labels(bad, path)
        with pytest.raises(DataError, match="subspace"):
            read_labels(labeled.dataset, path)

    def test_malformed_entries_name_the_outlier(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        path = tmp_path / "labels.json"
        for outliers, where in [([{"row": "3", "subspace": [0, 1]}], r"outliers\[0\]"),
                                ([{"row": 3, "subspace": 3}], r"outliers\[0\]"),
                                ([{"row": 3, "subspace": ["a"]}], r"outliers\[0\]"),
                                ([{"row": 1.5, "subspace": [0, 1]}], r"outliers\[0\]"),
                                ([{"row": True, "subspace": [0, 1]}], r"outliers\[0\]"),
                                ([{"row": 3, "subspace": [True, 2]}], r"outliers\[0\]"),
                                ([{"row": 3, "subspace": [4, 4]}], r"outliers\[0\]"),
                                (3, "outliers")]:
            path.write_text(json.dumps({"outliers": outliers}))
            with pytest.raises(DataError, match=where):
                read_labels(labeled.dataset, str(path))

    def test_repeated_row_rejected(self, tmp_path):
        labeled = generate(PAIRS_CFG)
        path = tmp_path / "labels.json"
        write_labels(labeled, str(path))
        doc = json.loads(path.read_text())
        doc["outliers"].append(dict(doc["outliers"][0]))
        path.write_text(json.dumps(doc))
        last = len(doc["outliers"]) - 1
        with pytest.raises(DataError, match=rf"outliers\[{last}\] repeats row"):
            read_labels(labeled.dataset, str(path))

    def test_malformed_sidecar_exits_3_from_eval(self, tmp_path, capsys):
        labeled = generate(PAIRS_CFG)
        data, labels = tmp_path / "data.csv", tmp_path / "labels.json"
        explanations = tmp_path / "expl.jsonl"
        save_csv(labeled.dataset, str(data))
        labels.write_text(json.dumps({"outliers": [{"row": "3", "subspace": [0, 1]}]}))
        explanations.write_text("")
        assert main(["eval", "--explanations", str(explanations),
                     "--data", str(data), "--labels", str(labels)]) == 3
        assert "Traceback" not in capsys.readouterr().err


class TestPlantedAnomalyQuality:
    def test_outliers_are_univariately_inconspicuous(self):
        """No planted coordinate should be a marginal outlier on its own."""
        labeled = generate(PAIRS_CFG)
        X = labeled.dataset.values
        inliers = X[inlier_mask(labeled)]
        mu, sd = inliers.mean(axis=0), inliers.std(axis=0)
        zs = [abs(X[row, f] - mu[f]) / sd[f]
              for row, sub in labeled.ground_truth.items() for f in sub]
        assert np.mean(np.asarray(zs) <= 3.0) >= 0.95

    def test_planted_pair_has_lowest_kde_density(self):
        """Scanning every 2-subset with a model-free KDE should point at the
        planted pair for nearly all outliers."""
        labeled = generate(PAIRS_CFG)
        X = labeled.dataset.values
        inliers = X[inlier_mask(labeled)]
        kdes = {pair: gaussian_kde(inliers[:, list(pair)].T)
                for pair in itertools.combinations(range(6), 2)}
        hits = 0
        for row, sub in labeled.ground_truth.items():
            dens = {pair: float(kde(X[row, list(pair)])[0])
                    for pair, kde in kdes.items()}
            if min(dens, key=dens.get) == sub:
                hits += 1
        assert hits / len(labeled.ground_truth) >= 0.8

    def test_outliers_separate_from_inliers_in_planted_subspace(self):
        labeled = generate(PAIRS_CFG)
        X = labeled.dataset.values
        inliers = X[inlier_mask(labeled)]
        below = 0
        for row, sub in labeled.ground_truth.items():
            kde = gaussian_kde(inliers[:, list(sub)].T)
            cut = np.percentile(kde(inliers[:, list(sub)].T), 10.0)
            below += float(kde(X[row, list(sub)])[0]) < cut
        assert below / len(labeled.ground_truth) >= 0.9

    def test_noise_features_are_uniform_like(self):
        cfg = GenConfig(n_features=7, n_samples=800, n_outliers=10,
                        subspace_min=3, subspace_max=3, seed=11)
        labeled = generate(cfg)
        planted = {f for s in labeled.ground_truth.values() for f in s}
        noise = sorted(set(range(7)) - planted)
        assert len(noise) == 1  # 7 features, two 3-blocks, one leftover
        col = labeled.dataset.values[:, noise[0]]
        assert 0.0 <= col.min() and col.max() <= 1.0
        assert abs(col.mean() - 0.5) < 0.05
