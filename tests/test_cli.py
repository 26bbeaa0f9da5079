import json
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from conftest import log_marginal_subspace
import spnexplain
from spnexplain import cli, data, datagen, metrics, model
from spnexplain.cli import main
from spnexplain.data import Column
from spnexplain.explain import subspace_score_stats
from spnexplain.model import (CategoricalLeaf, GaussianLeaf, ProductNode, SpnModel,
                              SumNode, eval_log_density, load_model, to_dict)


@pytest.fixture
def workspace(tmp_path):
    """Generated dataset + trained model shared across CLI tests."""
    data = str(tmp_path / "data.csv")
    labels = str(tmp_path / "labels.json")
    model = str(tmp_path / "model.json")
    assert main(["gen", "--n-features", "6", "--n-samples", "500",
                 "--n-outliers", "8", "--subspace-min", "2",
                 "--subspace-max", "3", "--seed", "5",
                 "--out", data, "--labels", labels]) == 0
    assert main(["train", "--data", data, "--seed", "5",
                 "--model", model]) == 0
    return {"dir": tmp_path, "data": data, "labels": labels, "model": model}


class TestPipeline:
    def test_gen_writes_csv_and_labels(self, workspace):
        header = open(workspace["data"]).readline().strip()
        assert header == "f0,f1,f2,f3,f4,f5"
        doc = json.load(open(workspace["labels"]))
        assert len(doc["outliers"]) == 8

    def test_score_with_contamination(self, workspace):
        out = str(workspace["dir"] / "scores.tsv")
        assert main(["score", "--model", workspace["model"],
                     "--data", workspace["data"],
                     "--contamination", "0.016", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "row\tscore\tflagged"
        assert len(lines) == 501
        flagged = [l for l in lines[1:] if l.endswith("\t1")]
        assert len(flagged) >= 8

    def test_explain_then_eval(self, workspace, capsys):
        truth = json.load(open(workspace["labels"]))["outliers"]
        rows = ",".join(str(e["row"]) for e in truth)
        expl = str(workspace["dir"] / "expl.jsonl")
        assert main(["explain", "--model", workspace["model"],
                     "--data", workspace["data"], "--rows", rows,
                     "--out", expl]) == 0
        records = [json.loads(l) for l in open(expl)]
        assert len(records) == len(truth)
        assert all(r["strategy"] == "backward" for r in records)

        assert main(["eval", "--explanations", expl,
                     "--data", workspace["data"],
                     "--labels", workspace["labels"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "row\tprecision\trecall\tf1"
        mean = float(out[-1].split("\t")[-1])
        assert 0.0 <= mean <= 1.0

    def test_bench_from_files(self, workspace, capsys):
        assert main(["bench", "--data", workspace["data"],
                     "--labels", workspace["labels"], "--seed", "5"]) == 0
        assert "n_features=6" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["score"], ["score", "--contamination", "0.03"],
        ["explain", "--rows", "0,3", "--selection", "zscore"]])
    def test_stdout_has_the_bytes_of_the_out_file(self, workspace, argv, capsysbinary):
        out = workspace["dir"] / "out.txt"
        argv = argv + ["--model", workspace["model"], "--data", workspace["data"]]
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert printed and printed == out.read_bytes()

    def test_parser_is_built_once_and_parses_each_call_afresh(self, workspace, tmp_path):
        cli.build_parser.cache_clear()
        model = ["--model", workspace["model"], "--data", workspace["data"]]
        paths = [str(tmp_path / name) for name in ("a.tsv", "a.jsonl", "b.tsv", "b.jsonl")]
        assert main(["score", *model, "--contamination", "0.1", "--out", paths[0]]) == 0
        assert main(["explain", *model, "--rows", "0", "--strategy", "forward",
                     "--max-depth", "2", "--out", paths[1]]) == 0
        assert main(["score", *model, "--out", paths[2]]) == 0
        assert main(["explain", *model, "--rows", "0", "--out", paths[3]]) == 0
        assert cli.build_parser.cache_info().misses == 1
        # a flag given to one call is not a default of the next
        assert open(paths[0]).readline() == "row\tscore\tflagged\n"
        assert open(paths[2]).readline() == "row\tscore\n"
        first, second = (json.loads(open(p).read()) for p in paths[1::2])
        assert (first["strategy"], len(first["per_size"])) == ("forward", 2)
        assert (second["strategy"], len(second["per_size"])) == ("backward", 5)

    def test_explain_forward_zscore_variant(self, workspace):
        assert main(["explain", "--model", workspace["model"],
                     "--data", workspace["data"], "--rows", "0",
                     "--strategy", "forward", "--selection", "zscore",
                     "--out", str(workspace["dir"] / "z.jsonl")]) == 0


def test_bench_writes_what_explain_and_eval_write(tmp_path, capsys):
    # at n = 20, seed 0 a pairwise and an in-order sum of the 30 F1 values
    # differ in the last digits, so the means match only if both sum alike
    data, labels = str(tmp_path / "d.csv"), str(tmp_path / "l.json")
    model, expl = str(tmp_path / "m.json"), str(tmp_path / "e.jsonl")
    bench_expl, summary = str(tmp_path / "b.jsonl"), str(tmp_path / "s.tsv")
    assert main(["gen", "--n-features", "20", "--seed", "0",
                 "--out", data, "--labels", labels]) == 0
    assert main(["train", "--data", data, "--seed", "0", "--model", model]) == 0
    rows = ",".join(str(e["row"]) for e in json.load(open(labels))["outliers"])
    assert main(["explain", "--model", model, "--data", data, "--rows", rows,
                 "--out", expl]) == 0
    assert main(["bench", "--data", data, "--labels", labels, "--seed", "0",
                 "--explanations", bench_expl, "--summary", summary]) == 0
    assert open(bench_expl, "rb").read() == open(expl, "rb").read()
    capsys.readouterr()
    assert main(["eval", "--explanations", expl, "--data", data,
                 "--labels", labels]) == 0
    mean = capsys.readouterr().out.splitlines()[-1].split("\t")[-1]
    header, cells = (line.split("\t") for line in open(summary).read().splitlines())
    assert cells[header.index("mean_f1")] == mean


class TestExitCodes:
    def test_usage_errors_exit_2(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:  # --data and --labels are required
            main(["bench", "--seed", "1"])
        assert exc.value.code == 2
        assert main(["explain", "--model", workspace["model"],
                     "--data", workspace["data"], "--rows", "a,b"]) == 2
        assert main(["gen", "--n-features", "1", "--seed", "0",
                     "--out", "x", "--labels", "y"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("rows,message", [
        (",", "--rows selected no rows"),
        ("a,b", "--rows must be comma-separated integers: "
                "invalid literal for int() with base 10: 'a'")])
    def test_bad_rows_exit_2(self, workspace, rows, message, capsys):
        assert main(["explain", "--model", workspace["model"],
                     "--data", workspace["data"], "--rows", rows]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_min_slice_rows_two_exits_2(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", workspace["data"], "--seed", "0",
                     "--min-slice-rows", "2", "--model", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert "min_slice_rows must be >= 3" in err and "Traceback" not in err

    def test_unwritable_output_paths_exit_2(self, workspace, tmp_path, capsys):
        ws = workspace
        out_dir = str(tmp_path)
        absent = str(tmp_path / "absent" / "x.tsv")
        explain = ["explain", "--model", ws["model"], "--data", ws["data"], "--rows", "0"]
        for argv in (["score", "--model", ws["model"], "--data", ws["data"],
                      "--out", out_dir],
                     ["score", "--model", ws["model"], "--data", ws["data"],
                      "--out", absent],
                     ["train", "--data", ws["data"], "--seed", "0", "--model", out_dir],
                     ["gen", "--n-features", "4", "--n-samples", "100",
                      "--n-outliers", "2", "--seed", "0", "--out", out_dir,
                      "--labels", str(tmp_path / "labels.json")],
                     explain + ["--out", out_dir],
                     ["bench", "--data", ws["data"], "--labels", ws["labels"],
                      "--seed", "0", "--summary", out_dir]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_infinite_noise_sigma_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--n-features", "4", "--noise-sigma", "inf", "--seed", "0",
                     "--out", str(tmp_path / "d.csv"),
                     "--labels", str(tmp_path / "l.json")]) == 2
        err = capsys.readouterr().err
        assert "noise_sigma must be positive and finite" in err and "Traceback" not in err

    def test_data_errors_exit_3(self, workspace, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        assert main(["train", "--data", missing, "--seed", "0",
                     "--model", str(tmp_path / "m.json")]) == 3
        assert main(["explain", "--model", workspace["model"],
                     "--data", workspace["data"], "--rows", "99999"]) == 3
        capsys.readouterr()

    def test_eval_of_no_explanations_exits_3(self, workspace, capsys):
        expl = workspace["dir"] / "none.jsonl"
        expl.write_text("\n")
        assert main(["eval", "--explanations", str(expl), "--data", workspace["data"],
                     "--labels", workspace["labels"]]) == 3
        captured = capsys.readouterr()
        assert f"explanations {expl}: no records" in captured.err
        assert captured.out == ""

    def test_bench_on_labels_with_no_outliers_exits_3(self, workspace, capsys):
        labels = workspace["dir"] / "none.json"
        labels.write_text('{"outliers": []}')
        summary = workspace["dir"] / "s.tsv"
        assert main(["bench", "--data", workspace["data"], "--labels", str(labels),
                     "--seed", "0", "--summary", str(summary)]) == 3
        captured = capsys.readouterr()
        assert f"labels {labels}: lists no outliers" in captured.err
        assert captured.out == "" and not summary.exists()

    def test_train_data_directory_exits_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path), "--seed", "0",
                     "--model", str(tmp_path / "m.json")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_eval_labels_directory_exits_3(self, workspace, capsys):
        expl = workspace["dir"] / "empty.jsonl"
        expl.write_text("")
        assert main(["eval", "--explanations", str(expl), "--data", workspace["data"],
                     "--labels", str(workspace["dir"])]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_data_schema_labels_exit_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe,a\n1,2\n")
        expl = tmp_path / "empty.jsonl"
        expl.write_text("")
        for argv in (["train", "--data", str(bad), "--seed", "0",
                      "--model", str(tmp_path / "m.json")],
                     ["train", "--data", workspace["data"], "--schema", str(bad),
                      "--seed", "0", "--model", str(tmp_path / "m.json")],
                     ["eval", "--explanations", str(expl), "--data", workspace["data"],
                      "--labels", str(bad)],
                     ["eval", "--explanations", str(bad), "--data", workspace["data"],
                      "--labels", workspace["labels"]]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "codec can't decode" in err and "Traceback" not in err

    def test_malformed_explanation_records_exit_3(self, workspace, capsys):
        row = json.load(open(workspace["labels"]))["outliers"][0]["row"]
        for i, rec in enumerate([{"row": row}, {"selected": [0]}, [row, [0]],
                                 {"row": row, "selected": []},
                                 {"row": str(row), "selected": [0]},
                                 {"row": row, "selected": [True, False]}]):
            expl = workspace["dir"] / f"bad{i}.jsonl"
            expl.write_text(json.dumps(rec) + "\n")
            assert main(["eval", "--explanations", str(expl),
                         "--data", workspace["data"],
                         "--labels", workspace["labels"]]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_feature_indices_exit_3(self, workspace, capsys):
        row = json.load(open(workspace["labels"]))["outliers"][0]["row"]
        for selected, message in (
                ([999, -4], "record 1 selected [999, -4]: feature 999 outside 0..5"),
                ([0, -1], "record 1 selected [0, -1]: feature -1 outside 0..5"),
                ([6], "record 1 selected [6]: feature 6 outside 0..5"),
                ([3, 3, 3], "record 1 selected [3, 3, 3] repeats feature 3")):
            expl = workspace["dir"] / "bad.jsonl"
            expl.write_text(json.dumps({"row": row, "selected": selected}) + "\n")
            assert main(["eval", "--explanations", str(expl), "--data", workspace["data"],
                         "--labels", workspace["labels"]]) == 3
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == "" and "Traceback" not in captured.err

    def test_eval_of_unlabeled_row_exits_3(self, workspace, capsys):
        outliers = {e["row"] for e in json.load(open(workspace["labels"]))["outliers"]}
        row = min(set(range(500)) - outliers)
        expl = workspace["dir"] / "unlabeled.jsonl"
        assert main(["explain", "--model", workspace["model"], "--data", workspace["data"],
                     "--rows", str(row), "--out", str(expl)]) == 0
        assert main(["eval", "--explanations", str(expl), "--data", workspace["data"],
                     "--labels", workspace["labels"]]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: explained row {row} has no ground-truth label\n"

    def test_repeated_explanation_row_exits_3(self, workspace, capsys):
        row = json.load(open(workspace["labels"]))["outliers"][0]["row"]
        rec = json.dumps({"row": row, "selected": [0]})
        expl = workspace["dir"] / "twice.jsonl"
        expl.write_text(rec + "\n" + rec + "\n")
        assert main(["eval", "--explanations", str(expl), "--data", workspace["data"],
                     "--labels", workspace["labels"]]) == 3
        captured = capsys.readouterr()
        assert f"record 2 repeats row {row}" in captured.err
        assert captured.out == ""

    def test_model_errors_exit_4(self, workspace, tmp_path, capsys):
        doc = json.load(open(workspace["model"]))
        nodes = doc["nodes"]
        product = next(nd for nd in nodes if nd["type"] == "product")["id"]
        gaussian = next(nd for nd in nodes if nd["type"] == "gaussian")["id"]
        cases = [
            lambda d: d.__setitem__("version", 99),
            lambda d: d["schema"].__setitem__(0, {"name": "f0", "kind": "categorical"}),
            lambda d: d.__setitem__("schema", 5),
            lambda d: d["nodes"][product].__setitem__("children", 5),
            lambda d: d["nodes"][gaussian].__setitem__("feature", "a"),
            lambda d: d["nodes"][gaussian].__setitem__("mu", "x"),
        ]
        for i, corrupt in enumerate(cases):
            bad_doc = json.loads(json.dumps(doc))
            corrupt(bad_doc)
            bad = tmp_path / f"bad_model{i}.json"
            bad.write_text(json.dumps(bad_doc))
            assert main(["score", "--model", str(bad),
                         "--data", workspace["data"]]) == 4
            assert "Traceback" not in capsys.readouterr().err

    def test_invalid_model_file_exits_4(self, workspace, tmp_path, capsys):
        doc = json.load(open(workspace["model"]))
        doc["root"] = len(doc["nodes"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["score", "--model", str(bad), "--data", workspace["data"]]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"model error: invalid model: root id {doc['root']} "
                              "out of range")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["score", "explain"])
    def test_non_integer_version_or_id_exits_4(self, workspace, tmp_path, capsys,
                                               command):
        doc = json.load(open(workspace["model"]))
        rows = ["--rows", "0"] if command == "explain" else []
        for field, corrupt in [("version", lambda d: d.__setitem__("version", 1.0)),
                               ("id", lambda d: d["nodes"][1].__setitem__("id", True))]:
            bad_doc = json.loads(json.dumps(doc))
            corrupt(bad_doc)
            bad = tmp_path / f"bad_{field}.json"
            bad.write_text(json.dumps(bad_doc))
            assert main([command, "--model", str(bad), "--data", workspace["data"],
                         *rows]) == 4
            err = capsys.readouterr().err
            assert f"field '{field}' must be of type int" in err
            assert "Traceback" not in err

    def test_non_utf8_model_exits_4(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["score", "--model", str(bad), "--data", workspace["data"]]) == 4
        err = capsys.readouterr().err
        assert "codec can't decode" in err and "Traceback" not in err

    def test_determinism_byte_identical_artifacts(self, workspace, tmp_path):
        data2 = str(tmp_path / "again.csv")
        labels2 = str(tmp_path / "again_labels.json")
        model2 = str(tmp_path / "again_model.json")
        assert main(["gen", "--n-features", "6", "--n-samples", "500",
                     "--n-outliers", "8", "--subspace-min", "2",
                     "--subspace-max", "3", "--seed", "5",
                     "--out", data2, "--labels", labels2]) == 0
        assert main(["train", "--data", data2, "--seed", "5",
                     "--model", model2]) == 0
        assert open(data2, "rb").read() == open(workspace["data"], "rb").read()
        assert open(labels2, "rb").read() == open(workspace["labels"], "rb").read()
        assert open(model2, "rb").read() == open(workspace["model"], "rb").read()


@pytest.mark.parametrize("node,field,value,issue", [
    (3, "probs", [float("nan"), 1.0], "node 3: probability nan outside (0,1]"),
    (1, "mu", 10**400, "node 1: mu inf not finite"),
    (2, "weights", [10**400, 0.5], "node 2: weight inf outside (0,1]"),
], ids=["nan-probability", "huge-mu", "huge-weight"])
def test_model_number_its_field_does_not_admit_exits_4(tmp_path, capsys, node, field,
                                                       value, issue):
    # json writes NaN as NaN and 10**400 as its 401 digits, and reads both back
    doc = to_dict(SpnModel(
        [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
         SumNode((0, 1), (0.5, 0.5)), CategoricalLeaf(1, (0.25, 0.75)),
         ProductNode((2, 3))], 4,
        [Column("a", "real"), Column("c", "categorical", ("x", "y"))]))
    doc["nodes"][node][field] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = tmp_path / "data.csv"
    data.write_text("a,c\n0.3,x\n0.5,y\n")
    assert main(["score", "--model", str(model), "--data", str(data)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("model error: invalid model: ") and issue in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A trained workspace, plus a file or directory for each way that an
    input can fail: missing, a directory, non-UTF-8, and malformed (JSON
    nested 1000 deep, or a CSV cell of 200,000 characters)."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["gen", "--n-features", "4", "--n-samples", "200", "--n-outliers", "4",
                 "--seed", "0", "--out", str(d / "data.csv"),
                 "--labels", str(d / "labels.json")]) == 0
    assert main(["train", "--data", str(d / "data.csv"), "--seed", "0",
                 "--model", str(d / "model.json")]) == 0
    (d / "dir").mkdir()
    (d / "empty.jsonl").write_text("")
    (d / "bad.bin").write_bytes(b"\xff\xfe,a\n1,2\n")
    (d / "deep.json").write_text("[" * 1000)
    header, first, *rest = (d / "data.csv").read_text().splitlines()
    cells = first.split(",")
    cells[0] = "1" * 200_000
    (d / "long.csv").write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    return d


READERS = {  # input -> (the argv that reads it from path f, its exit code on failure)
    "data": (lambda d, f: ["train", "--data", f, "--seed", "0",
                           "--model", str(d / "m.json")], 3),
    "schema": (lambda d, f: ["train", "--data", str(d / "data.csv"), "--schema", f,
                             "--seed", "0", "--model", str(d / "m.json")], 3),
    "labels": (lambda d, f: ["eval", "--explanations", str(d / "empty.jsonl"),
                             "--data", str(d / "data.csv"), "--labels", f], 3),
    "model": (lambda d, f: ["score", "--model", f, "--data", str(d / "data.csv")], 4),
    "explanations": (lambda d, f: ["eval", "--explanations", f, "--data",
                                   str(d / "data.csv"), "--labels",
                                   str(d / "labels.json")], 3),
}


@pytest.mark.parametrize("failure", ["missing", "directory", "non-utf8", "malformed"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_unreadable_or_malformed_input_exits_with_its_code(inputs, name, failure, capsys):
    argv, code = READERS[name]
    path = str(inputs / {"missing": "absent", "directory": "dir", "non-utf8": "bad.bin",
                         "malformed": "long.csv" if name == "data" else "deep.json"}[failure])
    assert main(argv(inputs, path)) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and path in captured.err


@pytest.mark.parametrize("command", ["train", "score", "explain", "bench"])
def test_csv_of_blank_lines_is_a_data_error(inputs, tmp_path, capsys, command):
    # it used to load as 2 rows of 0 columns, and `train` exited 2 with the
    # usage error "dataset has no columns"
    blank = tmp_path / "blank.csv"
    blank.write_text("\n\n\n")
    model = str(inputs / "model.json")
    argv = {"train": ["--data", str(blank), "--seed", "0", "--model", str(tmp_path / "m.json")],
            "score": ["--model", model, "--data", str(blank)],
            "explain": ["--model", model, "--data", str(blank), "--rows", "0"],
            "bench": ["--data", str(blank), "--labels", str(inputs / "labels.json"),
                      "--seed", "0"]}[command]
    assert main([command, *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {blank}:1: blank header row, expected column names\n"
    assert not (tmp_path / "m.json").exists()


def test_bad_row_of_a_later_block_writes_no_explanations(inputs, tmp_path, monkeypatch,
                                                          capsys):
    # a CSV cannot hold a bad cell, so the loaded table gets one: the second
    # of three blocks of two rows holds it, and the run writes no file
    load = cli.load_csv

    def loading(path, schema=None):
        dataset = load(path, schema)
        dataset.values[3, 2] = np.inf
        return dataset

    explain_module = sys.modules["spnexplain.explain"]
    config = spnexplain.ExplainConfig()
    monkeypatch.setattr(cli, "load_csv", loading)
    monkeypatch.setattr(explain_module, "BLOCK_BYTES", 2 * explain_module._row_bytes(
        load_model(str(inputs / "model.json")), config))
    out = tmp_path / "expl.jsonl"
    assert main(["explain", "--model", str(inputs / "model.json"), "--data",
                 str(inputs / "data.csv"), "--rows", "0,1,2,3,4,5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: sample value inf of feature 2 "
                                       "(column 'f2') is not finite\n")
    assert not out.exists()


# Each fault of a feature set (of the 4 features of `inputs`) or of a row (of
# its 200 rows), with the words that follow "<what> <value>" in its error.
FEATURE_FAULTS = {"empty": ([], " is empty"),
                  "bool": ([0, True], ": feature True is not an integer"),
                  "float": ([1.5], ": feature 1.5 is not an integer"),
                  "out-of-range": ([0, 4], ": feature 4 outside 0..3"),
                  "repeated": ([2, 0, 2], " repeats feature 2")}
ROW_FAULTS = {"bool": (True, " is not an integer"), "float": (1.5, " is not an integer"),
              "out-of-range": (200, " outside 0..199")}


def _library_door(call):
    """The text of the ValueError that `call()` raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return "ValueError", str(exc.value)


def _cli_door(argv, capsys):
    """The exit code of the CLI on argv and its one-line data error."""
    code, err = main(argv), capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    return code, err.removeprefix("data error: ").removesuffix("\n")


def _model_and_table(d):
    model = load_model(str(d / "model.json"))
    return model, spnexplain.load_csv(str(d / "data.csv"), model.schema).values


def _subspace_score_stats(d, capsys, value):
    model, X = _model_and_table(d)
    return "subspace", _library_door(
        lambda: subspace_score_stats(spnexplain.TableMarginals(model, X), value))


def _explain_rows(d, capsys, value):
    model, X = _model_and_table(d)
    return "row", _library_door(
        lambda: spnexplain.explain_rows(model, X, [value], spnexplain.ExplainConfig()))


def _labels(field):
    """The labels sidecar as `eval` reads it: one outlier whose `field` is
    the value and whose other field is valid."""
    def door(d, capsys, value):
        path = d / "bad-labels.json"
        path.write_text(json.dumps({"outliers": [{"row": 0, "subspace": [0, 1],
                                                  field: value}]}))
        return f"labels {path}: outliers[0] {field}", _cli_door(
            ["eval", "--explanations", str(d / "empty.jsonl"), "--data",
             str(d / "data.csv"), "--labels", str(path)], capsys)
    return door


def _eval_selected(d, capsys, value):
    row = json.loads((d / "labels.json").read_text())["outliers"][0]["row"]
    path = d / "bad.jsonl"
    path.write_text(json.dumps({"row": row, "selected": value}) + "\n")
    return f"{path}: record 1 selected", _cli_door(
        ["eval", "--explanations", str(path), "--data", str(d / "data.csv"),
         "--labels", str(d / "labels.json")], capsys)


def _explain_rows_flag(d, capsys, value):
    return "row", _cli_door(["explain", "--model", str(d / "model.json"), "--data",
                             str(d / "data.csv"), "--rows", str(value)], capsys)


# door -> (its faults, a function of (inputs, capsys, value) that gives the
# name the door gives the value and the (exception or exit code, message))
INDEX_DOORS = {
    "subspace_score_stats": (FEATURE_FAULTS, _subspace_score_stats),
    "labels subspace": (FEATURE_FAULTS, _labels("subspace")),
    "eval selected": (FEATURE_FAULTS, _eval_selected),
    "explain_rows": (ROW_FAULTS, _explain_rows),
    "labels row": (ROW_FAULTS, _labels("row")),
    # its text parse rejects a bool or a float first (exit 2, test_bad_rows_exit_2)
    "explain --rows": ({"out-of-range": ROW_FAULTS["out-of-range"]}, _explain_rows_flag),
}


@pytest.mark.parametrize("door,fault", [(door, fault) for door, (faults, _) in
                                        INDEX_DOORS.items() for fault in faults])
def test_every_door_words_an_index_fault_alike(inputs, capsys, door, fault):
    faults, run = INDEX_DOORS[door]
    value, words = faults[fault]
    what, (outcome, message) = run(inputs, capsys, value)
    assert outcome == ("ValueError" if door in ("subspace_score_stats", "explain_rows")
                       else 3)
    assert message == f"{what} {value}{words}"


ZSCORE = spnexplain.ExplainConfig(selection="zscore")
ONES = np.ones(4, dtype=bool)
SAMPLE_DOORS = {  # the three doors of a searched sample, as a call on (model, x)
    "explain": lambda m, x: spnexplain.explain(m, x, spnexplain.ExplainConfig()),
    "backward_elimination": spnexplain.backward_elimination,
    "forward_beam_search": lambda m, x: spnexplain.forward_beam_search(m, x, 4, 1)}


def _explain_table(m, X):
    return spnexplain.explain_rows(m, X, [0] if len(X) else [], ZSCORE)


def _learn(m, X):
    return spnexplain.learn_spn(spnexplain.Dataset(m.schema, X), spnexplain.LearnConfig())


def _detect(m, X):
    return spnexplain.detect(m, spnexplain.Dataset(m.schema[:X.shape[1]], X), 0.1)


# door -> {fault: (a call on the model and the 200 x 4 table of `inputs`, the
# exception it raises, its message)}
SHAPE_DOORS = {
    **{door: {"width": (lambda m, X, f=f: f(m, X[0, :3]), ValueError,
                        "sample has shape (3,), expected (4,)"),
              "dimensions": (lambda m, X, f=f: f(m, X[:1]), ValueError,
                             "sample has shape (1, 4), expected (4,)")}
       for door, f in SAMPLE_DOORS.items()},
    **{door: {"width": (lambda m, X, f=f: f(m, X[:, :3]), ValueError,
                        "table has shape (200, 3), expected (rows, 4)"),
              "dimensions": (lambda m, X, f=f: f(m, X[0]), ValueError,
                             "table has shape (4,), expected (rows, 4)"),
              "no rows": (lambda m, X, f=f: f(m, X[:0]), ValueError, "table has no rows")}
       for door, f in (("explain_rows", _explain_table),
                       ("TableMarginals", spnexplain.TableMarginals))},
    "eval_log_density": {
        "width": (lambda m, X: eval_log_density(m, X[:, :3]), ValueError,
                  "query has shape (200, 3), expected (4,) or (rows, 4)"),
        "dimensions": (lambda m, X: eval_log_density(m, X[None]), ValueError,
                       "query has shape (1, 200, 4), expected (4,) or (rows, 4)")},
    "log_marginal": {
        "dimensions": (lambda m, X: spnexplain.log_marginal(m, X[None], ONES), ValueError,
                       "query has shape (1, 200, 4), expected (rows, 4)"),
        "mask dtype": (lambda m, X: spnexplain.log_marginal(m, X, ONES.astype(np.int64)),
                       ValueError, "keep must be a boolean mask, got dtype int64")},
    "Dataset": {
        "width": (lambda m, X: spnexplain.Dataset(m.schema, X[:, :3]), data.DataError,
                  "dataset has shape (200, 3), expected (rows, 4)"),
        "dimensions": (lambda m, X: spnexplain.Dataset(m.schema, X[0]), data.DataError,
                       "dataset has shape (4,), expected (rows, 4)")},
    "learn_spn": {"no rows": (lambda m, X: _learn(m, X[:0]), ValueError,
                              "dataset has no rows")},
    "detect": {
        # a dataset of the model's first 3 columns
        "width": (lambda m, X: _detect(m, X[:, :3]), ValueError,
                  "dataset has shape (200, 3), expected (rows, 4)"),
        "no rows": (lambda m, X: _detect(m, X[:0]), ValueError, "dataset has no rows")},
}


@pytest.mark.parametrize("door,fault", [(door, fault) for door, faults in
                                        SHAPE_DOORS.items() for fault in faults])
def test_every_door_words_a_shape_fault_alike(inputs, door, fault):
    call, error, message = SHAPE_DOORS[door][fault]
    model, X = _model_and_table(inputs)
    with pytest.raises(Exception) as exc:
        call(model, X)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.fixture(scope="module")
def six_features(tmp_path_factory):
    """The CSV lines of `gen --n-features 6 --seed 0` and the model trained on them."""
    d = tmp_path_factory.mktemp("six")
    data, model = str(d / "data.csv"), str(d / "model.json")
    assert main(["gen", "--n-features", "6", "--seed", "0", "--out", data,
                 "--labels", str(d / "labels.json")]) == 0
    assert main(["train", "--data", data, "--seed", "0", "--model", model]) == 0
    return open(data).read().splitlines(), model


def _with_cells(lines, path, cells):
    """Write the CSV `lines` to path with cells {(row, column): text} replaced."""
    rows = [line.split(",") for line in lines]
    for (r, j), text in cells.items():
        rows[r + 1][j] = text
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zscore_with_no_defined_z_selects_smallest_size(six_features, tmp_path, capsys):
    # f2 = 1e300 makes row 5's log-density -inf in every subspace that holds
    # f2, so each reference mean is inf and every z-score NaN
    lines, model = six_features
    data = _with_cells(lines, tmp_path / "big.csv", {(5, 2): "1e300"})
    out = tmp_path / "z.jsonl"
    for strategy in ("backward", "forward"):
        assert main(["explain", "--model", model, "--data", data, "--rows", "5",
                     "--strategy", strategy, "--selection", "zscore",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["selected"] == [2]
    assert "Traceback" not in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_underflowing_log_density_is_written_as_null(six_features, tmp_path):
    # f2 = 1e300 gives row 5 a density of 0 in every subspace that holds f2,
    # and backward elimination keeps f2 in each of them
    lines, model = six_features
    data = _with_cells(lines, tmp_path / "big.csv", {(5, 2): "1e300"})
    out = tmp_path / "z.jsonl"
    assert main(["explain", "--model", model, "--data", data, "--rows", "4,5",
                 "--selection", "zscore", "--out", str(out)]) == 0
    finite, huge = [json.loads(line, parse_constant=_reject_constant)
                    for line in open(out)]
    assert all(isinstance(e["log_density"], float) for e in finite["per_size"])
    assert all(e["log_density"] is None for e in huge["per_size"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_on_overflowing_real_column_exits_3(six_features, tmp_path, capsys):
    lines, _ = six_features
    data = _with_cells(lines, tmp_path / "over.csv", {(0, 2): "1e300", (1, 2): "-1e300"})
    assert main(["train", "--data", data, "--seed", "0",
                 "--model", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert "column 'f2'" in err and "Traceback" not in err


def test_huge_cells_print_only_their_data_error(six_features, tmp_path):
    # the installed command, so that numpy warnings reach stderr as a user
    # sees them: f2 = 1e300 overflows a leaf's square and the reference std
    lines, model = six_features
    big = _with_cells(lines, tmp_path / "big.csv", {(5, 2): "1e300"})
    both = _with_cells(lines, tmp_path / "pm.csv", {(0, 2): "1e300", (1, 2): "-1e300"})
    src = os.path.dirname(os.path.dirname(spnexplain.__file__))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "spnexplain.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    for data in (big, both):
        done = run("train", "--data", data, "--seed", "0",
                   "--model", str(tmp_path / "m.json"))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "data error: column 'f2': its mean or spread overflows\n"
    for strategy in ("backward", "forward"):
        done = run("explain", "--model", model, "--data", big, "--rows", "5",
                   "--strategy", strategy, "--selection", "zscore")
        assert (done.returncode, done.stderr) == (0, "")
        record = json.loads(done.stdout)
        assert record["selected"] == [2] and record["per_size"][0]["log_density"] is None
    done = run("score", "--model", model, "--data", big, "--contamination", "0.03")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[6] == "5\tinf\t1"


def test_outputs_are_checked_before_the_work(workspace, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("the work ran before its output path was checked")

    monkeypatch.setattr(cli, "learn_spn", never)
    monkeypatch.setattr(cli, "explain_rows", never)
    monkeypatch.setattr(metrics, "run_benchmark", never)
    ws, out_dir = workspace, str(tmp_path)
    bench = ["bench", "--data", ws["data"], "--labels", ws["labels"], "--seed", "0"]
    for argv in (["train", "--data", ws["data"], "--seed", "0", "--model", out_dir],
                 ["explain", "--model", ws["model"], "--data", ws["data"], "--rows", "0",
                  "--out", out_dir],
                 bench + ["--explanations", out_dir],
                 bench + ["--summary", out_dir]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_every_output_but_the_csv_goes_through_write_text(tmp_path, monkeypatch, capsys):
    written = []

    def recording(path, chunks):
        written.append(os.path.basename(path))
        data.write_text(path, chunks)

    for module in (cli, datagen, metrics, model):
        monkeypatch.setattr(module, "write_text", recording, raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n-features", "5", "--n-samples", "200", "--n-outliers", "4",
                 "--seed", "0", "--out", "data.csv", "--labels", "labels.json"]) == 0
    assert main(["train", "--data", "data.csv", "--seed", "0", "--model", "model.json"]) == 0
    assert main(["score", "--model", "model.json", "--data", "data.csv",
                 "--out", "scores.tsv"]) == 0
    assert main(["explain", "--model", "model.json", "--data", "data.csv", "--rows", "0,3",
                 "--out", "expl.jsonl"]) == 0
    assert main(["bench", "--data", "data.csv", "--labels", "labels.json", "--seed", "0",
                 "--explanations", "bench.jsonl", "--summary", "summary.tsv"]) == 0
    capsys.readouterr()
    made = sorted(os.listdir(tmp_path))
    assert made == ["bench.jsonl", "data.csv", "expl.jsonl", "labels.json", "model.json",
                    "scores.tsv", "summary.tsv"]
    assert sorted(written) == [name for name in made if name != "data.csv"]
    assert all(os.path.getsize(name) for name in made)


@pytest.fixture
def overflowing(tmp_path):
    """A 300-row CSV whose column a holds values near +-1e300, so that
    learning fails with a data error, and a labels file for it."""
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 1.7, 300) * 1e300 * np.where(np.arange(300) % 2, 1, -1)
    data, labels = tmp_path / "over.csv", tmp_path / "labels.json"
    data.write_text("a,b\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                      for x, y in zip(a, rng.normal(size=300))))
    labels.write_text(json.dumps({"outliers": [{"row": 0, "subspace": [0]}]}))
    return str(data), str(labels)


def test_train_that_fails_leaves_no_model_file(overflowing, tmp_path, capsys):
    data, _ = overflowing
    model = tmp_path / "m.json"
    assert main(["train", "--data", data, "--seed", "0", "--model", str(model)]) == 3
    assert capsys.readouterr().err == ("data error: column 'a': its mean or spread "
                                       "overflows\n")
    assert not model.exists()
    model.write_bytes(b"kept")  # a file that existed before keeps its bytes
    assert main(["train", "--data", data, "--seed", "0", "--model", str(model)]) == 3
    assert model.read_bytes() == b"kept"


def test_bench_that_fails_leaves_no_output_file(overflowing, tmp_path, capsys):
    data, labels = overflowing
    expl, summary = tmp_path / "e.jsonl", tmp_path / "s.tsv"
    summary.write_bytes(b"kept")
    assert main(["bench", "--data", data, "--labels", labels, "--seed", "0",
                 "--explanations", str(expl), "--summary", str(summary)]) == 3
    assert "its mean or spread overflows" in capsys.readouterr().err
    assert not expl.exists() and summary.read_bytes() == b"kept"


def test_gen_checks_both_outputs_before_writing(tmp_path, capsys):
    out, labels = tmp_path / "d.csv", tmp_path / "missing" / "l.json"
    assert main(["gen", "--n-features", "4", "--seed", "0", "--out", str(out),
                 "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", ["3e307", "1e308"])
def test_gen_with_inliers_wider_than_a_float_exits_2(tmp_path, capsys, sigma):
    # the outlier candidates are drawn in the inliers' bounding box, whose
    # width passes the largest float: numpy's uniform draw used to raise
    # OverflowError, after an overflow warning
    out, labels = tmp_path / "d.csv", tmp_path / "l.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen", "--n-features", "4", "--seed", "0", "--noise-sigma", sigma,
                     "--out", str(out), "--labels", str(labels)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(re.escape(f"error: noise_sigma {float(sigma)} spreads the inliers")
                        + r" of features \[\d+, \d+\] wider than a float\n", captured.err)
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_score_checks_its_output_before_scoring(workspace, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("the rows were scored before the output path was checked")

    monkeypatch.setattr(metrics, "detect", never)
    monkeypatch.setattr(cli, "eval_log_density", never)
    out = str(tmp_path / "missing" / "s.tsv")
    for flags in ([], ["--contamination", "0.03"]):
        assert main(["score", "--model", workspace["model"], "--data", workspace["data"],
                     "--out", out, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_invalid_flags_exit_2_before_reading_or_creating_files(workspace, tmp_path,
                                                               monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("an input was read before the flags were checked")

    monkeypatch.setattr(cli, "load_csv", never)
    monkeypatch.setattr(cli, "load_model", never)
    ws = workspace
    bench = ["bench", "--data", ws["data"], "--labels", ws["labels"], "--seed", "0"]
    for argv, name in (
            (["train", "--data", ws["data"], "--seed", "0", "--alpha", "1.5",
              "--model"], "m.json"),
            (["explain", "--model", ws["model"], "--data", ws["data"], "--rows", "0",
              "--beam-width", "0", "--out"], "e.jsonl"),
            (bench + ["--beam-width", "0", "--summary"], "s.tsv"),
            (bench + ["--alpha", "0", "--explanations"], "e.jsonl")):
        path = tmp_path / name
        assert main(argv + [str(path)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.exists(), argv


class TestModelSchemaEncoding:
    """score and explain encode their CSV with the model's schema, not with
    codes re-inferred from the CSV being scored."""

    @pytest.fixture
    def rare_first(self, tmp_path):
        # the rare 'y' comes first, so training codes it 0 and the common 'x' 1
        rows = ["0.5,y"] + [f"{0.1 * (i % 7)},x" for i in range(40)] + ["0.2,y"]
        data = tmp_path / "train.csv"
        data.write_text("a,c\n" + "\n".join(rows) + "\n")
        model = str(tmp_path / "model.json")
        assert main(["train", "--data", str(data), "--seed", "0",
                     "--model", model]) == 0
        return tmp_path, model

    def test_csv_in_other_order_scores_with_model_codes(self, rare_first):
        tmp_path, model_path = rare_first
        data = tmp_path / "score.csv"
        data.write_text("a,c\n0.3,x\n0.3,y\n")
        out = str(tmp_path / "scores.tsv")
        assert main(["score", "--model", model_path, "--data", str(data),
                     "--out", out]) == 0
        scores = [float(line.split("\t")[1])
                  for line in open(out).read().splitlines()[1:]]
        model = load_model(model_path)
        assert model.schema[1].categories == ("y", "x")
        X = np.array([[0.3, 1.0], [0.3, 0.0]])
        assert scores == list(-eval_log_density(model, X))
        assert scores[0] < scores[1]  # the common category is less outlying

        expl = str(tmp_path / "expl.jsonl")
        assert main(["explain", "--model", model_path, "--data", str(data),
                     "--rows", "0,1", "--out", expl]) == 0
        for rec in map(json.loads, open(expl)):
            for e in rec["per_size"]:
                assert e["log_density"] == log_marginal_subspace(
                    model, X[rec["row"]], e["features"])

    def test_category_listed_twice_exits_3_in_a_sidecar_and_4_in_a_model_file(
            self, rare_first, capsys):
        tmp_path, model_path = rare_first
        sidecar = tmp_path / "schema.json"
        sidecar.write_text(json.dumps({"columns": [
            {"name": "a", "kind": "real"},
            {"name": "c", "kind": "categorical", "categories": ["x", "x", "y"]}]}))
        assert main(["train", "--data", str(tmp_path / "train.csv"), "--schema",
                     str(sidecar), "--seed", "0", "--model", model_path]) == 3
        assert "columns[1]: column 'c': category 'x' listed twice" in capsys.readouterr().err
        # a model file that is valid but for the repeated category
        doc = json.load(open(model_path))
        doc["schema"][1]["categories"] = ["y", "x", "x"]
        for nd in doc["nodes"]:
            if nd["type"] == "categorical":
                nd["probs"] = [nd["probs"][0], nd["probs"][1] / 2, nd["probs"][1] / 2]
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(doc))
        assert main(["score", "--model", str(bad), "--data", str(tmp_path / "train.csv")]) == 4
        err = capsys.readouterr().err
        assert err == ("model error: schema[1]: column 'c': category 'x' listed twice\n")

    def test_unseen_category_or_header_mismatch_exits_3(self, rare_first, capsys):
        tmp_path, model_path = rare_first
        for name, text in (("unseen.csv", "a,c\n0.3,x\n0.3,z\n"),
                           ("renamed.csv", "a,d\n0.3,x\n")):
            data = str(tmp_path / name)
            open(data, "w").write(text)
            assert main(["score", "--model", model_path, "--data", data]) == 3
            assert main(["explain", "--model", model_path, "--data", data,
                         "--rows", "0"]) == 3
        assert "Traceback" not in capsys.readouterr().err


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only; the runtime needs numpy alone. With
    # scipy made unimportable, the whole pipeline runs and loads no scipy
    # module, so a scipy import inside a function fails here too.
    src = os.path.dirname(os.path.dirname(spnexplain.__file__))
    code = textwrap.dedent(f"""
        import json, os, sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {src!r})
        from spnexplain.cli import main
        os.chdir({str(tmp_path)!r})
        rows = lambda: ",".join(str(o["row"])
                                for o in json.load(open("labels.json"))["outliers"])
        codes = [main(["gen", "--n-features", "6", "--n-samples", "300",
                       "--n-outliers", "5", "--seed", "0", "--out", "data.csv",
                       "--labels", "labels.json"]),
                 main(["train", "--data", "data.csv", "--seed", "0",
                       "--model", "model.json"]),
                 main(["score", "--model", "model.json", "--data", "data.csv",
                       "--contamination", "0.03"]),
                 main(["explain", "--model", "model.json", "--data", "data.csv",
                       "--rows", rows(), "--strategy", "forward",
                       "--selection", "zscore", "--out", "expl.jsonl"]),
                 main(["eval", "--explanations", "expl.jsonl", "--data", "data.csv",
                       "--labels", "labels.json"]),
                 main(["bench", "--data", "data.csv", "--labels", "labels.json",
                       "--seed", "0", "--summary", "summary.tsv"])]
        loaded = sorted(m for m, v in sys.modules.items()
                        if m.startswith("scipy") and v is not None)
        print(json.dumps([codes, loaded]), file=sys.stderr)
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stderr.strip().splitlines()[-1]) == [[0] * 6, []]
