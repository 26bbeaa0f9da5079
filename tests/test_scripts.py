import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str, folder: str = "scripts"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_planted_benchmark_writes_one_row_per_width_and_strategy(tmp_path, capsys):
    script = load_script("run_planted_benchmark")
    out = tmp_path / "summary.tsv"
    assert script.main(["--sizes", "4", "--seeds", "1", "--n-samples", "300",
                        "--n-outliers", "5", "--out", str(out)]) == 0
    header, *rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert header[:3] == ["n_features", "strategy", "selection"]
    assert [row[:3] for row in rows] == [["4", "backward", "elbow"],
                                         ["4", "forward", "elbow"]]
    assert "wrote 2 rows" in capsys.readouterr().out


def test_every_traced_function_exists(monkeypatch):
    # the benchmark's per-layer metrics read 0 for a traced name that is gone
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = load_script("tracer", "perfbench")
    missing = [f"{module}.{name}" for module, name, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracer.TRACED and missing == []


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


# a comment line
def f(x):
    """A function docstring."""

    text = """a string that is
not a docstring"""
    return x + len(text)


class C:
    \'\'\'A class docstring,
    in single quotes.\'\'\'
    y = (1,
         2)
'''


def test_code_lines_counts_code_but_not_docstrings_comments_or_blanks(tmp_path, capsys):
    script = load_script("code_lines")
    # import, def, text (two lines), return, class, y (two lines)
    assert script.count_source(CODE_LINES_FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    assert script.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "9\n"
    # a file is counted as one module
    assert script.main([str(tmp_path / "pkg" / "a.py")]) == 0
    assert capsys.readouterr().out == "8\n"


def test_code_lines_rejects_a_missing_path(tmp_path, capsys):
    script = load_script("code_lines")
    missing = tmp_path / "gone"
    with pytest.raises(SystemExit) as exc:
        script.main([str(missing)])
    assert exc.value.code != 0
    out, err = capsys.readouterr()
    assert out == "" and f"no such file or folder: {missing}" in err
