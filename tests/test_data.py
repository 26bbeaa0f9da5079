import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_load_csv, reference_save_csv
import spnexplain
from spnexplain.data import (Column, Dataset, format_float, load_csv,
                             load_schema, save_csv)
from spnexplain.datagen import GenConfig, generate
from spnexplain.errors import DataError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadCsv:
    def test_infers_real_and_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,color\n1.5,red\n2,blue\n-0.5,red\n")
        ds = load_csv(path)
        assert [c.kind for c in ds.schema] == ["real", "categorical"]
        assert ds.schema[1].categories == ("red", "blue")  # first-appearance order
        assert ds.values[:, 0].tolist() == [1.5, 2.0, -0.5]
        assert ds.values[:, 1].tolist() == [0.0, 1.0, 0.0]

    def test_one_csv_reader_per_call(self, tmp_path, monkeypatch):
        # a faulty file is tokenized once too: its line numbers come from
        # the same pass that read its records
        readers = []
        real_reader = csv.reader

        def counting_reader(*args, **kwargs):
            readers.append(1)
            return real_reader(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counting_reader)
        cat = [Column("a", "categorical", ("x",)), Column("b", "real")]
        cases = [("ok.csv", "a,b\nx,1\n", None, None),
                 ("ragged.csv", "a,b\nx,1\nx\n", None, "ragged row"),
                 ("empty.csv", "a,b\nx,1\nx,\n", None, "missing value"),
                 ("real.csv", "a,b\nx,1\nx,oops\n", cat, "declared real"),
                 ("cat.csv", "a,b\nx,1\ny,2\n", cat, "not among declared")]
        for name, text, schema, fault in cases:
            readers.clear()
            path = write(tmp_path, name, text)
            if fault is None:
                load_csv(path, schema)
            else:
                with pytest.raises(DataError, match=rf"{name}:3: .*{fault}"):
                    load_csv(path, schema)
            assert len(readers) == 1, name

    def test_nan_and_inf_strings_force_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x\n1.0\nnan\ninf\n")
        ds = load_csv(path)
        assert ds.schema[0].kind == "categorical"

    def test_missing_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,\n")
        with pytest.raises(DataError, match=r"d\.csv:3: missing value in column 'b'"):
            load_csv(path)

    def test_faults_after_a_multi_line_cell_report_the_record_line(self, tmp_path):
        # the quoted cell spans lines 2-3, so the record after it is on line 4
        path = write(tmp_path, "ql.csv", 'a,b\n"x\ny",1\nz,\n')
        with pytest.raises(DataError, match=r"ql\.csv:4: missing value in column 'b'"):
            load_csv(path)
        path = write(tmp_path, "qr.csv", 'a,b\n"x\ny",1\nz,oops\n')
        with pytest.raises(DataError, match=r"qr\.csv:4: value 'z' not among declared"):
            load_csv(path, [Column("a", "categorical", ("x\ny",)),
                            Column("b", "categorical", ("1", "oops"))])
        with pytest.raises(DataError, match=r"qr\.csv:4: column 'b' declared real"):
            load_csv(path, [Column("a", "categorical", ("x\ny", "z")),
                            Column("b", "real")])

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4,5\n")
        with pytest.raises(DataError, match=r":3: ragged row"):
            load_csv(path)

    def test_empty_file_and_headers_only(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            load_csv(write(tmp_path, "e.csv", ""))
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "h.csv", "a,b\n"))

    @pytest.mark.parametrize("text", ["\n", "\n\n\n", "\r\n1,2\n", "\n\na,b\n1,2\n"])
    def test_blank_header_row_is_a_data_error(self, tmp_path, text):
        # csv.reader reads a blank line as a record of no cells: three blank
        # lines used to load as 2 rows of 0 columns
        path = write(tmp_path, "b.csv", text)
        with pytest.raises(DataError, match=re.escape(
                f"{path}:1: blank header row, expected column names")):
            load_csv(path)

    def test_over_long_field_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3," + "4" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"d\.csv:3: field larger than field limit"):
            load_csv(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,x\n")
        assert [c.name for c in load_csv(str(path)).schema] == ["a", "b"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(str(tmp_path / "absent.csv"))

    def test_python_float_syntax_reads_as_real(self, tmp_path):
        cells = ["1_0", " 1.5", "+.5", "1e5", "\uff11\uff12", "-0.0", "5e-324"]
        path = write(tmp_path, "d.csv", "x\n" + "\n".join(cells) + "\n")
        for schema in (None, [Column("x", "real")]):
            ds = load_csv(path, schema)
            assert ds.schema == [Column("x", "real")]
            assert ds.values[:, 0].tobytes() == np.array([float(c) for c in cells]).tobytes()

    @pytest.mark.parametrize("cell", ["0x10", "nan", "-Infinity", "1e400"])
    def test_non_numbers_and_non_finite_numbers(self, tmp_path, cell):
        path = write(tmp_path, "d.csv", f"x\n1\n{cell}\n2\n")
        ds = load_csv(path)
        assert ds.schema == [Column("x", "categorical", ("1", cell, "2"))]
        assert ds.values[:, 0].tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(DataError, match=rf"d\.csv:3: column 'x' declared real "
                                            rf"but cell '{cell}' is not numeric"):
            load_csv(path, [Column("x", "real")])


# cells that Python's float reads as finite numbers, ones that it reads as
# non-finite, and ones that it rejects
FINITE = ["0", "1", "-2.5", "1_0", " 1.5", "+.5", "1e5", "\uff11\uff12", "-0.0",
          "5e-324", "1.7976931348623157e308", "1e-400"]
NON_FINITE = ["nan", "-Infinity", "inf", "1e400"]
NON_NUMBER = ["0x10", "1__0", "1.5.", "red", "blue", "a,b", 'say "hi"', "x\ny",
              "x\r\ny", "\r", " "]


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


@st.composite
def _table_texts(draw):
    """A table written by csv.writer, possibly with one ragged row or empty cell."""
    width = draw(st.integers(1, 4))
    pools = [draw(st.sampled_from([FINITE, FINITE + NON_FINITE,
                                   FINITE + NON_FINITE + NON_NUMBER]))
             for _ in range(width)]
    n_rows = draw(st.integers(0, 6))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n_rows)]
    fault = draw(st.sampled_from([None, None, None, "empty", "short", "long"]))
    if fault and rows:
        row = rows[draw(st.integers(0, n_rows - 1))]
        if fault == "empty":
            row[draw(st.integers(0, width - 1))] = ""
        elif fault == "short":
            row.pop()
        else:
            row.append("1")
    header = draw(st.lists(st.sampled_from(["a", "b", "x,y", 'q"', "n\nl"]),
                           min_size=width, max_size=width))
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                                            csv.QUOTE_ALL])),
                        lineterminator=draw(st.sampled_from(["\r\n", "\n", "\r"])))
    writer.writerows([header] + rows)
    text = out.getvalue()
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def _csv_cases(draw):
    """A CSV text and a schema for it (or None) that may or may not fit it."""
    if draw(st.integers(0, 4)):
        text = draw(_table_texts())
    else:
        text = draw(st.text(st.sampled_from(list('ab1.,"\r\n ')), max_size=30))
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error:
        records = []
    if not records or draw(st.booleans()):
        return text, None
    header = list(records[0])
    schema = []
    for j, name in enumerate(header):
        cells = {r[j] for r in records[1:] if j < len(r)}
        # mostly the kind that inference would give, so that some tables load
        if draw(st.integers(0, 3)) < (3 if all(map(_is_number, cells)) else 1):
            schema.append(Column(name, "real"))
            continue
        seen = sorted(cells | {"spare"})
        categories = draw(st.permutations(seen))
        keep = draw(st.integers(1, len(categories)))  # a dropped one is unknown
        schema.append(Column(name, "categorical", tuple(categories[:keep])))
    mismatch = draw(st.sampled_from([None, None, None, "rename", "extra"]))
    if mismatch == "rename" and schema:
        schema[0] = Column(schema[0].name + "?", schema[0].kind, schema[0].categories)
    elif mismatch == "extra":
        schema.append(Column("extra", "real"))
    return text, schema


def _outcome(load, path, schema):
    try:
        ds = load(path, schema)
    except DataError as exc:
        return str(exc)
    return ds.schema, ds.values.shape, ds.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=_csv_cases())
def test_columnar_decode_equals_row_by_row_reference(tmp_path_factory, case):
    """Same schema, bit-identical values, or the same DataError message."""
    text, schema = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(load_csv, str(path), schema) == _outcome(reference_load_csv,
                                                             str(path), schema)


class TestSchemaSidecar:
    def test_declared_schema_overrides_inference(self, tmp_path):
        csv_path = write(tmp_path, "d.csv", "x\n1\n2\n")
        ds = load_csv(csv_path, [Column("x", "categorical", ("1", "2"))])
        assert ds.schema[0].kind == "categorical"
        assert ds.values[:, 0].tolist() == [0.0, 1.0]

    def test_header_mismatch(self, tmp_path):
        csv_path = write(tmp_path, "d.csv", "y\n1\n")
        with pytest.raises(DataError, match="does not match schema"):
            load_csv(csv_path, [Column("x", "real")])

    def test_non_numeric_cell_in_declared_real_column(self, tmp_path):
        csv_path = write(tmp_path, "d.csv", "x\n1\noops\n")
        with pytest.raises(DataError, match=r":3: column 'x' declared real"):
            load_csv(csv_path, [Column("x", "real")])

    def test_undeclared_category(self, tmp_path):
        csv_path = write(tmp_path, "d.csv", "c\nred\ngreen\n")
        with pytest.raises(DataError, match=r":3: value 'green' not among declared"):
            load_csv(csv_path, [Column("c", "categorical", ("red", "blue"))])

    def test_schema_round_trip(self, tmp_path):
        schema = [Column("x", "real"), Column("c", "categorical", ("a", "b"))]
        path = write(tmp_path, "schema.json", json.dumps({"columns": [
            {"name": "x", "kind": "real"},
            {"name": "c", "kind": "categorical", "categories": ["a", "b"]}]}))
        assert load_schema(path) == schema

    def test_byte_order_mark_sidecar_loads(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(b'\xef\xbb\xbf{"columns": [{"name": "x", "kind": "real"}]}')
        assert load_schema(str(path)) == [Column("x", "real")]

    def test_invalid_schema_json(self, tmp_path):
        with pytest.raises(DataError, match="not valid JSON"):
            load_schema(write(tmp_path, "schema.json", "{broken"))


class TestRoundTrip:
    def test_csv_round_trip_preserves_values_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset([Column("x", "real"), Column("c", "categorical", ("u", "v"))],
                     np.column_stack([rng.normal(size=50),
                                      rng.integers(2, size=50).astype(float)]))
        path = str(tmp_path / "out.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert back.schema[0].kind == "real"
        assert np.array_equal(back.values, ds.values)  # .17g round-trips float64

    def test_format_float_is_repr_exact(self):
        for v in (1 / 3, 1e-300, 123456.789, -0.1):
            assert float(format_float(v)) == v


class TestSaveCsv:
    @staticmethod
    def _mixed():
        rng = np.random.default_rng(3)
        names = ("L0", "L1", "L2")
        return Dataset([Column("g0", "real"), Column("c0", "categorical", names),
                        Column("g1", "real"), Column("c1", "categorical", names[:2])],
                       np.column_stack([rng.normal(size=40), rng.integers(3, size=40),
                                        rng.normal(scale=1e6, size=40),
                                        rng.integers(2, size=40)]))

    @staticmethod
    def _edges():
        reals = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1, 1 / 3]
        names = ("a,b", 'say "hi"', "new\nline", "cr\rlf", "plain")
        return Dataset([Column("x", "real"), Column("c,\"\n", "categorical", names)],
                       np.column_stack([reals, np.arange(len(reals)) % len(names)]))

    @pytest.mark.parametrize("table", ["planted", "mixed", "edges", "no columns"])
    def test_bytes_equal_row_by_row_writer(self, tmp_path, table):
        dataset = {"planted": lambda: generate(GenConfig(n_features=8, seed=0)).dataset,
                   "mixed": self._mixed, "edges": self._edges,
                   "no columns": lambda: Dataset([], np.zeros((3, 0)))}[table]()
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        save_csv(dataset, str(ours))
        reference_save_csv(dataset, str(ref))
        assert ours.read_bytes() == ref.read_bytes()

    def test_edge_values_round_trip_bit_exact(self, tmp_path):
        dataset = self._edges()
        path = str(tmp_path / "edges.csv")
        save_csv(dataset, path)
        back = load_csv(path, dataset.schema)
        assert back.values.tobytes() == dataset.values.tobytes()

    def test_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode or locale coercion: open() would
        # pick ASCII, which cannot encode these names (escaped, so that the
        # script's own text is ASCII)
        script = textwrap.dedent(r"""
            import locale, sys
            import numpy as np
            from spnexplain.data import Column, Dataset, load_csv, save_csv
            assert locale.getpreferredencoding(False).lower() != "utf-8"
            schema = [Column("caf\u00e9", "categorical", ("na\u00efve", "plain")),
                      Column("\u00fc", "real")]
            dataset = Dataset(schema, np.array([[0.0, 1.5], [1.0, -2.0], [0.0, 0.25]]))
            save_csv(dataset, sys.argv[1])
            back = load_csv(sys.argv[1])
            assert back.schema == schema, back.schema
            assert back.values.tolist() == dataset.values.tolist()
        """)
        path = tmp_path / "utf8.csv"
        src = os.path.dirname(os.path.dirname(spnexplain.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert path.read_bytes() == "café,ü\r\nnaïve,1.5\r\nplain,-2\r\nnaïve,0.25\r\n".encode()


class TestWriteText:
    def test_keeps_line_ends_and_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode or locale coercion, as above; the
        # chunks come from a generator, so they are written as they come
        script = textwrap.dedent(r"""
            import locale, sys
            from spnexplain.data import write_text
            assert locale.getpreferredencoding(False).lower() != "utf-8"
            write_text(sys.argv[1], (chunk for chunk in
                                     ["row\r\n", "caf\u00e9\n", "\r", "na\u00efve"]))
        """)
        path = tmp_path / "out.txt"
        src = os.path.dirname(os.path.dirname(spnexplain.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert path.read_bytes() == "row\r\ncafé\n\rnaïve".encode()

    def test_only_data_opens_a_file_for_writing(self):
        # every output file goes through `write_text`, and the CSV through
        # `save_csv` beside it; a module that opened its own file for
        # writing would state the output policy a second time
        package = os.path.dirname(spnexplain.__file__)
        writers = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            tree = ast.parse(open(os.path.join(package, name), encoding="utf-8").read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"),
                        ast.Constant("r"))
                    if not (isinstance(mode, ast.Constant) and "w" not in mode.value):
                        writers.append((name, node.lineno))
        assert [name for name, _ in writers] == ["data.py", "data.py"], writers


class TestColumnAndDataset:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown kind"):
            Column("x", "integer")

    def test_categorical_needs_categories(self):
        with pytest.raises(DataError, match="needs categories"):
            Column("x", "categorical")

    def test_category_listed_twice_rejected(self):
        with pytest.raises(DataError, match="column 'c': category 'x' listed twice"):
            Column("c", "categorical", ("x", "y", "x"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            Dataset([Column("x", "real")], np.zeros((3, 2)))
