import numpy as np
import pytest

from spnexplain.data import (Column, Dataset, format_float, load_csv,
                             load_schema, save_csv, save_schema)
from spnexplain.errors import DataError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_infers_real_and_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,color\n1.5,red\n2,blue\n-0.5,red\n")
        ds = load_csv(path)
        assert [c.kind for c in ds.schema] == ["real", "categorical"]
        assert ds.schema[1].categories == ("red", "blue")  # first-appearance order
        assert ds.values[:, 0].tolist() == [1.5, 2.0, -0.5]
        assert ds.values[:, 1].tolist() == [0.0, 1.0, 0.0]

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

    def test_over_long_field_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3," + "4" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"d\.csv:3: field larger than field limit"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(str(tmp_path / "absent.csv"))


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
        path = str(tmp_path / "schema.json")
        save_schema(schema, path)
        assert load_schema(path) == schema

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


class TestColumnAndDataset:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown kind"):
            Column("x", "integer")

    def test_categorical_needs_categories(self):
        with pytest.raises(DataError, match="needs categories"):
            Column("x", "categorical")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            Dataset([Column("x", "real")], np.zeros((3, 2)))
