"""Unit tests for CSV ingestion and export."""

import numpy as np
import pytest

from repro.engine.csv_io import load_csv, save_csv
from repro.engine.table import Table
from repro.engine.types import INT_NULL, SchemaError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_type_inference(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,1.5,x\n2,2.5,y\n")
        table = load_csv(path)
        assert table.name == "data"
        assert table["a"].dtype == np.int64
        assert table["b"].dtype == np.float64
        assert table["c"].dtype.kind == "S"
        assert list(table["c"]) == [b"x", b"y"]

    def test_empty_fields_become_null(self, tmp_path):
        path = write(tmp_path, "a,s\n1,x\n,\n")
        table = load_csv(path)
        assert table["a"][1] == INT_NULL
        assert table["s"][1] == b""

    def test_mixed_int_float_promotes(self, tmp_path):
        path = write(tmp_path, "v\n1\n2.5\n")
        table = load_csv(path)
        assert table["v"].dtype == np.float64

    def test_max_rows(self, tmp_path):
        path = write(tmp_path, "a\n1\n2\n3\n")
        assert load_csv(path, max_rows=2).num_rows == 2

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_csv(path)

    def test_custom_name_and_delimiter(self, tmp_path):
        path = write(tmp_path, "a;b\n1;2\n")
        table = load_csv(path, name="t", delimiter=";")
        assert table.name == "t" and table.num_rows == 1


class TestRoundTrip:
    def test_save_and_reload(self, tmp_path):
        table = Table("t", {"x": [1, 2], "s": ["aa", "bb"]})
        path = tmp_path / "out.csv"
        save_csv(table, path)
        reloaded = load_csv(path)
        assert reloaded.to_rows() == table.to_rows()

    def test_utf8_strings_and_nulls_round_trip(self, tmp_path):
        table = Table("t", {"x": [1, 2, 3], "s": ["é", None, "日本"]})
        path = tmp_path / "out.csv"
        save_csv(table, path)
        assert path.read_bytes() == "x,s\r\n1,é\r\n2,\r\n3,日本\r\n".encode()
        reloaded = load_csv(path)
        assert reloaded["s"].dtype.kind == "S"
        assert reloaded["s"].tolist() == table["s"].tolist()
