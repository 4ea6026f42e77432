"""Tests for repro.frame CSV/JSONL round trips."""

import pytest

from repro.errors import FrameError
from repro.frame import Table, read_csv, read_jsonl, write_csv, write_jsonl


@pytest.fixture
def table():
    return Table(
        {
            "job_id": [1, 2, 3],
            "user": ["a", "b", "c"],
            "runtime": [10.5, 20.0, 0.25],
            "flag": [True, False, True],
        }
    )


class TestCsv:
    def test_roundtrip_values(self, table, tmp_path):
        path = write_csv(table, tmp_path / "t.csv")
        again = read_csv(path)
        assert again.num_rows == 3
        assert list(again["job_id"]) == [1, 2, 3]
        assert list(again["runtime"]) == [10.5, 20.0, 0.25]
        assert list(again["user"]) == ["a", "b", "c"]

    def test_roundtrip_booleans(self, table, tmp_path):
        again = read_csv(write_csv(table, tmp_path / "t.csv"))
        assert list(again["flag"]) == [True, False, True]

    def test_none_roundtrips_as_none(self, tmp_path):
        t = Table({"x": [1, None, 3]})
        again = read_csv(write_csv(t, tmp_path / "t.csv"))
        assert list(again["x"]) == [1, None, 3]

    def test_creates_parent_dirs(self, table, tmp_path):
        path = write_csv(table, tmp_path / "deep" / "nested" / "t.csv")
        assert path.exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FrameError, match="empty"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(FrameError, match="cells"):
            read_csv(path)

    def test_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(FrameError, match="repeats a column name"):
            read_csv(path)

    def test_int_float_string_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,1.5,xyz\n")
        t = read_csv(path)
        assert t.row(0) == {"a": 1, "b": 1.5, "c": "xyz"}


class TestJsonl:
    def test_roundtrip(self, table, tmp_path):
        again = read_jsonl(write_jsonl(table, tmp_path / "t.jsonl"))
        assert again.num_rows == 3
        assert again.row(1) == table.row(1)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        t = read_jsonl(path)
        assert t.num_rows == 2

    def test_union_of_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        t = read_jsonl(path)
        assert t.row(0) == {"a": 1, "b": None}
