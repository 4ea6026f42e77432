"""Tests for repro.frame.Table."""

import numpy as np
import pytest

from repro.errors import ColumnMissingError, FrameError, LengthMismatchError
from repro.frame import Table, concat_tables


@pytest.fixture
def table():
    return Table(
        {
            "user": ["a", "b", "a", "c"],
            "runtime": [10.0, 20.0, 30.0, 40.0],
            "gpus": [1, 2, 1, 4],
        }
    )


class TestConstruction:
    def test_basic_shape(self, table):
        assert table.num_rows == 4
        assert table.num_columns == 3
        assert table.column_names == ("user", "runtime", "gpus")

    def test_empty_table(self):
        t = Table()
        assert t.num_rows == 0
        assert t.num_columns == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            Table({"a": [1, 2], "b": [1]})

    def test_from_rows_union_of_keys(self):
        t = Table.from_rows([{"a": 1}, {"b": 2}])
        assert t.column_names == ("a", "b")
        assert t.row(0) == {"a": 1, "b": None}

    def test_from_rows_explicit_columns(self):
        t = Table.from_rows([{"a": 1, "b": 2}], columns=["b"])
        assert t.column_names == ("b",)

    def test_empty_factory(self):
        t = Table.empty(["x", "y"])
        assert t.num_rows == 0
        assert t.column_names == ("x", "y")


class TestAccess:
    def test_column_returns_array(self, table):
        assert list(table.column("gpus")) == [1, 2, 1, 4]

    def test_getitem(self, table):
        assert table["runtime"][1] == 20.0

    def test_missing_column_error_lists_available(self, table):
        with pytest.raises(ColumnMissingError, match="user"):
            table.column("nope")

    def test_row_unwraps_numpy_scalars(self, table):
        row = table.row(0)
        assert isinstance(row["gpus"], int)
        assert row == {"user": "a", "runtime": 10.0, "gpus": 1}

    def test_row_negative_index(self, table):
        assert table.row(-1)["user"] == "c"

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(4)

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 4
        assert rows[3]["gpus"] == 4

    def test_contains(self, table):
        assert "user" in table
        assert "nope" not in table

    def test_to_dict_roundtrip(self, table):
        d = table.to_dict()
        again = Table(d)
        assert again.row(2) == table.row(2)

    def test_dtypes(self, table):
        assert table.dtypes() == {"user": "string", "runtime": "numeric", "gpus": "numeric"}


class TestTransforms:
    def test_select_preserves_order(self, table):
        t = table.select(["gpus", "user"])
        assert t.column_names == ("gpus", "user")

    def test_drop(self, table):
        t = table.drop(["user"])
        assert "user" not in t

    def test_drop_missing_raises(self, table):
        with pytest.raises(ColumnMissingError):
            table.drop(["nope"])

    def test_rename(self, table):
        t = table.rename({"runtime": "run_time_s"})
        assert "run_time_s" in t
        assert "runtime" not in t

    def test_rename_missing_raises(self, table):
        with pytest.raises(ColumnMissingError):
            table.rename({"nope": "x"})

    def test_with_column_adds(self, table):
        t = table.with_column("hours", [1.0, 2.0, 3.0, 4.0])
        assert t.num_columns == 4
        assert table.num_columns == 3  # original untouched

    def test_with_column_replaces(self, table):
        t = table.with_column("gpus", [9, 9, 9, 9])
        assert list(t["gpus"]) == [9, 9, 9, 9]

    def test_with_column_length_mismatch(self, table):
        with pytest.raises(LengthMismatchError):
            table.with_column("x", [1])

    def test_with_computed(self, table):
        t = table.with_computed("gpu_hours", lambda t: t["runtime"] * t["gpus"])
        assert list(t["gpu_hours"]) == [10.0, 40.0, 30.0, 160.0]

    def test_filter_mask(self, table):
        t = table.filter(np.asarray([True, False, True, False]))
        assert t.num_rows == 2
        assert list(t["user"]) == ["a", "a"]

    def test_filter_callable(self, table):
        t = table.filter(lambda t: np.asarray(t["gpus"]) > 1)
        assert t.num_rows == 2

    def test_filter_non_boolean_rejected(self, table):
        with pytest.raises(FrameError, match="boolean"):
            table.filter(np.asarray([1, 0, 1, 0]))

    def test_filter_wrong_length_rejected(self, table):
        with pytest.raises(LengthMismatchError):
            table.filter(np.asarray([True]))

    def test_take(self, table):
        t = table.take([3, 0])
        assert list(t["user"]) == ["c", "a"]

    def test_head(self, table):
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 4

    def test_sort_by_numeric(self, table):
        t = table.sort_by("runtime", descending=True)
        assert list(t["runtime"]) == [40.0, 30.0, 20.0, 10.0]

    def test_sort_by_string(self, table):
        t = table.sort_by("user")
        assert list(t["user"]) == ["a", "a", "b", "c"]

    def test_sort_by_multiple_keys(self, table):
        t = table.sort_by("user", "runtime")
        assert list(t["runtime"])[:2] == [10.0, 30.0]

    def test_sort_requires_column(self, table):
        with pytest.raises(FrameError):
            table.sort_by()

    def test_unique(self, table):
        assert list(table.unique("user")) == ["a", "b", "c"]


class TestJoin:
    def test_inner_join(self, table):
        right = Table({"user": ["a", "b"], "group": ["g1", "g2"]})
        joined = table.join(right, on="user")
        assert joined.num_rows == 3  # c dropped
        assert set(joined["group"]) == {"g1", "g2"}

    def test_left_join_fills_none(self, table):
        right = Table({"user": ["a"], "group": ["g1"]})
        joined = table.join(right, on="user", how="left")
        assert joined.num_rows == 4
        missing = [r["group"] for r in joined.iter_rows() if r["user"] != "a"]
        assert missing == [None, None]

    def test_join_overlapping_column_suffixed(self, table):
        right = Table({"user": ["a", "b", "c"], "runtime": [0.0, 0.0, 0.0]})
        joined = table.join(right, on="user")
        assert "runtime_right" in joined

    def test_join_duplicate_right_key_rejected(self, table):
        right = Table({"user": ["a", "a"], "x": [1, 2]})
        with pytest.raises(FrameError, match="not unique"):
            table.join(right, on="user")

    def test_join_unsupported_how(self, table):
        with pytest.raises(FrameError, match="join type"):
            table.join(table, on="user", how="outer")


class TestPresentation:
    def test_describe_covers_numeric_columns(self, table):
        desc = table.describe()
        assert set(desc["column"]) == {"runtime", "gpus"}
        runtime_row = [r for r in desc.iter_rows() if r["column"] == "runtime"][0]
        assert runtime_row["mean"] == 25.0
        assert runtime_row["p50"] == 25.0

    def test_to_string_contains_header_and_rows(self, table):
        text = table.to_string()
        assert "user" in text and "runtime" in text
        assert "40" in text

    def test_to_string_truncates(self, table):
        text = table.to_string(max_rows=2)
        assert "2 more rows" in text

    def test_repr(self, table):
        assert "4 rows x 3 cols" in repr(table)


class TestConcat:
    def test_concat_stacks(self, table):
        doubled = concat_tables([table, table])
        assert doubled.num_rows == 8

    def test_concat_empty_list(self):
        assert concat_tables([]).num_rows == 0

    def test_concat_mismatched_columns_rejected(self, table):
        other = Table({"x": [1]})
        with pytest.raises(FrameError, match="differing columns"):
            concat_tables([table, other])

    def test_concat_preserves_string_columns(self, table):
        doubled = concat_tables([table, table])
        assert list(doubled["user"])[:4] == ["a", "b", "a", "c"]


class TestChunks:
    def test_non_empty_table_is_its_own_single_chunk(self, table):
        chunks = list(table.chunks())
        assert len(chunks) == 1
        assert chunks[0] is table

    def test_empty_table_yields_no_chunks(self):
        assert list(Table.empty(["user"]).chunks()) == []
        assert list(Table().chunks()) == []

    def test_fresh_pass_every_call(self, table):
        assert list(table.chunks()) == list(table.chunks())
