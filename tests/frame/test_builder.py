"""Unit tests for :class:`repro.frame.TableBuilder`."""

import pytest

from repro.errors import LengthMismatchError
from repro.frame import Table, TableBuilder


class TestAppendRow:
    def test_matches_from_rows_on_ragged_dicts(self):
        rows = [
            {"a": 1, "b": "x"},
            {"b": "y", "c": 2.5},
            {"a": 3},
        ]
        builder = TableBuilder()
        for row in rows:
            builder.append_row(row)
        assert builder.finish().to_dict() == Table.from_rows(rows).to_dict()

    def test_kwargs_merge_over_mapping(self):
        builder = TableBuilder()
        builder.append_row({"a": 1, "b": 2}, b=20)
        assert builder.finish().to_dict() == {"a": [1], "b": [20]}

    def test_declared_columns_fix_order_and_survive_empty(self):
        builder = TableBuilder(columns=["x", "y"])
        assert builder.finish().column_names == ("x", "y")
        builder.append_row(y=1.0)
        table = builder.finish()
        assert table.column_names == ("x", "y")
        assert table.to_dict() == {"x": [None], "y": [1.0]}

    def test_new_column_backfills_none(self):
        builder = TableBuilder()
        builder.append_row(a=1)
        builder.append_row(a=2, b="late")
        assert builder.finish().to_dict() == {"a": [1, 2], "b": [None, "late"]}


class TestFinish:
    def test_non_destructive(self):
        builder = TableBuilder()
        builder.append_row(a=1)
        first = builder.finish()
        builder.append_row(a=2)
        second = builder.finish()
        assert first.num_rows == 1
        assert second.num_rows == 2

    def test_columns_coerced_through_normal_rules(self):
        builder = TableBuilder()
        builder.append_row(num=1.5, text="a")
        table = builder.finish()
        assert table.dtypes() == {"num": "numeric", "text": "string"}


class TestAccumulator:
    def test_direct_appends_reach_finish(self):
        builder = TableBuilder(columns=["a", "b"])
        a, b = builder.accumulator("a"), builder.accumulator("b")
        for i in range(4):
            a.append(i)
            b.append(str(i))
        table = builder.finish()
        assert list(table["a"]) == [0, 1, 2, 3]

    def test_ragged_accumulators_fail_at_finish(self):
        builder = TableBuilder()
        builder.accumulator("a").extend([1, 2])
        builder.accumulator("b").append(1)
        with pytest.raises(LengthMismatchError):
            builder.finish()
