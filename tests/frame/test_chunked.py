"""Unit tests for the chunked execution layer.

The exact streaming verbs (``filter``/``join``/``value_counts``/
``head``/``count``/``min``/``max``/``first``/``last``) must match the
materialized kernels bit-for-bit at any chunking; the rest of the
contract (accumulated float partials, sketch bounds) is pinned by the
property suite and docs/performance.md.
"""

import json
import struct
import warnings
import zipfile

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frame import (
    ChunkedTable,
    QuantileSketch,
    StreamingMoments,
    Table,
    concat_chunked,
    read_table_npz,
    scan_csv,
    scan_jsonl,
    write_csv,
    write_jsonl,
    write_table_npz,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs import runtime


def stored_part_byte(path, member: str, column: str) -> int:
    """File offset of the middle byte of ``column``'s numeric part in
    the stored spill member ``member`` of ``path``.

    Flipping that byte leaves the zip headers and the packed header
    intact and still decodes to a column of the right shape, so only
    the member's CRC-32 can tell the payload was damaged.
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED
    data = path.read_bytes()
    # Local file header: 30 fixed bytes, then the name and extra field.
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    header_len = int.from_bytes(data[start + 4 : start + 8], "little")
    parts_start = start + 8 + header_len
    for name, dtype, _, offset, nbytes in json.loads(data[start + 8 : parts_start]):
        if name.endswith(f"/{column}") and np.dtype(dtype).kind in "iuf" and nbytes:
            return parts_start + offset + nbytes // 2
    raise AssertionError(f"member {member} has no numeric part for {column!r}")


@pytest.fixture
def table():
    rng = np.random.default_rng(42)
    n = 100
    return Table(
        {
            "user": [f"u{i % 7}" for i in range(n)],
            "runtime_s": rng.uniform(10, 1000, n),
            "num_gpus": rng.integers(0, 4, n),
        }
    )


class TestConstruction:
    def test_round_trip_materialize(self, table):
        for chunk_rows in (1, 7, 100, 1000):
            chunked = table.to_chunked(chunk_rows=chunk_rows)
            assert chunked.materialize().to_dict() == table.to_dict()

    def test_num_rows_and_columns(self, table):
        chunked = table.to_chunked(chunk_rows=13)
        assert chunked.num_rows == 100
        assert chunked.column_names == table.column_names
        assert "user" in chunked and "nope" not in chunked

    def test_re_iterable(self, table):
        chunked = table.to_chunked(chunk_rows=9)
        assert len(list(chunked.chunks())) == len(list(chunked.chunks()))

    def test_scan_dispatch(self, table, tmp_path):
        assert ChunkedTable.scan(table, 10).materialize().to_dict() == table.to_dict()
        chunked = table.to_chunked(chunk_rows=10)
        assert ChunkedTable.scan(chunked) is chunked
        assert Table.scan(table, chunk_rows=10).num_rows == 100
        with pytest.raises(FrameError, match="cannot scan"):
            ChunkedTable.scan(tmp_path / "data.parquet")
        with pytest.raises(FrameError, match="cannot scan"):
            ChunkedTable.scan(3.14)

    def test_column_access_raises(self, table):
        chunked = table.to_chunked(chunk_rows=10)
        with pytest.raises(FrameError, match="materialize"):
            chunked.column("user")
        with pytest.raises(FrameError, match="materialize"):
            chunked["user"]

    def test_mismatched_chunk_columns_raise(self):
        bad = ChunkedTable([Table({"a": [1]}), Table({"b": [2]})])
        with pytest.raises(FrameError, match="differ"):
            list(bad.chunks())

    def test_empty_chunks_skipped(self):
        chunked = ChunkedTable([Table({"a": []}), Table({"a": [1, 2]})])
        assert chunked.num_rows == 2
        assert len(list(chunked.chunks())) == 1

    def test_bad_chunk_rows(self, table):
        with pytest.raises(FrameError, match=">= 1"):
            table.to_chunked(chunk_rows=0)


class TestLazyVerbs:
    def test_select_drop_rename(self, table):
        chunked = table.to_chunked(chunk_rows=11)
        assert chunked.select(["user"]).materialize().to_dict() == table.select(
            ["user"]
        ).to_dict()
        assert chunked.drop(["num_gpus"]).column_names == ("user", "runtime_s")
        renamed = chunked.rename({"user": "who"})
        assert renamed.column_names == ("who", "runtime_s", "num_gpus")
        with pytest.raises(FrameError, match="missing"):
            chunked.drop(["nope"])

    def test_filter_matches_materialized(self, table):
        predicate = lambda t: np.asarray(t["num_gpus"]) > 0  # noqa: E731
        chunked = table.to_chunked(chunk_rows=9).filter(predicate)
        assert chunked.materialize().to_dict() == table.filter(predicate).to_dict()

    def test_filter_rejects_masks(self, table):
        with pytest.raises(FrameError, match="callable"):
            table.to_chunked(chunk_rows=9).filter(np.ones(100, dtype=bool))

    def test_with_column(self, table):
        chunked = table.to_chunked(chunk_rows=9).with_column(
            "runtime_min", lambda t: np.asarray(t["runtime_s"]) / 60.0
        )
        assert chunked.column_names[-1] == "runtime_min"
        expected = table.with_computed(
            "runtime_min", lambda t: np.asarray(t["runtime_s"]) / 60.0
        )
        assert chunked.materialize().to_dict() == expected.to_dict()
        with pytest.raises(FrameError, match="callable"):
            table.to_chunked(chunk_rows=9).with_column("c", 1.0)

    def test_broadcast_join_matches_materialized(self, table):
        right = Table({"user": [f"u{i}" for i in range(5)], "quota": list(range(5))})
        chunked = table.to_chunked(chunk_rows=7).join(right, on="user")
        assert chunked.materialize().to_dict() == table.join(right, on="user").to_dict()

    def test_join_rejects_chunked_right(self, table):
        right = Table({"user": ["u0"], "quota": [1]}).to_chunked()
        with pytest.raises(FrameError, match="materialize"):
            table.to_chunked().join(right, on="user")

    def test_head_stops_early(self, table):
        seen = []

        def produce():
            for start in range(0, 100, 10):
                seen.append(start)
                yield table.take(np.arange(start, start + 10))

        head = ChunkedTable(produce).head(15)
        assert head.num_rows == 15
        assert len(seen) < 10  # nowhere near a full scan
        assert head.to_dict() == table.head(15).to_dict()


class TestTerminalVerbs:
    def test_exact_reducers_bit_for_bit(self, table):
        spec = {"runtime_s": ("count", "min", "max", "first", "last")}
        expected = table.group_by("user").aggregate(spec)
        for chunk_rows in (1, 7, 100):
            got = table.to_chunked(chunk_rows=chunk_rows).group_by("user").aggregate(spec)
            assert got.to_dict() == expected.to_dict()

    def test_sizes_and_shortcuts(self, table):
        chunked = table.to_chunked(chunk_rows=13)
        assert (
            chunked.group_by("user").sizes().to_dict()
            == table.group_by("user").sizes().to_dict()
        )
        streamed_mean = chunked.group_by("user").mean("runtime_s")
        exact_mean = table.group_by("user").mean("runtime_s")
        assert list(streamed_mean["user"]) == list(exact_mean["user"])
        np.testing.assert_allclose(
            np.asarray(streamed_mean["runtime_s_mean"], dtype=float),
            np.asarray(exact_mean["runtime_s_mean"], dtype=float),
            rtol=1e-12,
        )

    def test_median_reducer_rejected(self, table):
        with pytest.raises(FrameError, match="mergeable partial state"):
            table.to_chunked().group_by("user").aggregate({"runtime_s": "median"})

    def test_median_rejection_names_column_and_remedies(self, table):
        """The error must be actionable: name the offending reducer and
        column and point at both escape hatches."""
        with pytest.raises(FrameError) as excinfo:
            table.to_chunked().group_by("user").aggregate({"runtime_s": "median"})
        message = str(excinfo.value)
        assert "'median'" in message
        assert "'runtime_s'" in message
        assert ".materialize()" in message
        assert "QuantileSketch" in message
        assert "sum" in message and "mean" in message  # streamable list

    def test_value_counts_matches_materialized(self, table):
        for name in ("user", "num_gpus"):
            expected = table.value_counts(name)
            for chunk_rows in (1, 9, 100):
                got = table.to_chunked(chunk_rows=chunk_rows).value_counts(name)
                assert got.to_dict() == expected.to_dict()
                assert got[name].dtype == expected[name].dtype == table[name].dtype

    def test_group_iteration_needs_materialize(self, table):
        """A stream cannot hand out per-group rows: every group-iterating
        verb raises and points at materialize()."""
        grouped = table.to_chunked(chunk_rows=10).group_by("user")
        for verb in (
            lambda: grouped.num_groups,
            grouped.keys,
            lambda: list(grouped),
            lambda: grouped.group("u0"),
            lambda: grouped.apply(lambda sub: {"n": sub.num_rows}),
        ):
            with pytest.raises(FrameError, match=r"\.materialize\(\)"):
                verb()

    def test_sketch_and_moments(self, table):
        chunked = table.to_chunked(chunk_rows=8)
        sketch = chunked.sketch("runtime_s")
        assert isinstance(sketch, QuantileSketch)
        assert sketch.num_samples == 100
        # n < k: still in the exact regime.
        assert sketch.median() == float(np.quantile(np.asarray(table["runtime_s"]), 0.5))
        moments = chunked.moments("runtime_s")
        assert isinstance(moments, StreamingMoments)
        assert moments.count == 100
        assert moments.mean() == pytest.approx(
            float(np.asarray(table["runtime_s"]).mean()), rel=1e-12
        )


class TestSpill:
    def test_spill_round_trip(self, table, tmp_path):
        spilled = table.to_chunked(chunk_rows=16).spill(tmp_path / "spill")
        assert sorted(p.name for p in (tmp_path / "spill").glob("*.npz"))
        assert spilled.materialize().to_dict() == table.to_dict()
        # Re-iterable: a second pass re-reads the files.
        assert spilled.materialize().to_dict() == table.to_dict()

    def test_scan_spill_directory(self, table, tmp_path):
        table.to_chunked(chunk_rows=16).spill(tmp_path / "spill")
        rescanned = ChunkedTable.scan(tmp_path / "spill")
        assert rescanned.materialize().to_dict() == table.to_dict()
        with pytest.raises(FrameError, match="no .npz"):
            ChunkedTable.scan(tmp_path)

    def test_spill_metrics(self, table, tmp_path):
        metrics = MetricsRegistry()
        with runtime.use(Tracer(), metrics):
            table.to_chunked(chunk_rows=25).spill(tmp_path / "spill")
        assert metrics.counter_value("repro_frame_spill_chunks_total") == 4
        assert metrics.counter_value("repro_frame_spill_bytes_total") > 0
        assert metrics.counter_value("repro_frame_stream_chunks_total", op="spill") == 4
        assert metrics.counter_value("repro_frame_stream_rows_total", op="spill") == 100


class TestObsInstrumentation:
    def test_stream_counters_and_spans(self, table):
        metrics = MetricsRegistry()
        tracer = Tracer()
        with runtime.use(tracer, metrics):
            table.to_chunked(chunk_rows=10).group_by("user").aggregate(
                {"runtime_s": "count"}
            )
            table.to_chunked(chunk_rows=10).sketch("runtime_s")
        assert (
            metrics.counter_value("repro_frame_stream_chunks_total", op="aggregate")
            == 10
        )
        assert (
            metrics.counter_value("repro_frame_stream_rows_total", op="sketch") == 100
        )
        names = [span.name for span in tracer.finished()]
        assert "frame.stream.aggregate" in names
        assert "frame.stream.sketch" in names

    def test_peak_rss_gauge(self, table):
        metrics = MetricsRegistry()
        with runtime.use(Tracer(), metrics):
            table.to_chunked(chunk_rows=10).materialize()
        samples = metrics.samples("gauge")
        assert any(name == "repro_process_peak_rss_bytes" for name, _, _ in samples)


class TestConcatChunked:
    def test_concat_matches_concat_tables(self, table):
        first = table.head(40)
        second = table.take(np.arange(40, 100))
        combined = concat_chunked(
            [first.to_chunked(chunk_rows=7), second.to_chunked(chunk_rows=11)]
        )
        assert combined.num_rows == 100
        assert combined.materialize().to_dict() == table.to_dict()


class TestScanCodecs:
    def test_scan_csv_matches_read(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        chunks = list(scan_csv(path, chunk_rows=7))
        assert all(c.num_rows <= 7 for c in chunks)
        rescanned = ChunkedTable.scan(path, 7).materialize()
        from repro.frame import read_csv

        assert rescanned.to_dict() == read_csv(path).to_dict()

    def test_scan_jsonl_matches_read(self, table, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(table, path)
        rescanned = ChunkedTable.scan(path, 9).materialize()
        from repro.frame import read_jsonl

        assert rescanned.to_dict() == read_jsonl(path).to_dict()

    def test_npz_round_trip_preserves_dtypes(self, tmp_path):
        table = Table(
            {
                "s": ["a", "b", None],
                "i": np.array([1, 2, 3], dtype=np.int64),
                "f": np.array([1.5, np.nan, 3.0]),
                "b": np.array([True, False, True]),
            }
        )
        path = write_table_npz(table, tmp_path / "t.npz")
        back = read_table_npz(path)
        assert back.column_names == table.column_names
        assert list(back["s"]) == ["a", "b", None]
        np.testing.assert_array_equal(np.asarray(back["i"]), [1, 2, 3])
        np.testing.assert_array_equal(
            np.asarray(back["f"], dtype=float), [1.5, np.nan, 3.0]
        )
        np.testing.assert_array_equal(np.asarray(back["b"]), [True, False, True])
        assert np.asarray(back["i"]).dtype == np.int64
        assert np.asarray(back["b"]).dtype == np.bool_
        with pytest.raises(FrameError, match=".npz"):
            write_table_npz(table, tmp_path / "t.bin")


class TestSpillFiles:
    """A spilled chunk is one stored zip member, with or without the
    codec; a damaged or older-layout chunk raises FrameError naming the
    file."""

    @pytest.mark.parametrize("codec", ["default", None])
    def test_chunk_is_one_member(self, table, tmp_path, codec):
        kwargs = {} if codec == "default" else {"codec": None}
        spilled = table.to_chunked(chunk_rows=30).spill(tmp_path / "spill", **kwargs)
        paths = sorted((tmp_path / "spill").glob("*.npz"))
        assert len(paths) == 4
        for path in paths:
            with zipfile.ZipFile(path) as archive:
                assert archive.namelist() == ["chunk"]
                assert archive.getinfo("chunk").compress_type == zipfile.ZIP_STORED
        assert spilled.materialize().to_dict() == table.to_dict()

    def test_truncated_chunk_names_the_file(self, table, tmp_path):
        path = write_table_npz(table, tmp_path / "t.npz")
        data = path.read_bytes()
        for keep in (len(data) // 2, len(data) - 30, 40):
            path.write_bytes(data[:keep])
            with pytest.raises(FrameError, match="t.npz"):
                read_table_npz(path)

    def test_corrupt_member_names_the_file(self, table, tmp_path):
        path = write_table_npz(table, tmp_path / "t.npz")
        data = bytearray(path.read_bytes())
        data[stored_part_byte(path, "chunk", "runtime_s")] ^= 0xFF  # caught by CRC-32 only
        path.write_bytes(bytes(data))
        with pytest.raises(FrameError, match="t.npz"):
            read_table_npz(path)

    def test_older_layout_names_the_file(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path, __names__=np.asarray(["x"], dtype=object), c0=np.arange(3)
        )
        with pytest.raises(FrameError, match="old.npz"):
            read_table_npz(path)


class TestSpillWriteFailure:
    """A chunk that fails to write leaves no partial file; a full or
    unwritable disk raises FrameError naming the chunk file."""

    @pytest.mark.parametrize(
        "error, match",
        [
            (OSError(28, "No space left on device"), r"chunk_000002\.npz: .*No space left"),
            (FrameError("cannot quantise column 'x'"), r"cannot quantise column 'x'"),
        ],
    )
    def test_failed_chunk_is_removed(self, table, tmp_path, monkeypatch, error, match):
        import importlib

        codec = importlib.import_module("repro.frame.codec")
        pack = codec.pack
        calls = []

        def fails_on_third_chunk(parts, fh):
            calls.append(None)
            if len(calls) == 3:
                fh.write(b"partial member bytes")
                raise error
            return pack(parts, fh)

        monkeypatch.setattr(codec, "pack", fails_on_third_chunk)
        target = tmp_path / "spill"
        with pytest.raises(FrameError, match=match):
            table.to_chunked(chunk_rows=30).spill(target)
        assert sorted(p.name for p in target.iterdir()) == [
            "chunk_000000.npz", "chunk_000001.npz",
        ]

    def test_uncreatable_directory_names_it(self, table, tmp_path):
        """A spill directory under a regular file cannot be created,
        even by root; the error names the directory."""
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(FrameError, match=r"cannot create spill directory .*not_a_dir/spill"):
            table.to_chunked(chunk_rows=30).spill(blocker / "spill")


class TestDeprecatedSubmoduleImports:
    """The submodule deprecation shim is gone; the public surface stays
    warning-free."""

    def test_public_surface_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.frame import ChunkedTable as _  # noqa: F401
            from repro.frame import Table as _t  # noqa: F401
