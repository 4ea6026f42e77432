"""Per-column codecs for the chunked-table spill format.

The paper's operators flagged monitoring volume and file-system load as
a first-order cost (42 GB of telemetry for 2,149 jobs); the spill layer
is our equivalent write path, so its bytes are the ones worth shaving.
This module encodes each spilled column independently with the cheapest
scheme that round-trips it exactly:

* integers — delta + run-length encoding (job ids and day indexes are
  sorted or near-constant, so the deltas collapse into a few runs);
* floats — run-length encoding of the exact values (gated telemetry
  dwells at 0.0 through idle phases) when runs win, raw otherwise;
* object columns — dictionary encoding (uniques + int32 codes), with
  the code stream run-length encoded when it helps;
* opt-in lossy floats — quantise to :data:`QUANT_STEP` steps, then
  delta + RLE (the cache's series file, :mod:`repro.monitor.codec`,
  quantises every metric this way).  Maximum absolute error
  ``QUANT_STEP / 2``; never applied unless the caller names the column
  in :class:`SpillCodec.quantise`.

A spill file (a table chunk, a batch of series, or the cache's series
file) is an ``.npz``-named zip with one member per chunk or series,
written by :func:`write_spill_file`: the encoded parts laid out by
:func:`pack` behind a small header, so a read is one member read and one
header parse.

Exactness contract: every scheme except ``quant`` reconstructs the
column with identical dtype and element-wise equal values (NaNs map to
NaNs; integer delta arithmetic wraps modularly in the source dtype, so
round-trips are exact even at dtype boundaries).  The scheme choice is
adaptive per column — when an encoding would not shrink the column it
falls back to ``raw`` — so pathological inputs (all-distinct codes,
run-free floats) never blow up the file.
"""

from __future__ import annotations

import json
import math
import pickle
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from repro.errors import FrameError
from repro.obs.runtime import get_metrics

__all__ = [
    "QUANT_STEP",
    "SpillCodec",
    "LOSSLESS",
    "rle_encode",
    "rle_decode",
    "encode_column",
    "decode_column",
    "column_raw_bytes",
    "pack",
    "unpack",
    "write_spill_file",
    "count_spill",
    "read_spill_member",
]

#: Quantisation step for opt-in lossy float columns (percent, or watts
#: for power).
QUANT_STEP = 0.5

#: Run-length bookkeeping per run: one value plus one int64 length.
_LENGTH_BYTES = 8

#: Deflate level of every spill zip member.  The schemes below already
#: squeeze out runs and repeats; level 1 deflates the rest about as
#: well as the default level 6 for a fraction of the writer's CPU.
DEFLATE_LEVEL = 1
#: First bytes of a packed member (spill format 2), and how many bytes
#: a read inflates at a time.
_PACK_MAGIC, _READ_PIECE = b"RPK2", 1 << 18

#: What reading a truncated, corrupt or foreign spill file raises;
#: readers re-raise each as an error naming the file.
SPILL_READ_ERRORS = (
    OSError, EOFError, KeyError, ValueError, FrameError,
    zipfile.BadZipFile, zlib.error, pickle.UnpicklingError,
)


@dataclass(frozen=True)
class SpillCodec:
    """Spill-encoding policy for one table stream.

    ``quantise`` names float columns that may be stored lossily
    (quantised to :data:`QUANT_STEP` steps, max error ``QUANT_STEP/2``).
    It defaults to empty: the default codec is fully lossless and the
    decoded chunks are bit-identical to the originals.
    """

    quantise: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "quantise", tuple(self.quantise))

    def scheme_for(self, name: str, values: np.ndarray) -> tuple[str, dict]:
        """Encode one named column under this policy."""
        return encode_column(
            values, quantise=name in self.quantise
        )


#: The default policy: every column round-trips exactly.
LOSSLESS = SpillCodec()


def rle_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode: ``(run values, run lengths)``.

    Works for any comparable dtype.  For floats, NaN never compares
    equal to its neighbour, so each NaN sample becomes its own run —
    wasteful but exact.
    """
    if values.size == 0:
        return np.empty(0, dtype=values.dtype), np.empty(0, dtype=np.int64)
    if values.dtype == object:
        same = np.fromiter(
            (values[i] == values[i + 1] for i in range(values.size - 1)),
            dtype=bool,
            count=max(values.size - 1, 0),
        )
        change = np.nonzero(~same)[0]
    else:
        change = np.nonzero(values[1:] != values[:-1])[0]
    starts = np.concatenate(([0], change + 1))
    lengths = np.diff(np.concatenate((starts, [values.size])))
    return values[starts], lengths


def rle_decode(run_values: np.ndarray, run_lengths: np.ndarray) -> np.ndarray:
    """Invert :func:`rle_encode`."""
    if run_values.shape != run_lengths.shape:
        raise FrameError("corrupt run-length payload: values/lengths mismatch")
    if run_values.size == 0:
        return np.empty(0, dtype=run_values.dtype)
    return np.repeat(run_values, run_lengths)


def column_raw_bytes(values: np.ndarray) -> int:
    """Bytes a column takes unencoded: the raw side of the spill ratio.

    Numeric columns count their buffer size; object columns go through
    pickle, so their footprint is the pickled size.
    """
    values = np.asarray(values)
    if values.dtype == object:
        return len(pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL))
    return values.nbytes


def _encoded_bytes(arrays: dict[str, np.ndarray]) -> int:
    return sum(column_raw_bytes(a) for a in arrays.values())


def encode_column(values: np.ndarray, *, quantise: bool = False) -> tuple[str, dict]:
    """Encode one column; returns ``(scheme_tag, arrays)``.

    ``arrays`` maps suffix → ndarray (a packed member names each part
    ``<scheme>/<suffix>/<column>``).  Scheme tags:

    ``raw``                  — ``{"": values}`` unchanged
    ``rle``                  — ``{"v": run values, "l": run lengths}``
    ``delta:<dtype>``        — integer deltas (modular, in ``<dtype>``), RLE'd
    ``dict`` / ``dict+rle``  — ``{"u": uniques, "v": codes[, "l": lengths]}``
    ``quant``                — quantised int64 levels, delta + RLE (lossy)
    """
    values = np.asarray(values)
    raw = ("raw", {"": values})
    if values.size == 0:
        return raw
    kind = values.dtype.kind
    if values.dtype == object:
        return _encode_object(values)
    if quantise and kind == "f":
        if np.isfinite(values).all():
            levels = np.round(values / QUANT_STEP).astype(np.int64)
            deltas = np.diff(levels, prepend=np.int64(0))
            run_values, run_lengths = rle_encode(deltas)
            return "quant", {"v": run_values, "l": run_lengths}
        # non-finite samples cannot be quantised; fall through lossless
    if kind in "iu":
        deltas = np.diff(values, prepend=values.dtype.type(0))
        run_values, run_lengths = rle_encode(deltas)
        encoded = {"v": run_values, "l": run_lengths}
        if _encoded_bytes(encoded) < values.nbytes:
            return f"delta:{values.dtype.str}", encoded
        return raw
    if kind in "bf":
        run_values, run_lengths = rle_encode(values)
        encoded = {"v": run_values, "l": run_lengths}
        if _encoded_bytes(encoded) < values.nbytes:
            return "rle", encoded
        return raw
    return raw


def _encode_object(values: np.ndarray) -> tuple[str, dict]:
    seen: dict = {}
    codes = np.empty(values.size, dtype=np.int32)
    for i, value in enumerate(values):
        code = seen.get(value)
        if code is None:
            code = len(seen)
            seen[value] = code
        codes[i] = code
    if len(seen) >= values.size:
        # all-distinct: the dictionary IS the column; raw pickles once
        return "raw", {"": values}
    uniques = np.empty(len(seen), dtype=object)
    for value, code in seen.items():
        uniques[code] = value
    run_values, run_lengths = rle_encode(codes)
    if run_values.nbytes + run_lengths.nbytes < codes.nbytes:
        return "dict+rle", {"u": uniques, "v": run_values, "l": run_lengths}
    return "dict", {"u": uniques, "v": codes}


def decode_column(scheme: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Invert :func:`encode_column` for one column."""
    if scheme == "raw":
        return arrays[""]
    if scheme == "rle":
        return rle_decode(arrays["v"], arrays["l"])
    if scheme.startswith("delta:"):
        dtype = np.dtype(scheme.split(":", 1)[1])
        deltas = rle_decode(arrays["v"], arrays["l"])
        return np.cumsum(deltas, dtype=dtype).astype(dtype, copy=False)
    if scheme == "dict":
        return arrays["u"][arrays["v"]]
    if scheme == "dict+rle":
        codes = rle_decode(arrays["v"], arrays["l"])
        return arrays["u"][codes]
    if scheme == "quant":
        deltas = rle_decode(arrays["v"], arrays["l"])
        return np.cumsum(deltas).astype(float) * QUANT_STEP
    raise FrameError(f"unknown spill codec scheme {scheme!r}")


def pack(parts: Mapping[str, np.ndarray], fh: BinaryIO) -> None:
    """Write ``parts`` to ``fh`` as one packed member.

    Layout: :data:`_PACK_MAGIC`, the header length (uint32 LE), a JSON
    header listing ``[name, dtype, shape, offset, size]`` per part, then
    the parts back to back (offsets count from the header's end):
    numeric parts as their C-order bytes, written straight from the
    array, object parts pickled.
    """
    entries, payloads, offset = [], [], 0
    for name, values in parts.items():
        values = np.asarray(values)
        if values.dtype.hasobject:
            payload = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            payload = np.ascontiguousarray(values).reshape(-1).view(np.uint8)
        entries.append([name, values.dtype.str, list(values.shape), offset, len(payload)])
        payloads.append(payload)
        offset += len(payload)
    header = json.dumps(entries, separators=(",", ":")).encode()
    fh.write(_PACK_MAGIC + len(header).to_bytes(4, "little") + header)
    for payload in payloads:
        fh.write(payload)


def unpack(fh: BinaryIO, size: int) -> dict[str, np.ndarray]:
    """Read one member of ``size`` bytes, laid out by :func:`pack`, from ``fh``.

    The whole header is checked before any part is read: known,
    non-structured dtypes; each part starting where the one before it
    ends, and the last one ending the member; every numeric part
    exactly shape x itemsize bytes.  A failed check raises
    :class:`FrameError`.  Each part is then read into its own new
    buffer, so numeric parts come back writable and a kept column pins
    no other.
    """
    prefix = _read(fh, 8)
    start = 8 + int.from_bytes(prefix[4:], "little")
    try:
        if prefix[:4] != _PACK_MAGIC or size < start:
            raise ValueError("bad magic or header length")
        layout, end = [], 0
        for name, descr, shape, offset, nbytes in json.loads(_read(fh, start - 8)):
            dtype, shape = np.dtype(descr), tuple(shape)
            if dtype.kind == "V" or not all(
                isinstance(n, int) and n >= 0 for n in (offset, nbytes, *shape)
            ):
                raise ValueError(f"part {name!r} has a bad dtype, shape or offset")
            if offset != end or start + offset + nbytes > size:
                raise ValueError(f"part {name!r} lies outside the member")
            if not dtype.hasobject and nbytes != math.prod(shape) * dtype.itemsize:
                raise ValueError(
                    f"part {name!r} holds {nbytes} bytes, not {shape} x {dtype.itemsize}"
                )
            layout.append((name, dtype, shape, nbytes))
            end = offset + nbytes
        if start + end != size:
            raise ValueError(f"the parts end at byte {start + end} of {size}")
    except (TypeError, ValueError) as error:
        raise FrameError(f"corrupt packed spill header: {error}") from None
    parts = {}
    for name, dtype, shape, nbytes in layout:
        data = _read(fh, nbytes)
        parts[name] = (
            pickle.loads(data) if dtype.hasobject
            else np.frombuffer(data, dtype).reshape(shape)
        )
    return parts


def _read(fh: BinaryIO, count: int) -> bytearray:
    """Exactly ``count`` bytes of ``fh``, read in bounded pieces."""
    out, filled = bytearray(count), 0
    while filled < count:
        piece = fh.read(min(count - filled, _READ_PIECE))
        if not piece:
            raise EOFError(f"packed member ends {count - filled} bytes early")
        out[filled : filled + len(piece)] = piece
        filled += len(piece)
    return out


def make_spill_dir(directory: str | Path) -> Path:
    """Create a spill directory (and its parents) if it is missing.

    A directory that cannot be created — a full or unwritable spill
    root, or a path under a regular file — raises :class:`FrameError`
    naming it instead of a bare ``OSError``.
    """
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise FrameError(f"cannot create spill directory {path}: {error}") from error
    return path


def write_spill_file(
    path: str | Path,
    members: Iterable[tuple[str, Mapping[str, np.ndarray]]],
    codec: SpillCodec | None,
) -> None:
    """Write a spill zip with one packed member per ``(name, columns)``.

    Each column is encoded by ``codec`` (``None``: every column ``raw``)
    and its parts are packed straight into the deflated zip entry;
    ``members`` may be a generator, so one member is alive at a time.
    A failed write leaves no file, and an ``OSError`` (a full or
    unwritable disk) raises :class:`FrameError` naming it.
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(
            path, "w", zipfile.ZIP_DEFLATED, compresslevel=DEFLATE_LEVEL
        ) as archive:
            for name, columns in members:
                parts = {}
                for column, values in columns.items():
                    scheme, encoded = (
                        ("raw", {"": values}) if codec is None
                        else codec.scheme_for(column, np.asarray(values))
                    )
                    for suffix, part in encoded.items():
                        parts[f"{scheme}/{suffix}/{column}"] = part
                # zip64 as np.savez writes it: a member may pass 2 GiB.
                with archive.open(name, "w", force_zip64=True) as fh:
                    pack(parts, fh)
    except BaseException as error:
        path.unlink(missing_ok=True)
        if isinstance(error, OSError):
            raise FrameError(f"cannot write spill file {path}: {error}") from error
        raise


def count_spill(files: int, encoded_bytes: int, raw_bytes: int) -> None:
    """Add spilled files and their bytes to the ``repro_frame_spill_*``
    counters: ``encoded_bytes`` on disk, ``raw_bytes`` unencoded."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_frame_spill_chunks_total",
            help="table chunks spilled to disk by the streaming engine",
        ).inc(files)
        metrics.counter(
            "repro_frame_spill_bytes_total",
            help="bytes of spill files written by the streaming engine (encoded)",
        ).inc(encoded_bytes)
        metrics.counter(
            "repro_frame_spill_raw_bytes_total",
            help="bytes the raw (uncodec'd) spill layout would have written",
        ).inc(raw_bytes)


def read_spill_member(archive: zipfile.ZipFile, name: str) -> dict[str, np.ndarray]:
    """Decode member ``name`` of a spill zip back into its columns."""
    info = archive.getinfo(name)
    with archive.open(info) as fh:
        parts = unpack(fh, info.file_size)  # reads to the end: checks the CRC
    grouped: dict[str, tuple[str, dict]] = {}
    for key, part in parts.items():
        scheme, suffix, column = key.split("/", 2)
        grouped.setdefault(column, (scheme, {}))[1][suffix] = part
    return {
        column: decode_column(scheme, arrays)
        for column, (scheme, arrays) in grouped.items()
    }
