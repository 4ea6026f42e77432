"""Property-based tests for the spill codec (hypothesis).

The spill format promises two things (see :mod:`repro.frame.codec`):

* every lossless scheme — RLE, modular delta, dictionary — reconstructs
  the column with identical dtype and element-wise equal values, for
  *any* input, including empty columns, single-run columns, all-distinct
  columns, and values at the dtype boundaries where delta arithmetic
  wraps;
* the opt-in quantising scheme (:data:`QUANT_SCHEME`) never errs by
  more than ``QUANT_STEP / 2`` per sample, and decodes to exactly
  ``np.round(x / QUANT_STEP) * QUANT_STEP`` whatever integer width its
  levels need; a member of the older ``quant`` layout is refused.

A third promise is the file layout's: :func:`pack` / :func:`unpack`
round-trip any dict of arrays with equal dtype, shape and bytes, and
the header check rejects a damaged header instead of misreading it.

These suites drive the promises with generated data rather than the
telemetry-shaped fixtures the unit tests use.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError
from repro.frame.codec import (
    QUANT_SCHEME,
    QUANT_STEP,
    decode_column,
    decoded_size,
    encode_column,
    pack,
    rle_decode,
    rle_encode,
    unpack,
)

#: Signed/unsigned widths whose boundaries the delta scheme must wrap
#: across without losing exactness.
_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64)


def _int_arrays():
    """Integer columns biased toward dtype-boundary values."""

    @st.composite
    def build(draw):
        dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
        info = np.iinfo(dtype)
        boundary = st.sampled_from(
            [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
        )
        element = st.one_of(boundary, st.integers(info.min, info.max))
        values = draw(st.lists(element, min_size=0, max_size=64))
        return np.array(values, dtype=dtype)

    return build()


def _float_arrays(allow_nan=True):
    element = st.floats(
        allow_nan=allow_nan, allow_infinity=allow_nan, width=64
    )
    return st.lists(element, min_size=0, max_size=64).map(
        lambda v: np.array(v, dtype=np.float64)
    )


def _object_arrays():
    word = st.text(alphabet="abcdef", min_size=0, max_size=4)
    return st.lists(word, min_size=0, max_size=64).map(
        lambda v: np.array(v, dtype=object)
    )


def _assert_identical(decoded, values):
    assert decoded.dtype == values.dtype
    if values.dtype.kind == "f":
        np.testing.assert_array_equal(decoded, values)  # NaN == NaN here
    else:
        assert decoded.shape == values.shape
        assert all(a == b for a, b in zip(decoded, values))


@given(st.one_of(_int_arrays(), _float_arrays()))
@settings(max_examples=200, deadline=None)
def test_rle_round_trip_is_exact(values):
    """rle_decode(rle_encode(x)) == x for empty, single-run,
    all-distinct, and dtype-boundary inputs alike."""
    run_values, run_lengths = rle_decode_args = rle_encode(values)
    assert run_lengths.sum() == values.size
    assert (run_lengths > 0).all()
    _assert_identical(rle_decode(*rle_decode_args), values)


@given(_int_arrays())
@settings(max_examples=200, deadline=None)
def test_rle_single_run_collapses(values):
    """A constant column must encode as (at most) one run — the case
    the format exists for."""
    if values.size == 0:
        return
    constant = np.full(values.size, values[0], dtype=values.dtype)
    run_values, run_lengths = rle_encode(constant)
    assert run_values.size == 1
    assert run_lengths[0] == constant.size


@given(_int_arrays())
@settings(max_examples=200, deadline=None)
def test_integer_encode_round_trip_wraps_exactly(values):
    """Delta encoding wraps modularly in the source dtype, so columns
    that straddle iinfo.min/iinfo.max still round-trip bit exactly."""
    scheme, arrays = encode_column(values)
    _assert_identical(decode_column(scheme, arrays), values)


@given(_float_arrays())
@settings(max_examples=200, deadline=None)
def test_float_encode_round_trip_is_exact(values):
    """Lossless float path: NaN maps to NaN, every finite value is
    bit identical, and the adaptive raw fallback never corrupts."""
    scheme, arrays = encode_column(values)
    assert not scheme.startswith("quant")
    _assert_identical(decode_column(scheme, arrays), values)


@given(_object_arrays())
@settings(max_examples=200, deadline=None)
def test_object_encode_round_trip_is_exact(values):
    """Dictionary coding round-trips object columns — including the
    all-distinct case where the dictionary would be pure overhead."""
    scheme, arrays = encode_column(values)
    decoded = decode_column(scheme, arrays)
    assert decoded.shape == values.shape
    assert all(a == b for a, b in zip(decoded, values))


@given(_float_arrays(allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quantisation_error_is_bounded(values):
    """The lossy scheme's whole promise: |decoded - x| <= QUANT_STEP/2.

    Quantised levels are exact integers and their transport is
    lossless, so the only error is the initial rounding.
    """
    # Keep |x / QUANT_STEP| inside int64 so the level computation is
    # well defined (the codec is only opted in for telemetry columns,
    # which are percentages and watts).
    values = np.clip(values, -1e15, 1e15)
    scheme, arrays = encode_column(values, quantise=True)
    decoded = decode_column(scheme, arrays)
    if scheme == QUANT_SCHEME:
        assert np.abs(decoded - values).max(initial=0.0) <= QUANT_STEP / 2
    else:
        # Adaptive fallback (e.g. empty input) must stay lossless.
        _assert_identical(decoded, values)


@given(_float_arrays(allow_nan=True))
@settings(max_examples=100, deadline=None)
def test_quantisation_refuses_non_finite(values):
    """Columns with NaN/inf fall through to a lossless scheme even
    when opted into quantisation."""
    if values.size and np.isfinite(values).all():
        return
    scheme, arrays = encode_column(values, quantise=True)
    assert scheme != QUANT_SCHEME
    _assert_identical(decode_column(scheme, arrays), values)


#: Level ranges around the integer widths the quantised scheme picks
#: from: each pair straddles (or touches) a dtype boundary.
_LEVEL_RANGES = (
    (0, 0), (0, 200), (0, 255), (0, 256), (-1, 0), (-128, 127), (-129, 100),
    (0, 600), (0, 65535), (0, 65536), (-32768, 32767), (-32769, 0),
    (0, 2**32 - 1), (0, 2**32), (-(2**31), 2**31 - 1), (-(2**31) - 1, 5),
)


@st.composite
def _level_columns(draw):
    """Float columns whose levels span one of :data:`_LEVEL_RANGES`:
    runs (dwelling telemetry) or noise, one sample up to a few hundred,
    constant columns included; samples sit anywhere inside a step."""
    lo, hi = draw(st.sampled_from(_LEVEL_RANGES))
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(lo, hi, size, endpoint=True)
    if draw(st.booleans()):  # dwell: long runs of one level
        levels = np.repeat(levels[: size // 50 + 1], 50)[:size]
    levels[rng.integers(size)] = draw(st.sampled_from([lo, hi]))
    offsets = rng.uniform(-0.49, 0.49, levels.size) * QUANT_STEP
    return levels * QUANT_STEP + offsets


@given(_level_columns())
@settings(max_examples=300, deadline=None)
def test_quantised_decode_is_the_rounded_column(values):
    """The scheme decodes to exactly ``np.round(x / QUANT_STEP) *
    QUANT_STEP`` and stores its levels in the narrowest width that
    holds them, runs or not."""
    scheme, arrays = encode_column(values, quantise=True)
    assert scheme == QUANT_SCHEME
    decoded = decode_column(scheme, arrays)
    assert decoded.dtype == np.float64 and decoded.shape == values.shape
    np.testing.assert_array_equal(decoded, np.round(values / QUANT_STEP) * QUANT_STEP)
    levels = np.round(values / QUANT_STEP)
    stored = arrays["v"] if "l" in arrays else arrays[""]
    narrower = [np.dtype(d) for d in ("u1", "i1", "u2", "i2", "u4", "i4")
                if np.dtype(d).itemsize < stored.dtype.itemsize]
    assert all(
        levels.min() < np.iinfo(d).min or levels.max() > np.iinfo(d).max for d in narrower
    ), stored.dtype
    if "l" in arrays:
        assert arrays["v"].nbytes + arrays["l"].nbytes < values.size * stored.dtype.itemsize


@pytest.mark.parametrize(
    "values",
    [np.array([]), np.array([42.2]), np.full(1000, 37.4), np.full(7, -3.0)],
    ids=["empty", "one", "constant", "negative-constant"],
)
def test_quantised_edge_columns(values):
    scheme, arrays = encode_column(values, quantise=True)
    decoded = decode_column(scheme, arrays)
    np.testing.assert_array_equal(decoded, np.round(values / QUANT_STEP) * QUANT_STEP)
    if values.size:
        assert scheme == QUANT_SCHEME
        stored = arrays.get("v", arrays.get(""))
        assert stored.dtype == (np.uint8 if values.min() >= 0 else np.int8)
    if values.size > 8:  # a constant column is one run
        assert arrays["v"].size == 1 and arrays["l"].tolist() == [values.size]


def test_telemetry_levels_are_one_or_two_bytes():
    """Utilization (0-100 %) fits uint8 at 0.5 steps, power (0-300 W) uint16."""
    rng = np.random.default_rng(3)
    for top, dtype in ((100.0, np.uint8), (300.0, np.uint16)):
        _, arrays = encode_column(rng.uniform(0.0, top, 500), quantise=True)
        assert arrays[""].dtype == dtype


@given(st.one_of(_int_arrays(), _float_arrays(), _object_arrays()), st.booleans())
@settings(max_examples=300, deadline=None)
def test_decoded_size_is_the_decoded_length(values, quantise):
    """Every scheme's parts tell their decoded length undecoded."""
    scheme, arrays = encode_column(values, quantise=quantise)
    assert decoded_size(scheme, arrays) == decode_column(scheme, arrays).size


def test_decoded_size_refuses_what_decoding_refuses():
    with pytest.raises(FrameError, match="unknown spill codec scheme 'quant'"):
        decoded_size("quant", {"v": np.zeros(2), "l": np.ones(2, dtype=np.int64)})
    with pytest.raises(FrameError, match="values/lengths mismatch"):
        decoded_size(QUANT_SCHEME, {"v": np.zeros(2, np.uint8), "l": np.ones(3, np.uint8)})


def test_older_quant_layout_is_refused():
    """A member written in the int64 delta-run layout raises FrameError
    instead of decoding its deltas as levels."""
    levels = np.array([10, 10, 12, 12, 12], dtype=np.int64)
    run_values, run_lengths = rle_encode(np.diff(levels, prepend=np.int64(0)))
    with pytest.raises(FrameError, match="unknown spill codec scheme 'quant'"):
        decode_column("quant", {"v": run_values, "l": run_lengths})


# ----------------------------------------------------------------------
# Packed members
# ----------------------------------------------------------------------

_PACK_DTYPES = (
    np.bool_, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64, np.float32, np.float64,
)
_SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, -0.0, 0.0)


@st.composite
def _pack_arrays(draw):
    """One array: any numeric dtype incl. the special floats, or an
    object array of str and None; empty, 1-D or 2-D."""
    shape = draw(st.sampled_from([(0,), (0, 3), (1,), (5,), (2, 3), (4, 1)]))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        element = st.one_of(st.none(), st.text(max_size=5))
        values = np.empty(size, dtype=object)
        values[:] = draw(st.lists(element, min_size=size, max_size=size))
        return values.reshape(shape)
    dtype = np.dtype(draw(st.sampled_from(_PACK_DTYPES)))
    if dtype.kind == "f":
        element = st.one_of(
            st.sampled_from(_SPECIAL_FLOATS), st.floats(width=dtype.itemsize * 8)
        )
    elif dtype.kind == "b":
        element = st.booleans()
    else:
        info = np.iinfo(dtype)
        element = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(element, min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


def _packed(parts):
    out = io.BytesIO()
    pack(parts, out)
    return out.getvalue()


@given(st.dictionaries(st.text(min_size=1, max_size=8), _pack_arrays(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_pack_round_trip_is_exact(parts):
    """Equal names, dtypes, shapes and bytes (NaN payloads and -0.0
    included); numeric parts come back writable."""
    data = _packed(parts)
    back = unpack(io.BytesIO(data), len(data))
    assert list(back) == list(parts)
    for name, values in parts.items():
        got = back[name]
        assert got.dtype == values.dtype and got.shape == values.shape, name
        if values.dtype == object:
            assert got.tolist() == values.tolist(), name
        else:
            assert got.tobytes() == values.tobytes(), name
            assert got.flags.writeable, name


def test_flipped_header_byte_is_rejected():
    """Every single-byte flip in the magic, the length or the header
    raises FrameError: nothing is misread as a different layout."""
    data = _packed(
        {
            "raw//f": np.array([1.5, np.nan, -0.0]),
            "dict/u/s": np.array(["a", None], dtype=object),
            "raw//i": np.arange(6, dtype=np.int32).reshape(2, 3),
        }
    )
    header_end = 8 + int.from_bytes(data[4:8], "little")
    for index in range(header_end):
        damaged = bytearray(data)
        damaged[index] ^= 0xFF
        with pytest.raises(FrameError):
            unpack(io.BytesIO(bytes(damaged)), len(damaged))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([["x", "<f8", [2], 0, 8]], "holds 8 bytes, not"),
        ([["x", "<f8", [1], 8, 8]], "outside the member"),
        ([["x", "<f8", [1], 0, 8], ["y", "<u1", [1], 0, 1]], "outside the member"),
        ([["x", "<f8", [-1], 0, 8]], "bad dtype, shape or offset"),
        ([["x", "<f8", [1], 0.5, 8]], "bad dtype, shape or offset"),
        ([["x", "|V8", [1], 0, 8]], "bad dtype, shape or offset"),
        ([["x", "not-a-dtype", [1], 0, 8]], "corrupt packed spill header"),
        ([["x", "<f8", [1], 0]], "corrupt packed spill header"),
        ([["x", "<f4", [1], 0, 4]], "parts end at byte"),
        ({"x": 1}, "corrupt packed spill header"),
    ],
)
def test_header_checks(entries, message):
    """Offsets and sizes must lie inside the member and in order, dtypes
    must be known, and a numeric size must equal shape x itemsize."""
    header = json.dumps(entries).encode()
    data = b"RPK2" + len(header).to_bytes(4, "little") + header + bytes(8)
    with pytest.raises(FrameError, match=message):
        unpack(io.BytesIO(data), len(data))
