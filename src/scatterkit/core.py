"""Dense row-major tensors, index tuples, coordinate picks and flat offsets.

Tensors are plain C-contiguous numpy arrays: float64 for data, int64 for
index-valued tables.  An index is an ordinary python tuple of ints.  A pick
is a sequence of coordinate positions; applied to an index it selects (and
may duplicate or reorder) coordinates.  All functions here are pure and all
values immutable once built, so everything can be shared freely.
"""

from __future__ import annotations

from decimal import Decimal
from numbers import Real

import numpy as np

from .errors import ArgumentError

Shape = tuple[int, ...]
Index = tuple[int, ...]
Pick = tuple[int, ...]


def as_shape(dims) -> Shape:
    """Normalize to a tuple of ints in [0, 2**63), the extents int64 holds."""
    shape = tuple(int(d) for d in dims)
    if any(not 0 <= d < 2**63 for d in shape):
        got = ", ".join(map(_entry_text, shape)) + "," * (len(shape) == 1)
        raise ArgumentError(f"shape extents must lie in [0, 2**63), got ({got})")
    return shape


def shape_size(shape) -> int:
    """Number of valid indices: product of extents (1 for rank 0)."""
    size = 1
    for d in shape:
        size *= int(d)
    return size


def flat_offsets(coords, shape) -> np.ndarray:
    """Row-major offsets within ``shape`` of per-axis coordinate arrays.

    ``coords`` holds one array per axis (``rows.T`` for an (n, rank) table),
    broadcasting together and lying inside ``shape``.  Raises ArgumentError
    when ``shape`` has 2**63 or more cells, where int64 offsets would wrap.
    The result may be a read-only view of a lone int64 coordinate, which
    already is its offsets.
    """
    if shape_size(shape) >= 2**63:
        raise ArgumentError(
            f"shape {tuple(shape)} has 2**63 or more cells; "
            "its flat offsets overflow int64"
        )
    if len(coords) == 1:
        lone = np.asarray(coords[0])
        if lone.dtype == np.int64:  # Horner's rule over one axis: no arithmetic
            lone = lone.view()
            lone.setflags(write=False)
            return lone
    offsets = np.empty(np.broadcast_shapes(*map(np.shape, coords)), dtype=np.int64)
    if len(coords) < 2:
        offsets[...] = coords[0] if len(coords) else 0
        return offsets
    # Horner's rule, its first step written straight into offsets: every
    # partial offset is in range
    np.multiply(coords[0], shape[1], out=offsets, dtype=np.int64)
    offsets += coords[1]
    for coord, extent in zip(coords[2:], shape[2:]):
        offsets *= extent
        offsets += coord
    return offsets


def _real_kind(arr, what) -> str:
    """The dtype kind of ``arr``, refusing what numpy would cast to a number
    though it is none: another dtype, or an object entry other than a bool,
    int, float, NumPy real scalar, Fraction or Decimal."""
    kind = arr.dtype.kind
    if kind == "O":
        for i, v in enumerate(arr.flat):  # numpy's timedelta64 is an integer
            if not isinstance(v, (Real, Decimal, np.bool_)) or isinstance(v, np.timedelta64):
                at = tuple(map(int, np.unravel_index(i, arr.shape)))
                raise ArgumentError(f"{what} entry {v!r} at {at} is not a real number")
    elif kind not in "biuf":
        raise ArgumentError(f"{what} dtype {arr.dtype} is not bool, integer or float")
    return kind


def as_data_tensor(values) -> np.ndarray:
    """Coerce to a C-ordered float64 array, returning one given as it is.

    Raises ArgumentError on data that is no real numbers, and on the first
    integer entry, in row-major order, outside [-2**53, 2**53], where
    float64 stops holding every integer, rather than round it."""
    arr = np.asarray(values, order="C")
    kind = _real_kind(arr, "data")
    if kind in "iu":
        at = np.flatnonzero((arr > 2**53) | (arr < -(2**53)))[:1]
        _refuse_rounded_ints(arr.reshape(-1), at, arr.shape)
    elif kind == "O":  # entries as listed, such as an int past uint64
        _refuse_rounded_ints(arr.reshape(-1), range(arr.size), arr.shape)
    elif kind == "f" and not isinstance(values, np.ndarray):  # a listed int beside a float
        at = np.flatnonzero(np.abs(arr) >= 2**53)
        listed = np.asarray(values, dtype=object).reshape(-1) if len(at) else ()
        _refuse_rounded_ints(listed, at, arr.shape)
    return arr.astype(np.float64, copy=False)


def _refuse_rounded_ints(listed, at, shape, start=0) -> None:
    """Raise ArgumentError naming the first integer outside [-2**53, 2**53]
    among the entries ``listed[i]``, ``i`` in ``at``, which are the row-major
    entries ``start + i`` of ``shape``."""
    for i in at:
        if isinstance(listed[i], (int, np.integer)) and not -(2**53) <= listed[i] <= 2**53:
            where = tuple(map(int, np.unravel_index(start + i, shape)))
            raise ArgumentError(f"data entry {_entry_text(listed[i])} at {where} is an "
                                "integer outside [-2**53, 2**53], where float64 holds "
                                "every integer")


def _entry_text(value) -> str:
    """``value`` as text, or, past Python's int-to-str digit limit, named by
    its sign, the bit length of its integer part and its type, with no digit
    converted."""
    try:
        return f"{value}"
    except ValueError:
        bits = int(abs(value)).bit_length()
        return f"{'-' if value < 0 else ''}<{bits}-bit {type(value).__name__}>"


def as_index_tensor(values) -> np.ndarray:
    """Coerce to a C-ordered int64 array; raise ArgumentError naming the
    first entry, in row-major order, whose value the cast would change: a
    fraction, NaN, an infinity or a value outside int64."""
    arr = np.asarray(values, order="C")
    kind = _real_kind(arr, "index")
    if kind in "bi" or np.can_cast(arr.dtype, np.int64):  # exact casts
        return arr.astype(np.int64, copy=False)
    if isinstance(values, np.ndarray) and kind in "fu":
        with np.errstate(invalid="ignore"):  # NaN and out-of-range casts
            cast = arr.astype(np.int64)
        bad = np.flatnonzero(cast != arr)
    else:  # entries as listed: a float beside a listed int would round it
        arr = np.asarray(values, dtype=object, order="C")
        bad = [i for i, v in enumerate(arr.flat)  # NaN compares false
               if not (-(2**63) <= v < 2**63 and v == int(v))]
        cast = None if bad else arr.astype(np.int64)
    if len(bad):
        at = tuple(map(int, np.unravel_index(bad[0], arr.shape)))
        value = arr.flat[bad[0]]
        raise ArgumentError(f"index entry {_entry_text(value)} at {at} is not an int64 "
                            "integer")
    return cast
