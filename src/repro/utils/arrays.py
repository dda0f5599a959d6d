"""Array helpers used across layout transforms and engines.

The helpers here favour NumPy *views* (``as_strided`` windows, reshapes) over
copies, following the HPC-Python idiom that copying a large array costs as
much as a full arithmetic pass over it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``, positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round ``a`` up to the nearest multiple of ``multiple``."""
    return ceil_div(a, multiple) * multiple


def sliding_windows(arr: np.ndarray, window: int, axis: int = 0) -> np.ndarray:
    """Return a zero-copy view of all length-``window`` sliding windows along ``axis``.

    The returned array has one extra dimension inserted after ``axis`` holding
    the in-window offset, i.e. for a 1-D input of length ``n`` the result has
    shape ``(n - window + 1, window)``.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    axis = axis % arr.ndim
    n = arr.shape[axis]
    if window > n:
        raise ValueError(f"window {window} exceeds axis length {n}")
    new_shape = (
        arr.shape[:axis] + (n - window + 1, window) + arr.shape[axis + 1 :]
    )
    new_strides = (
        arr.strides[:axis]
        + (arr.strides[axis], arr.strides[axis])
        + arr.strides[axis + 1 :]
    )
    return as_strided(arr, shape=new_shape, strides=new_strides, writeable=False)


def strided_view(base: np.ndarray, shape: tuple, strides: tuple, col: int = 0) -> np.ndarray:
    """Zero-copy view of ``base`` from element ``col`` of its last axis on,
    with ``shape`` and byte ``strides``.

    A C-contiguous ``base`` is wrapped as a buffer, which costs a fraction
    of :func:`~numpy.lib.stride_tricks.as_strided` and bounds the view by
    the buffer's size; any other layout goes through ``as_strided``.  The
    view is writeable when ``base`` is.
    """
    if base.flags.c_contiguous:
        return np.ndarray(shape, base.dtype, buffer=base, offset=col * base.itemsize,
                          strides=strides)
    return as_strided(base[..., col:], shape=shape, strides=strides)


def as_chunks(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive chunks of ``seq`` of at most ``size`` elements."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]
