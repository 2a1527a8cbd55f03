"""BFK1 binary tensor files: magic "BFK1", u32 rank, u32 extents[rank],
then the prod(extents) float32 values (little-endian, row-major) and
nothing else. Used by the CLI for feature-map dumps and fixtures."""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"BFK1"


def save(path, tensor):
    """Write `tensor` as float32. A finite value beyond the float32 range
    raises ValueError instead of being written as an infinity; NaN and
    infinities are written as they are."""
    try:
        with np.errstate(over="raise"):
            arr = np.ascontiguousarray(tensor, dtype="<f4")
    except FloatingPointError:
        raise ValueError(f"{path}: a finite value lies beyond the float32 "
                         "range") from None
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.data)  # the contiguous buffer itself, not a copy


def load(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a BFK1 file")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated BFK1 header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    offset = 8 + 4 * rank
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated BFK1 header")
    shape = struct.unpack_from(f"<{rank}I", raw, 8)
    count = math.prod(shape)
    if len(raw) - offset != 4 * count:
        raise ValueError(f"{path}: BFK1 payload is not {count} values")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    with np.errstate(invalid="ignore"):  # a signaling NaN loads as NaN
        return data.reshape(shape).astype(np.float64)
