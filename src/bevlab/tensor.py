"""Core dense-tensor helpers: checked construction, the BEV cell layout,
per-cell linear maps, and the frequencies of the sinusoidal encoding.
Softmax, layer norm and relu are tape ops in `autodiff`.

Tensors are plain numpy float64 arrays. The scalar oracles (single-point
bilinear sampling, the sinusoidal encoding of one point, central-difference
gradients) live in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val


def as_tensor(data):
    """Copy `data` into a read-only float64 ndarray, rejecting NaN/Inf."""
    arr = np.array(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    arr.flags.writeable = False
    return arr


def chw_to_cells(x):
    """[C, H, W] map -> [H*W, C]: one row per cell, row-major over cells."""
    C, H, W = np.shape(val(x))
    return ad.transpose(ad.reshape(x, (C, H * W)), (1, 0))


def cells_to_chw(x, H, W):
    """[H*W, C] rows -> [C, H, W] map, the inverse of `chw_to_cells`."""
    return ad.reshape(ad.transpose(x, (1, 0)), (np.shape(val(x))[1], H, W))


@dataclass(frozen=True)
class LinearMap:
    """A dense affine map y = W x + b (the per-cell realization of every
    1x1 conv / linear generator in the pipeline)."""

    weight: object  # [out, in] ndarray (or Var during fitting)
    bias: object    # [out]

    def __post_init__(self):
        w, b = val(self.weight), val(self.bias)
        if np.ndim(w) != 2 or np.ndim(b) != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(
                f"inconsistent LinearMap shapes: weight {np.shape(w)}, bias {np.shape(b)}")

    @property
    def in_dim(self):
        return val(self.weight).shape[1]

    @property
    def out_dim(self):
        return val(self.weight).shape[0]


def linear_apply(m: LinearMap, x):
    """Apply an affine map to a batch of rows [N, in]."""
    vx = val(x)
    if np.shape(vx)[-1] != m.in_dim:
        raise ValueError(
            f"linear_apply: input dim {np.shape(vx)[-1]} != map in_dim {m.in_dim}")
    if np.ndim(vx) != 2:
        raise ValueError("linear_apply expects a 2-D input [N, in]")
    return ad.add(ad.matmul(x, ad.transpose(m.weight)), m.bias)


def sinusoid_freqs(dim):
    """Angular frequencies for one axis block of the sinusoidal encoding
    (`verify.sinusoidal_encode` writes out its layout)."""
    if dim % 4 != 0 or dim <= 0:
        raise ValueError("encoding dim must be a positive multiple of 4")
    half = dim // 2
    k = np.arange(dim // 4)
    return np.power(10000.0, -2.0 * k / half)
