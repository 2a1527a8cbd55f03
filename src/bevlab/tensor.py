"""Core dense-tensor helpers: checked construction, the BEV cell layout,
per-cell linear maps, scalar bilinear sampling, and sinusoidal encoding.
Softmax, layer norm and relu are tape ops in `autodiff`.

Tensors are plain numpy float64 arrays. The finite-difference gradient here
is the verification oracle for every analytic gradient in the package.
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

    @classmethod
    def zeros(cls, out_dim, in_dim):
        return cls(np.zeros((out_dim, in_dim)), np.zeros(out_dim))


def linear_apply(m: LinearMap, x):
    """Apply an affine map to a batch of rows [N, in]."""
    vx = val(x)
    if np.shape(vx)[-1] != m.in_dim:
        raise ValueError(
            f"linear_apply: input dim {np.shape(vx)[-1]} != map in_dim {m.in_dim}")
    if np.ndim(vx) != 2:
        raise ValueError("linear_apply expects a 2-D input [N, in]")
    return ad.add(ad.matmul(x, ad.transpose(m.weight)), m.bias)


def bilinear_sample(fmap, p):
    """Bilinear sample of a [C, H, W] map at a single continuous point.

    p = (x, y) with x indexing columns and y indexing rows. Points outside
    the closed box [0, W-1] x [0, H-1] return (zeros, False): zero-padding
    semantics, so out-of-frustum projections contribute nothing.

    Returns (feature [C], valid flag).
    """
    fmap = np.asarray(fmap)
    C, H, W = fmap.shape
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= W - 1 and 0.0 <= y <= H - 1):
        return np.zeros(C, dtype=fmap.dtype), False
    x0 = min(int(np.floor(x)), W - 2) if W > 1 else 0
    y0 = min(int(np.floor(y)), H - 2) if H > 1 else 0
    x1 = min(x0 + 1, W - 1)
    y1 = min(y0 + 1, H - 1)
    fx = x - x0
    fy = y - y0
    out = (fmap[:, y0, x0] * (1 - fx) * (1 - fy)
           + fmap[:, y0, x1] * fx * (1 - fy)
           + fmap[:, y1, x0] * (1 - fx) * fy
           + fmap[:, y1, x1] * fx * fy)
    return out, True


def sinusoid_freqs(dim):
    """Angular frequencies for one axis block of sinusoidal_encode."""
    if dim % 4 != 0 or dim <= 0:
        raise ValueError("encoding dim must be a positive multiple of 4")
    half = dim // 2
    k = np.arange(dim // 4)
    return np.power(10000.0, -2.0 * k / half)


def sinusoidal_encode(p, dim):
    """Sinusoidal position encoding of a 2-D point normalized to [0, 1]^2.

    Layout: dim/2 entries per axis (x block then y block); within a block,
    sin/cos interleaved per frequency, frequencies 10000^(-2k/(dim/2)).
    """
    freqs = sinusoid_freqs(dim)
    out = np.empty(dim)
    for axis, coord in enumerate(p):
        phase = float(coord) * freqs
        block = np.empty(dim // 2)
        block[0::2] = np.sin(phase)
        block[1::2] = np.cos(phase)
        out[axis * (dim // 2):(axis + 1) * (dim // 2)] = block
    return out


def finite_diff_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a tensor.

    The independent numeric oracle checked against every analytic gradient.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    for i in range(x.size):
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[i] += eps
        xm[i] -= eps
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite function evaluation in finite_diff_grad")
        flat[i] = (fp - fm) / (2.0 * eps)
    return grad
