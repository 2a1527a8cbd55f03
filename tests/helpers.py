"""Shared test utilities: gradient checking against finite differences and
small fixture builders."""

import numpy as np

from bevlab.verify import _gradcheck_tree


def rel_err(analytic, numeric):
    """Max absolute deviation over the max numeric magnitude (guarded)."""
    ana = np.asarray(analytic, dtype=float)
    num = np.asarray(numeric, dtype=float)
    scale = max(float(np.max(np.abs(num))), 1e-8)
    return float(np.max(np.abs(ana - num)) / scale)


def gradcheck(build_loss, arrays, eps=1e-6, rtol=1e-4):
    """Check analytic gradients of a scalar loss against central differences
    with `verify._gradcheck_tree`; asserts each relative error is below rtol.

    arrays: name -> ndarray. build_loss receives a dict mapping each name to
    a Var and returns a scalar. Every input must receive a gradient.
    """
    tracked = {}

    def loss(_params, t):
        tracked.update(t)
        return build_loss(t)

    _gradcheck_tree(loss, None, arrays, eps=eps, rtol=rtol)
    for name, var in tracked.items():
        assert var.grad is not None, f"no gradient reached {name}"


def dense_pyramids(rng, n_cams, C, image_size, strides):
    """Random feature pyramids with energy everywhere (for gradient work)."""
    from bevlab.geometry import FeaturePyramid

    out = []
    for _ in range(n_cams):
        levels = []
        for s in strides:
            shape = (C, image_size[1] // s, image_size[0] // s)
            levels.append((s, rng.normal(size=shape)))
        out.append(FeaturePyramid(tuple(levels)))
    return out
