"""Camera projection, BEV-grid/world coordinate mapping, and multi-scale
feature pyramids.

The center of a single cell, `cell_to_world`, is an oracle of
`BevGrid.cell_centers_flat` and lives in `verify`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .tensor import as_tensor

NEAR_PLANE = 0.1  # meters; points closer than this are behind/too close


def is_int(x):
    """An integer that is not a bool (a JSON ``true`` is no count)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics (zero skew), rigid world->camera transform,
    and pixel extent of the image it produced."""

    intrinsics: np.ndarray   # [3, 3]
    rotation: np.ndarray     # [3, 3] world->camera
    translation: np.ndarray  # [3]
    image_size: tuple        # (width_px, height_px)

    def __post_init__(self):
        object.__setattr__(self, "intrinsics", as_tensor(self.intrinsics))
        object.__setattr__(self, "rotation", as_tensor(self.rotation))
        object.__setattr__(self, "translation", as_tensor(self.translation))
        K, R = self.intrinsics, self.rotation
        if K.shape != (3, 3) or R.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("camera parameter shapes must be 3x3, 3x3, 3")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if abs(K[0, 1]) > 1e-12:
            raise ValueError("skew must be zero")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be orthonormal")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")

    @property
    def fx(self):
        return float(self.intrinsics[0, 0])

    @property
    def fy(self):
        return float(self.intrinsics[1, 1])

    @property
    def cx(self):
        return float(self.intrinsics[0, 2])

    @property
    def cy(self):
        return float(self.intrinsics[1, 2])


@dataclass(frozen=True)
class BevGrid:
    """Mapping between BEV cell indices and metric world coordinates.

    Cells are indexed (u, v) with u along X (width W) and v along Y
    (height H); maps are stored [C, H, W] = [c, v, u]."""

    x_range: tuple
    y_range: tuple
    z_range: tuple
    cells: tuple  # (H, W)

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not (hi > lo and np.isfinite(hi - lo)):
                raise ValueError("range max must exceed min, both finite")
        if not (len(self.cells) == 2
                and all(is_int(n) and n >= 1 for n in self.cells)):
            raise ValueError("cells must be two positive integers (H, W)")

    @property
    def height(self):
        return self.cells[0]

    @property
    def width(self):
        return self.cells[1]

    @property
    def cell_size_x(self):
        return (self.x_range[1] - self.x_range[0]) / self.width

    @property
    def cell_size_y(self):
        return (self.y_range[1] - self.y_range[0]) / self.height

    @property
    def z_span(self):
        return self.z_range[1] - self.z_range[0]

    def cell_centers_flat(self):
        """World (X, Y) of every cell center, row-major over (v, u): two
        [H*W] arrays."""
        u = np.arange(self.width)
        v = np.arange(self.height)
        X = self.x_range[0] + (u + 0.5) * self.cell_size_x
        Y = self.y_range[0] + (v + 0.5) * self.cell_size_y
        XX, YY = np.meshgrid(X, Y)  # [H, W]
        return XX.ravel(), YY.ravel()


def world_to_cell(grid: BevGrid, X, Y):
    """Continuous cell coordinates of a world point; may fall outside the
    grid (callers check)."""
    u = (X - grid.x_range[0]) / grid.cell_size_x - 0.5
    v = (Y - grid.y_range[0]) / grid.cell_size_y - 0.5
    return u, v


@dataclass(frozen=True)
class FeaturePyramid:
    """Multi-resolution feature maps of one camera image, indexed by
    downsampling stride."""

    levels: tuple  # ((stride, map [C, H_j, W_j]), ...)

    def __post_init__(self):
        strides = [s for s, _ in self.levels]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError("strides must be strictly increasing")
        channels = {np.shape(val(m))[0] for _, m in self.levels}
        if len(channels) > 1:
            raise ValueError("all pyramid levels must share the channel count")

    @property
    def strides(self):
        return tuple(s for s, _ in self.levels)

    @property
    def channels(self):
        return np.shape(val(self.levels[0][1]))[0]


def project_to_image(cam: CameraModel, p):
    """Project a world point to pixel coordinates.

    Returns (x_px, y_px, valid). valid is False when the point is closer
    than the near plane (0.1 m) or the pixel falls outside the closed box
    [0, W-1] x [0, H-1]; coordinates are meaningless in the near-plane case.
    Never raises.
    """
    pc = cam.rotation @ np.asarray(p, dtype=np.float64) + cam.translation
    if pc[2] <= NEAR_PLANE:
        return 0.0, 0.0, False
    x = cam.fx * pc[0] / pc[2] + cam.cx
    y = cam.fy * pc[1] / pc[2] + cam.cy
    W, H = cam.image_size
    valid = (0.0 <= x <= W - 1) and (0.0 <= y <= H - 1)
    return float(x), float(y), valid


def camera_planes(cam: CameraModel, X, Y):
    """Camera-frame coordinates (xc, yc, zc) of the world points (X[N],
    Y[N], 0): the terms R[i, 0] X + R[i, 1] Y + t[i] of `project_heights`
    that do not depend on Z, which a caller that projects the same (X, Y)
    at several heights makes once per camera."""
    R, t = cam.rotation, cam.translation
    return tuple(R[i, 0] * X + R[i, 1] * Y + t[i] for i in range(3))


def project_heights(cam: CameraModel, planes, Z):
    """Vectorized projection of world points (X[N], Y[N], Z[N]) given by
    their `camera_planes` and their heights Z.

    The planes are plain arrays (of cell centers); Z may be traced, so the
    pixel coordinates stay differentiable in Z. A camera-frame coordinate whose
    rotation row has no Z term (R[i, 2] == 0) cannot depend on Z, so it is
    computed from the plain Z by the same expression, with the same values.
    For a level camera, as every camera of `scene_sim.camera_ring` is, x_px
    is then a plain array and only y_px is traced, and a gather at these
    points keeps no d/dx. Returns (x_px, y_px, valid) where valid is a
    plain bool array.
    """
    R = cam.rotation
    xc, yc, zc = (ad.add(ad.mul(val(Z) if R[i, 2] == 0.0 else Z, R[i, 2]),
                         planes[i]) for i in range(3))
    depth_ok = val(zc) > NEAR_PLANE
    # keep the division finite where depth is invalid; those lanes are masked
    zc_safe = ad.where_mask(depth_ok, zc, np.ones_like(val(zc)))
    x = ad.add(ad.mul(ad.div(xc, zc_safe), cam.fx), cam.cx)
    y = ad.add(ad.mul(ad.div(yc, zc_safe), cam.fy), cam.cy)
    W, H = cam.image_size
    vx, vy = val(x), val(y)
    valid = depth_ok & (vx >= 0) & (vx <= W - 1) & (vy >= 0) & (vy <= H - 1)
    return x, y, valid
