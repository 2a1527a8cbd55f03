"""LiDAR-guided view transformation into BEV space.

Two sampling pipelines share one engine: the adaptive path predicts per-cell
sampling heights and pooling weights from the LiDAR BEV features, the vanilla
baseline projects the same cell-independent heights everywhere and pools
uniformly. Adaptive projection then refines the sampled map with per-cell
channel kernels, and fusion maps each cell's camera and LiDAR channels, side
by side, through one per-cell linear map, a block of cells at a time.

Sampling gathers image features only where they exist: each (height, camera)
pair is projected once over every cell, but bilinear lookups, and their
gradients, run only on the cells that land inside that camera's image (about
a fifth of them for a surround rig of narrow cameras). One tape node,
`ad.sample_pool`, gathers each camera's level inside the (scale, height) loop
that pools it and pools over cameras, heights and scales, vectorized over the
H*W cells with a fixed summation order. It gathers [M, C] rows from a
cell-major [h*w, C] copy of each level, made once per scale. An untraced call
pools in place in two [H*W, C] arrays; a traced one keeps one [H*W, C]
camera mean per (scale, height).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .geometry import BevGrid, camera_planes, project_heights
from .tensor import LinearMap, cells_to_chw, chw_to_cells, linear_apply


@dataclass(frozen=True)
class VtParams:
    """Generators for the adaptive view transform, all per-cell linear maps.

    The arrays fix every count: C is `height_gen`'s input width, N_h
    (`n_heights`) its output width, and N_s (`n_scales`) `weight_gen`'s
    output width over N_h. The height mapping squashes raw outputs into the
    grid's z-range via tanh so projected points always stay inside the
    vertical ROI.
    """

    height_gen: LinearMap   # [C -> N_h]
    weight_gen: LinearMap   # [C -> N_s * N_h]
    kernel_gen: LinearMap   # [C -> C * C]
    fuse: LinearMap         # [2C -> C]

    def __post_init__(self):
        C = self.height_gen.in_dim
        n_h = self.n_heights
        if n_h < 1 or self.weight_gen.out_dim % n_h or self.n_scales < 1:
            raise ValueError("weight_gen must output n_scales * n_heights "
                             "logits, n_scales and n_heights at least 1")
        if self.kernel_gen.in_dim != C or self.kernel_gen.out_dim != C * C:
            raise ValueError("kernel_gen must map C -> C*C")
        if self.fuse.in_dim != 2 * C or self.fuse.out_dim != C:
            raise ValueError("fuse must map 2C -> C")

    @property
    def channels(self):
        return self.height_gen.in_dim

    @property
    def n_heights(self):
        return self.height_gen.out_dim

    @property
    def n_scales(self):
        return self.weight_gen.out_dim // self.n_heights


@dataclass(frozen=True)
class VtOutput:
    """Sampled BEV map plus per-cell diagnostics: the engine's own height
    and pooling-weight rows, one per cell in `tensor.chw_to_cells` order,
    and the fraction of each cell's samples that found an image."""

    bev: object                # [C, H, W]
    per_cell_heights: np.ndarray   # [H*W, N_h]
    per_cell_weights: np.ndarray   # [H*W, N_s*N_h]
    validity_fraction: np.ndarray  # [H, W]


def _heights_from_raw(raw, z_range):
    """Squash raw generator outputs into the vertical ROI z_range."""
    z_min, z_max = z_range
    mid = 0.5 * (z_min + z_max)
    half = 0.5 * (z_max - z_min)
    return ad.add(ad.mul(ad.tanh(raw), half), mid)


def _vt_engine(heights, weights, pyramids, cams, grid) -> VtOutput:
    """Shared sampling core of both samplers.

    heights: [N, N_h] (possibly traced), weights: [N, N_s*N_h] rows summing
    to 1, flattened scale-major (index j * N_h + i). Per sampled point the
    feature is the mean over cameras with a valid sample, zero when none.

    Each height's column is taken once, and each camera's `camera_planes`
    over the cells are made once, before that camera projects every
    height: each (height, camera) pair is projected once, keeping only the
    M lanes that land in front of the camera and inside its image.
    `ad.sample_pool` gathers every camera's levels at those lanes and pools
    them in one tape node, so neither the gathered rows nor the pooling's
    intermediate [N, C] maps stay on the tape. Backward touches only the
    gathered lanes too.
    """
    if len(pyramids) != len(cams):
        raise ValueError("one pyramid per camera required")
    H, W = grid.height, grid.width
    n_h = np.shape(val(heights))[1]
    n_s = len(pyramids[0].levels)
    n_cams = len(cams)
    X, Y = grid.cell_centers_flat()

    zs = [ad.getitem(heights, (slice(None), i)) for i in range(n_h)]
    lanes = [[None] * n_cams for _ in range(n_h)]
    for k, cam in enumerate(cams):
        planes = camera_planes(cam, X, Y)
        for i, z in enumerate(zs):
            x_px, y_px, proj_ok = project_heights(cam, planes, z)
            idx = np.flatnonzero(proj_ok)
            lanes[i][k] = (idx, ad.getitem(x_px, idx), ad.getitem(y_px, idx))
    out, valid_total = ad.sample_pool([p.levels for p in pyramids], lanes,
                                      weights)

    frac = valid_total / (n_h * n_s * n_cams)
    return VtOutput(bev=cells_to_chw(out, H, W), per_cell_heights=val(heights),
                    per_cell_weights=val(weights),
                    validity_fraction=frac.reshape(H, W))


def adaptive_sample(params: VtParams, lidar_bev, pyramids, cams,
                    grid: BevGrid) -> VtOutput:
    """LiDAR-guided sampling of multi-scale image features into BEV space.

    Per cell: heights are generated from the LiDAR features, each (X, Y, Z_i)
    is projected into every camera and sampled at every pyramid level, and
    the N_s*N_h point features are pooled with softmax weights that are also
    generated from the LiDAR features (no re-normalization over validity).
    """
    if len({p.strides for p in pyramids}) != 1:
        raise ValueError("all cameras must share the pyramid strides")
    if len(pyramids[0].levels) != params.n_scales:
        raise ValueError("pyramid level count must equal n_scales")
    if pyramids[0].channels != params.channels:
        raise ValueError("pyramid channels must match the generators")

    lidar_flat = chw_to_cells(lidar_bev)
    raw = linear_apply(params.height_gen, lidar_flat)
    heights = _heights_from_raw(raw, grid.z_range)
    weights = ad.softmax(linear_apply(params.weight_gen, lidar_flat))
    return _vt_engine(heights, weights, pyramids, cams, grid)


def vanilla_vt_output(pyramids, cams, grid: BevGrid, n_heights) -> VtOutput:
    """Baseline transform with diagnostics: project the same n_heights
    heights, the bin centers of the grid's z-range (its midpoint for one
    height), from every cell and pool uniformly over all scales/heights."""
    k = np.arange(n_heights)
    fixed = grid.z_range[0] + (k + 0.5) * grid.z_span / n_heights
    N = grid.height * grid.width
    n = len(pyramids[0].levels) * n_heights
    return _vt_engine(np.tile(fixed, (N, 1)), np.full((N, n), 1.0 / n),
                      pyramids, cams, grid)


def adaptive_project(params: VtParams, bev_as, lidar_bev):
    """Refine the sampled BEV map with per-cell channel kernels generated
    from the LiDAR features: out(u,v) = bev_as(u,v) @ K(u,v), a row vector
    times the C x C kernel K(u,v) = reshape(kernel_gen(lidar(u,v)), (C, C)).

    ``ad.dynamic_filter`` generates and applies the kernels a block of cells
    at a time, so the [H*W, C*C] kernels never exist at once."""
    C, H, W = np.shape(val(bev_as))
    if np.shape(val(lidar_bev)) != (C, H, W):
        raise ValueError("bev_as and lidar_bev shapes must agree")
    out = ad.dynamic_filter(chw_to_cells(bev_as), chw_to_cells(lidar_bev),
                            params.kernel_gen.weight, params.kernel_gen.bias)
    return cells_to_chw(out, H, W)


def fuse_bev(params: VtParams, bev_camera, bev_lidar):
    """Fuse camera and LiDAR BEV maps: the per-cell linear map `params.fuse`
    of each cell's camera and LiDAR channels side by side, applied by
    ``ad.concat_linear`` a block of cells at a time, so the [H*W, 2C]
    concatenation never exists at once."""
    if np.shape(val(bev_camera)) != np.shape(val(bev_lidar)):
        raise ValueError("camera and lidar BEV shapes must agree")
    C, H, W = np.shape(val(bev_camera))
    fused = ad.concat_linear([chw_to_cells(bev_camera),
                              chw_to_cells(bev_lidar)],
                             params.fuse.weight, params.fuse.bias)
    return cells_to_chw(fused, H, W)
