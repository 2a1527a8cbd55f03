"""Group-wise query initialization: center heatmaps, Gaussian targets and
top-k keypoint extraction. `pipeline._query_features` pairs the keypoint
positions with the per-group shared embeddings that mixed queries take
their features from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .geometry import BevGrid, is_int, world_to_cell
from .tensor import LinearMap, cells_to_chw, chw_to_cells, linear_apply

# similarly sized classes share a group (ids into scene_sim.CLASS_NAMES)
DEFAULT_GROUPS = ((0,), (1, 2), (3, 4), (5,), (6, 7), (8, 9))
DEFAULT_QUERIES_PER_GROUP = 150


@dataclass(frozen=True)
class GroupSpec:
    groups: tuple = DEFAULT_GROUPS
    queries_per_group: int = DEFAULT_QUERIES_PER_GROUP

    def __post_init__(self):
        if not self.groups or not all(self.groups):
            raise ValueError("groups must be non-empty lists of class ids")
        flat = [c for g in self.groups for c in g]
        if not all(map(is_int, flat)) or sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must partition the class-id set 0..K-1")
        if self.queries_per_group < 1:
            raise ValueError("queries_per_group must be >= 1")

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def n_classes(self):
        return sum(len(g) for g in self.groups)

    @property
    def n_queries(self):
        return self.n_groups * self.queries_per_group


def gaussian_target(boxes, grid: BevGrid, n_classes):
    """Per-class heatmap targets: at each cell the max over that class's
    objects of exp(-d^2 / (2 sigma^2)), d in cells from the cell nearest the
    object center, sigma = max(1, min(l, w) / (3 cell)) cells. The peak cell
    is exactly 1. A box whose center cell falls outside the grid is skipped;
    `scene_sim.make_scene` keeps every center `BOX_MARGIN` inside it.

    Returns the targets [n_classes, H, W].
    """
    H, W = grid.height, grid.width
    targets = np.zeros((n_classes, H, W))
    uu, vv = np.meshgrid(np.arange(W), np.arange(H))
    for box in boxes:
        u, v = world_to_cell(grid, box.center[0], box.center[1])
        u0, v0 = int(round(u)), int(round(v))
        if not (0 <= u0 < W and 0 <= v0 < H):
            continue
        sigma = max(1.0, min(box.dims[0], box.dims[1]) / (3.0 * grid.cell_size_x))
        gauss = np.exp(-((uu - u0) ** 2 + (vv - v0) ** 2) / (2.0 * sigma ** 2))
        targets[box.class_id] = np.maximum(targets[box.class_id], gauss)
    return targets


def predict_heatmaps(scorer: LinearMap, bev_fuse):
    """Sigmoid center-likelihood scores, [n_classes, H, W], entries in (0,1):
    the per-cell scorer [C -> n_classes] applied to every cell."""
    _, H, W = np.shape(val(bev_fuse))
    scores = ad.sigmoid(linear_apply(scorer, chw_to_cells(bev_fuse)))
    return cells_to_chw(scores, H, W)


def _local_max_mask(score):
    """Cells >= all 8 neighbors (missing neighbors ignored)."""
    H, W = score.shape
    padded = np.full((H + 2, W + 2), -np.inf)
    padded[1:-1, 1:-1] = score
    keep = np.ones((H, W), dtype=bool)
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            if dv == 0 and du == 0:
                continue
            keep &= score >= padded[1 + dv:H + 1 + dv, 1 + du:W + 1 + du]
    return keep


def topk_keypoints(heatmaps, spec: GroupSpec):
    """Top-k keypoints per group.

    Group channels are collapsed by per-cell max, 3x3 local-maximum
    suppression is applied, and the k best surviving cells are taken (ties
    broken by row-major index). When fewer than k cells survive, the best
    suppressed cells fill the remainder.

    Returns a list per group of its positions [k, 2], float (u, v).
    """
    hm = val(heatmaps)
    K, H, W = hm.shape
    k = spec.queries_per_group
    if k > H * W:
        raise ValueError("k exceeds the number of grid cells")
    out = []
    for group in spec.groups:
        gmap = hm[list(group)].max(axis=0)
        keep = _local_max_mask(gmap).ravel()
        flat = gmap.ravel()
        # survivors first, each part by -score; the stable sort breaks ties
        # by row-major index
        chosen = np.lexsort((-flat, ~keep))[:k]
        out.append(np.stack([(chosen % W).astype(float),
                             (chosen // W).astype(float)], axis=1))
    return out
