"""End-to-end forward pass and the desk-scale fitting routine.

One builder, `_build`, wires view transformation -> fusion -> query
selection -> decoder according to the configured ablation modes. `forward`
runs it on plain parameters; the fit runs the same graph on traced ones.
Fitting is plain gradient descent on the sum of a Gaussian-focal heatmap
loss, an L1 box loss on greedily matched predictions of every decoder
layer, and an auxiliary L1 height-supervision term (a harness-only
substitute for full detection training: without it the height generators
cannot be trained in desk time).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .decoder import (AttentionParams, DecoderParams, corner_sample,
                      encode_box, run_decoder, gaussian_focal_loss, l1_encoded,
                      ATTENTION_MODES)
from .geometry import BevGrid, world_to_cell
from .query_select import (GroupSpec, predict_heatmaps, topk_keypoints,
                           gaussian_target)
from .scene_sim import rasterize_lidar_bev, render_camera_features
from .tensor import LinearMap, chw_to_cells, linear_apply
from .view_transform import (VtParams, _heights_from_raw, adaptive_project,
                             adaptive_sample, fuse_bev, vanilla_vt_output)

VT_MODES = ("asap", "as_only", "ap_only", "vanilla")
QUERY_INIT_MODES = ("mixed_groupwise", "mixed_instancewise", "learnable", "heatmap")


@dataclass(frozen=True)
class PipelineConfig:
    """Model shape and ablation modes of one pipeline. The decoder's
    sinusoidal position encoding has `pe_dim` = max(4, channels rounded up
    to a multiple of 4) entries: a sin/cos pair per frequency and axis."""

    grid: BevGrid
    channels: int = 32
    n_heights: int = 4
    strides: tuple = (4, 8)
    groups: GroupSpec = field(default_factory=GroupSpec)
    n_points: int = 16
    n_layers: int = 6
    n_heads: int = 8
    vt_mode: str = "asap"
    query_init: str = "mixed_groupwise"
    attention_mode: str = "geometry_aware"

    def __post_init__(self):
        if self.vt_mode not in VT_MODES:
            raise ValueError(f"vt_mode must be one of {VT_MODES}")
        if self.query_init not in QUERY_INIT_MODES:
            raise ValueError(f"query_init must be one of {QUERY_INIT_MODES}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}")
        if not (self.n_heads >= 1 and self.channels % self.n_heads == 0):
            raise ValueError("n_heads must be a positive divisor of channels")
        if not (self.n_points >= 4 and self.n_points % 4 == 0):
            raise ValueError("n_points must be a positive multiple of 4 "
                             "(one point per box corner, cycled)")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if self.n_heights < 1:
            raise ValueError("n_heights must be at least 1")
        # top-k keypoints: every group picks its queries among the grid cells
        n_cells = self.grid.height * self.grid.width
        if (self.query_init != "learnable"
                and self.groups.queries_per_group > n_cells):
            raise ValueError(
                f"queries_per_group {self.groups.queries_per_group} exceeds "
                f"the {n_cells} grid cells")
        # decoder corners and heatmap radii convert metres to cells with
        # cell_size_x on both axes
        if not math.isclose(self.grid.cell_size_x, self.grid.cell_size_y):
            raise ValueError(
                f"grid cells must be square, got {self.grid.cell_size_x:g} m "
                f"x {self.grid.cell_size_y:g} m")

    @property
    def n_scales(self):
        return len(self.strides)

    @property
    def pe_dim(self):
        return max(4, 4 * ((self.channels + 3) // 4))


@dataclass(frozen=True)
class PipelineParams:
    vt: VtParams
    head: LinearMap           # per-cell heatmap scorer [C -> n_classes]
    group_embeds: object      # [n_groups, C], shared by each group's queries
    instance_embeds: object   # [n_queries, C]
    learnable_points: object  # [n_queries, 2] cell coords
    decoder: DecoderParams


INIT_SCALE = 0.5  # embedding std; linear maps: std INIT_SCALE / sqrt(fan-in)


def _init_linear(rng, out_dim, in_dim):
    w = rng.normal(0.0, INIT_SCALE / np.sqrt(in_dim), size=(out_dim, in_dim))
    return LinearMap(w, np.zeros(out_dim))


def init_params(config: PipelineConfig, seed) -> PipelineParams:
    """Seeded parameter initialization."""
    rng = np.random.default_rng(seed)
    C = config.channels
    n_h, n_s = config.n_heights, config.n_scales
    n_p = config.n_points
    k = config.groups.n_classes

    vt = VtParams(
        height_gen=_init_linear(rng, n_h, C),
        weight_gen=_init_linear(rng, n_s * n_h, C),
        kernel_gen=_init_linear(rng, C * C, C),
        fuse=_init_linear(rng, C, 2 * C))
    head = _init_linear(rng, k, C)

    n_q = config.groups.n_queries
    group_table = rng.normal(0.0, INIT_SCALE, size=(config.groups.n_groups, C))
    inst_table = rng.normal(0.0, INIT_SCALE, size=(n_q, C))
    pts = np.stack([rng.uniform(0, config.grid.width - 1, size=n_q),
                    rng.uniform(0, config.grid.height - 1, size=n_q)], axis=1)

    def attention():  # w_q, w_k, w_v, w_o, drawn in that order
        return AttentionParams(*(_init_linear(rng, C, C) for _ in range(4)))

    dec = DecoderParams(
        n_heads=config.n_heads,
        offset_gen=_init_linear(rng, 2 * n_p, C),
        point_weight_gen=_init_linear(rng, n_p, C),
        deform_out_proj=_init_linear(rng, C, C),
        pos_embed_proj=_init_linear(rng, C, config.pe_dim),
        channel_mix_gen=_init_linear(rng, C * C, C),
        spatial_mix_gen=_init_linear(rng, n_p * n_p, C),
        out_proj=_init_linear(rng, C, n_p * C),
        self_attn=tuple(attention() for _ in range(config.n_layers)),
        cross_attn=attention(),
        ffn1=_init_linear(rng, 2 * C, C),
        ffn2=_init_linear(rng, C, 2 * C),
        reg_head=_init_linear(rng, 8, C),
        cls_head=_init_linear(rng, k, C))
    return PipelineParams(vt=vt, head=head,
                          group_embeds=group_table,
                          instance_embeds=inst_table,
                          learnable_points=pts, decoder=dec)


def _scene_inputs(config: PipelineConfig, scene):
    """A scene's view-transform inputs: the scene, its LiDAR raster, its
    camera pyramids and "vanilla", its `vanilla_vt_output` in the `vanilla`
    and `ap_only` modes (no parameter reaches it) and None in the others."""
    grid = config.grid
    pyramids = render_camera_features(scene, grid, config.strides)
    vanilla = None
    if config.vt_mode in ("vanilla", "ap_only"):
        vanilla = vanilla_vt_output(pyramids, scene.cameras, grid,
                                    config.n_heights)
    return {"scene": scene, "lidar": rasterize_lidar_bev(scene, grid),
            "pyramids": pyramids, "vanilla": vanilla}


def _query_features(config: PipelineConfig, params: PipelineParams,
                    bev_fuse, heatmaps):
    """Query features [Nq, C], reference points [Nq, 2], and group ids,
    per the configured initialization mode."""
    spec = config.groups
    k = spec.queries_per_group
    group_ids = np.repeat(np.arange(spec.n_groups), k)

    if config.query_init == "learnable":
        ref = val(params.learnable_points).copy()
        return params.instance_embeds, ref, group_ids

    ref = np.concatenate(topk_keypoints(heatmaps, spec), axis=0)

    if config.query_init == "mixed_groupwise":
        feats = ad.getitem(params.group_embeds, (group_ids,))
    elif config.query_init == "mixed_instancewise":
        feats = params.instance_embeds
    else:  # heatmap: raw bilinear feature sampling at the keypoints
        feats = corner_sample(bev_fuse, ref)
    return feats, ref, group_ids


@dataclass
class DetectionOutput:
    """The final decoder layer of one forward pass: each query's group id,
    its boxes (`run_decoder`'s state arrays) and class scores [Nq, K], and
    the decoder's layer count."""

    group_ids: np.ndarray
    n_layers: int
    boxes: dict
    cls_probs: np.ndarray

    def to_json_dict(self, grid: BevGrid):
        """The final layer of one scene in detections.json's schema: a
        one-entry list [{"final": true, "layer": n_layers - 1,
        "predictions"}], per prediction {"box": {h, l, w, x, y, yaw, z} in
        metres and radians, "group", "query", "scores"}. It holds only
        Python bools, ints and floats, from `tolist()` columns, and each
        dict's keys are already in the sorted order that `cli._json_dump`
        writes."""
        b = self.boxes
        xs = grid.x_range[0] + (b["xc"] + 0.5) * grid.cell_size_x
        ys = grid.y_range[0] + (b["yc"] + 0.5) * grid.cell_size_y
        boxes = zip(*(a.tolist() for a in (
            b["h"], b["l"], b["w"], xs, ys, b["yaw"], b["z"])))
        preds = [{"box": {"h": h, "l": l, "w": w, "x": x, "y": y,
                          "yaw": yaw, "z": z},
                  "group": g, "query": q, "scores": s}
                 for q, (g, (h, l, w, x, y, yaw, z), s) in enumerate(
                     zip(self.group_ids.tolist(), boxes,
                         self.cls_probs.tolist()))]
        return [{"final": True, "layer": self.n_layers - 1,
                 "predictions": preds}]


def _build(config: PipelineConfig, params: PipelineParams, inputs):
    """The detection graph on one scene's `_scene_inputs`, with each stage's
    wall time: view transform, fusion, query selection, decoder. On
    `lift_tree`d parameters the graph is traced, so the fit trains the
    graph that `forward` runs. The view transform is inputs["vanilla"] when
    it is set, and `adaptive_sample` otherwise; `inputs` is only read.

    Returns a dict: bev_camera, diag (the VtOutput), bev_fuse, heatmaps
    (in every query-init mode: `learnable` queries do not read them, the
    heatmap loss does), ref [Nq, 2], group_ids [Nq], layers
    (`run_decoder`'s) and stage_times (seconds per stage: vt, fuse, select,
    decoder).
    """
    grid, lidar, pyramids = config.grid, inputs["lidar"], inputs["pyramids"]
    t_start = time.perf_counter()
    diag = inputs["vanilla"]
    if diag is None:
        diag = adaptive_sample(params.vt, lidar, pyramids,
                               inputs["scene"].cameras, grid)
    bev_camera = diag.bev
    if config.vt_mode in ("asap", "ap_only"):
        bev_camera = adaptive_project(params.vt, diag.bev, lidar)
    t_vt = time.perf_counter()
    bev_fuse = fuse_bev(params.vt, bev_camera, lidar)
    t_fuse = time.perf_counter()

    heatmaps = predict_heatmaps(params.head, bev_fuse)
    feats, ref, group_ids = _query_features(config, params, bev_fuse, heatmaps)
    t_select = time.perf_counter()

    layers = run_decoder(feats, ref, bev_fuse, params.decoder, grid,
                         mode=config.attention_mode)
    t_decoder = time.perf_counter()
    return {"bev_camera": bev_camera, "diag": diag, "bev_fuse": bev_fuse,
            "heatmaps": heatmaps, "ref": ref, "group_ids": group_ids,
            "layers": layers,
            "stage_times": {"vt": t_vt - t_start, "fuse": t_fuse - t_vt,
                            "select": t_select - t_fuse,
                            "decoder": t_decoder - t_select}}


def forward(config: PipelineConfig, params: PipelineParams, scene):
    """Full pipeline on one scene: `_build` on the scene's inputs.

    Returns (DetectionOutput, VtOutput, extras). The detections are the
    final layer's, its class scores the heatmaps' `ad.sigmoid` of its
    logits. extras holds the camera and fused BEV maps, the heatmaps and
    stage_times (seconds per stage).
    """
    graph = _build(config, params, _scene_inputs(config, scene))
    final = graph["layers"][-1]
    det = DetectionOutput(group_ids=graph["group_ids"],
                          n_layers=len(graph["layers"]), boxes=final["boxes"],
                          cls_probs=ad.sigmoid(val(final["cls"])))
    extras = {key: val(graph[key])
              for key in ("bev_camera", "bev_fuse", "heatmaps", "stage_times")}
    return det, graph["diag"], extras


# ---------------------------------------------------------------------------
# fitting


def greedy_match(pred_centers, gt_centers):
    """Nearest-center greedy matching: pairs sorted by distance, each side
    used at most once. Returns a list of (query_idx, gt_idx)."""
    if len(gt_centers) == 0 or len(pred_centers) == 0:
        return []
    d = np.linalg.norm(pred_centers[:, None, :] - gt_centers[None, :, :], axis=2)
    order = np.argsort(d, axis=None, kind="stable")
    used_q, used_g, pairs = set(), set(), []
    for flat in order:
        qi, gi = divmod(int(flat), d.shape[1])
        if qi in used_q or gi in used_g:
            continue
        pairs.append((qi, gi))
        used_q.add(qi)
        used_g.add(gi)
        if len(used_g) == d.shape[1]:
            break
    return pairs


def _gt_cells(grid: BevGrid, scene):
    """Continuous cell coordinates [n_boxes, 2] of the box centers."""
    return np.array([world_to_cell(grid, b.center[0], b.center[1])
                     for b in scene.boxes]).reshape(-1, 2)


def _scene_constants(config: PipelineConfig, scene):
    """Everything about a scene that is constant across fitting steps: its
    `_scene_inputs`, plus the loss targets."""
    grid = config.grid
    consts = _scene_inputs(config, scene)
    lidar = consts["lidar"]
    targets = gaussian_target(scene.boxes, grid, config.groups.n_classes)
    C = scene.channels
    occ_idx = np.nonzero(lidar[C - 1].ravel() > 0.5)[0]
    consts.update(heatmap_targets=targets, occ_idx=occ_idx,
                  z_true=lidar[C - 2].ravel()[occ_idx],
                  gt_cells=_gt_cells(grid, scene))
    return consts


def _height_loss(config: PipelineConfig, params: PipelineParams, consts):
    """Mean L1 error of the generated heights at the LiDAR-occupied cells
    (at least one) against each cell's true height."""
    rows = chw_to_cells(consts["lidar"])[consts["occ_idx"]]
    raw = linear_apply(params.vt.height_gen, rows)
    h = _heights_from_raw(raw, config.grid.z_range)
    return ad.mean(ad.absolute(ad.sub(h, consts["z_true"][:, None])))


def _scene_losses(config: PipelineConfig, params: PipelineParams, consts):
    """The loss terms of one scene, on the graph `_build` makes: "height"
    (`_height_loss`; absent when no cell is occupied), "heatmap" (Gaussian
    focal loss of the graph's heatmaps, in every query-init mode) and "box"
    (the L1 loss of each decoder layer's greedily matched boxes, averaged
    over the layers; absent in a scene without boxes)."""
    scene = consts["scene"]
    losses = {}
    if len(consts["occ_idx"]):
        losses["height"] = _height_loss(config, params, consts)

    graph = _build(config, params, consts)
    losses["heatmap"] = gaussian_focal_loss(graph["heatmaps"],
                                            consts["heatmap_targets"])

    if scene.boxes:
        ref = graph["ref"]
        per_layer = []
        for layer in graph["layers"]:
            boxes = layer["boxes"]
            centers = np.stack([boxes["xc"], boxes["yc"]], axis=1)
            pairs = greedy_match(centers, consts["gt_cells"])
            tgt = np.stack([
                encode_box(consts["gt_cells"][g], scene.boxes[g].center[2],
                           scene.boxes[g].dims, scene.boxes[g].yaw,
                           (ref[q][0], ref[q][1]))
                for q, g in pairs])
            pred_rows = ad.getitem(layer["enc"],
                                   (np.array([q for q, _ in pairs]),))
            per_layer.append(l1_encoded(pred_rows, tgt))
        losses["box"] = ad.div(functools.reduce(ad.add, per_layer),
                               float(len(per_layer)))
    return losses


@dataclass
class FitResult:
    params: PipelineParams
    curve: list  # dicts: step, total, and per-component values


def fit_generators(config: PipelineConfig, params: PipelineParams, scenes,
                   steps, lr, batch_size=None) -> FitResult:
    """Plain gradient descent of every parameter on synthetic scenes, at the
    constant step size lr, through the graph that `forward` runs.

    A step's loss sums every term of `_scene_losses` over the step's batch
    of scenes, each term divided by the batch size. Scenes are visited in
    fixed round-robin batches, so runs are deterministic. Raises
    RuntimeError on divergence (total loss above 1e6 or non-finite).
    """
    if steps < 1 or not scenes:
        raise ValueError("a fit needs steps >= 1 and at least one scene")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    consts = [_scene_constants(config, s) for s in scenes]
    lifted, train_vars = ad.lift_tree(params)
    n = len(scenes)
    bs = n if batch_size is None else min(batch_size, n)

    curve = []
    for step in range(steps):
        idx = [(step * bs + j) % n for j in range(bs)]
        total = None
        comps = {"heatmap": 0.0, "box": 0.0, "height": 0.0}
        for i in idx:
            for key, term in _scene_losses(config, lifted, consts[i]).items():
                comps[key] += float(val(term)) / len(idx)
                term = ad.mul(term, 1.0 / len(idx))
                total = term if total is None else ad.add(total, term)
        total_val = float(val(total))
        if not np.isfinite(total_val) or total_val > 1e6:
            raise RuntimeError(
                f"fit diverged at step {step}: total loss {total_val}")
        total.backward()
        ad.sgd_step(train_vars, lr)
        curve.append({"step": step, "total": total_val, **comps})
        # these names hold the step's whole tape; release it before the
        # next step builds its own
        total = term = None

    return FitResult(params=ad.unlift_tree(lifted), curve=curve)
