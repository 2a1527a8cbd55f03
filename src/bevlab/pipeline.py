"""End-to-end forward pass and the desk-scale fitting routine.

The forward pass wires view transformation -> fusion -> query selection ->
decoder according to the configured ablation modes. Fitting is plain
gradient descent on a Gaussian-focal heatmap loss, an L1 box loss on
greedily matched predictions, and an auxiliary L1 height-supervision term
(a harness-only substitute for full detection training: without it the
height generators cannot be trained in desk time).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .decoder import (AttentionParams, DecoderParams, encode_box, run_decoder,
                      gaussian_focal_loss, l1_encoded, ATTENTION_MODES)
from .geometry import BevGrid, world_to_cell
from .query_select import (GroupEmbeddings, GroupSpec, HeatmapHead,
                           predict_heatmaps, topk_keypoints, gaussian_target)
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
    head: HeatmapHead
    group_embeds: GroupEmbeddings
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
    head = HeatmapHead(scorer=_init_linear(rng, k, C))

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
                          group_embeds=GroupEmbeddings(group_table),
                          instance_embeds=inst_table,
                          learnable_points=pts, decoder=dec)


def vanilla_heights(grid: BevGrid, n_heights):
    """Cell-independent baseline heights, evenly spread over the z-range
    (bin centers; the midpoint for a single height)."""
    k = np.arange(n_heights)
    return grid.z_range[0] + (k + 0.5) * grid.z_span / n_heights


def _scene_inputs(config: PipelineConfig, scene):
    """A scene's view-transform inputs: the scene, its LiDAR raster, its
    camera pyramids, and a `vanilla` slot that `_run_vt` fills."""
    return {"scene": scene,
            "lidar": rasterize_lidar_bev(scene, config.grid),
            "pyramids": render_camera_features(scene, config.grid,
                                               config.strides),
            "vanilla": None}


def _run_vt(config: PipelineConfig, params: PipelineParams, inputs):
    """Camera-branch BEV map per the configured mode, plus diagnostics.

    inputs: the scene's `_scene_inputs`. The vanilla sampling (`vanilla` and
    `ap_only` modes) does not depend on the parameters: it is built into
    inputs["vanilla"] the first time the scene needs it, at
    `vanilla_heights(grid, config.n_heights)`, and reused after.
    """
    grid = config.grid
    mode = config.vt_mode
    lidar, pyramids = inputs["lidar"], inputs["pyramids"]
    cams = inputs["scene"].cameras
    if mode in ("asap", "as_only"):
        diag = adaptive_sample(params.vt, lidar, pyramids, cams, grid)
    else:
        if inputs["vanilla"] is None:
            inputs["vanilla"] = vanilla_vt_output(
                pyramids, cams, grid, vanilla_heights(grid, config.n_heights))
        diag = inputs["vanilla"]
    if mode in ("asap", "ap_only"):
        bev_camera = adaptive_project(params.vt, diag.bev, lidar)
    else:
        bev_camera = diag.bev
    return bev_camera, diag


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

    kps = topk_keypoints(val(heatmaps), spec)
    ref = np.concatenate([pos for pos, _ in kps], axis=0)

    if config.query_init == "mixed_groupwise":
        feats = ad.getitem(params.group_embeds.table, (group_ids,))
    elif config.query_init == "mixed_instancewise":
        feats = params.instance_embeds
    else:  # heatmap: raw bilinear feature sampling at the keypoints
        from .decoder import corner_sample
        feats = corner_sample(bev_fuse, ref)
    return feats, ref, group_ids


@dataclass
class DetectionOutput:
    """Per-layer predictions of one forward pass; the last layer is final."""

    ref_points: np.ndarray
    group_ids: np.ndarray
    layers: list  # dicts: enc [Nq,8], cls_probs [Nq,K], boxes (state arrays)

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def final(self):
        return self.layers[-1]

    def to_json_dict(self, grid: BevGrid):
        """The layers of one scene in detections.json's schema: per layer
        {"layer", "final", "predictions"}, per prediction {"query",
        "group", "box": {x, y, z, l, w, h, yaw} in metres and radians,
        "scores"}. `write_detections` writes the same document without
        building it."""
        out = []
        for li, layer in enumerate(self.layers):
            boxes = layer["boxes"]
            preds = []
            for qi in range(self.ref_points.shape[0]):
                u, vv = boxes["xc"][qi], boxes["yc"][qi]
                x = grid.x_range[0] + (u + 0.5) * grid.cell_size_x
                y = grid.y_range[0] + (vv + 0.5) * grid.cell_size_y
                preds.append({
                    "query": int(qi),
                    "group": int(self.group_ids[qi]),
                    "box": {"x": float(x), "y": float(y),
                            "z": float(boxes["z"][qi]),
                            "l": float(boxes["l"][qi]),
                            "w": float(boxes["w"][qi]),
                            "h": float(boxes["h"][qi]),
                            "yaw": float(boxes["yaw"][qi])},
                    "scores": [float(s) for s in layer["cls_probs"][qi]],
                })
            out.append({"layer": li, "final": li == len(self.layers) - 1,
                        "predictions": preds})
        return out


def _json_rows(table):
    """Rows of a float table as Python floats (whose str() is json's float
    text), with each non-finite value replaced by json's token for it."""
    rows = table.tolist()
    finite = np.isfinite(table)
    if not finite.all():
        for i, j in zip(*np.nonzero(~finite)):
            v = rows[i][j]
            rows[i][j] = "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    return rows


def _prediction_json(query, group, r):
    """One prediction of `_layer_json`: r holds the box values in sorted key
    order (h, l, w, x, y, yaw, z), then the class scores."""
    scores = ",\n       ".join(map(str, r[7:]))
    return (f'     {{\n      "box": {{\n       "h": {r[0]},\n       "l": {r[1]},\n'
            f'       "w": {r[2]},\n       "x": {r[3]},\n       "y": {r[4]},\n'
            f'       "yaw": {r[5]},\n       "z": {r[6]}\n      }},\n'
            f'      "group": {group},\n      "query": {query},\n'
            f'      "scores": [\n       {scores}\n      ]\n     }}')


def _layer_json(det: DetectionOutput, li, grid: BevGrid):
    layer = det.layers[li]
    boxes = layer["boxes"]
    x = grid.x_range[0] + (boxes["xc"] + 0.5) * grid.cell_size_x
    y = grid.y_range[0] + (boxes["yc"] + 0.5) * grid.cell_size_y
    rows = _json_rows(np.column_stack([
        boxes["h"], boxes["l"], boxes["w"], x, y, boxes["yaw"], boxes["z"],
        layer["cls_probs"]]))
    preds = ",\n".join(_prediction_json(q, g, r) for q, (g, r) in
                       enumerate(zip(det.group_ids.tolist(), rows)))
    final = "true" if li == det.n_layers - 1 else "false"
    return (f'   {{\n    "final": {final},\n    "layer": {li},\n'
            f'    "predictions": [\n{preds}\n    ]\n   }}')


def write_detections(path, outputs, grid: BevGrid):
    """Write detections.json for a list of per-scene DetectionOutputs.

    The file holds [{"scene": i, "layers": outputs[i].to_json_dict(grid)}]
    byte for byte as ``json.dump(..., indent=1, sort_keys=True)`` plus a
    newline would write it. It is built from fixed per-prediction
    templates, because ``json`` indents with its pure-Python encoder, which
    walks the dicts one value at a time.
    Floats are written by repr, as json writes them; NaN and infinities as
    json's NaN, Infinity and -Infinity.
    """
    scenes = []
    for i, det in enumerate(outputs):
        layers = ",\n".join(_layer_json(det, li, grid)
                            for li in range(det.n_layers))
        scenes.append(f' {{\n  "layers": [\n{layers}\n  ],\n  "scene": {i}\n }}')
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(scenes) + "\n]\n" if scenes else "[]\n")


def forward(config: PipelineConfig, params: PipelineParams, scene):
    """Full pipeline on one scene.

    Returns (DetectionOutput, VtOutput, extras) where extras carries the
    intermediate maps and per-stage wall times.
    """
    grid = config.grid
    extras = {}
    inputs = _scene_inputs(config, scene)
    lidar = inputs["lidar"]
    t_scene = time.perf_counter()

    bev_camera, diag = _run_vt(config, params, inputs)
    t_vt = time.perf_counter()
    bev_fuse = fuse_bev(params.vt, bev_camera, lidar)
    t_fuse = time.perf_counter()

    heatmaps = None
    if config.query_init != "learnable":
        heatmaps = predict_heatmaps(params.head, bev_fuse)
    feats, ref, group_ids = _query_features(config, params, bev_fuse, heatmaps)
    t_select = time.perf_counter()

    layers = run_decoder(feats, ref, bev_fuse, params.decoder, grid,
                         mode=config.attention_mode)
    t_decoder = time.perf_counter()

    out_layers = []
    for layer in layers:
        probs = 1.0 / (1.0 + np.exp(-val(layer["cls"])))
        out_layers.append({"enc": val(layer["enc"]), "cls_probs": probs,
                           "boxes": layer["boxes"]})
    det = DetectionOutput(ref_points=ref, group_ids=group_ids, layers=out_layers)

    extras["lidar"] = lidar
    extras["bev_camera"] = val(bev_camera)
    extras["bev_fuse"] = val(bev_fuse)
    extras["heatmaps"] = None if heatmaps is None else val(heatmaps)
    extras["stage_times"] = {
        "vt": t_vt - t_scene, "fuse": t_fuse - t_vt,
        "select": t_select - t_fuse, "decoder": t_decoder - t_select,
    }
    return det, diag, extras


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
    targets, _ = gaussian_target(scene.boxes, grid, config.groups.n_classes)
    C = scene.channels
    occ_idx = np.nonzero(lidar[C - 1].ravel() > 0.5)[0]
    consts.update(heatmap_targets=targets, occ_idx=occ_idx,
                  z_true=lidar[C - 2].ravel()[occ_idx],
                  gt_cells=_gt_cells(grid, scene))
    return consts


def _scene_losses(config: PipelineConfig, params: PipelineParams, consts,
                  weights):
    """Loss components for one scene; omitted components are skipped."""
    grid = config.grid
    scene = consts["scene"]
    losses = {}

    if weights.get("height", 0.0) > 0 and len(consts["occ_idx"]):
        rows = chw_to_cells(consts["lidar"])[consts["occ_idx"]]
        raw = linear_apply(params.vt.height_gen, rows)
        h = _heights_from_raw(raw, grid.z_range)
        diff = ad.absolute(ad.sub(h, consts["z_true"][:, None]))
        losses["height"] = ad.mean(diff)

    need_fuse = weights.get("heatmap", 0.0) > 0 or weights.get("box", 0.0) > 0
    if not need_fuse:
        return losses

    bev_camera, _diag = _run_vt(config, params, consts)
    bev_fuse = fuse_bev(params.vt, bev_camera, consts["lidar"])
    heatmaps = predict_heatmaps(params.head, bev_fuse)

    if weights.get("heatmap", 0.0) > 0:
        losses["heatmap"] = gaussian_focal_loss(heatmaps, consts["heatmap_targets"])

    if weights.get("box", 0.0) > 0 and len(scene.boxes):
        feats, ref, _gids = _query_features(config, params, bev_fuse, heatmaps)
        layers = run_decoder(feats, ref, bev_fuse, params.decoder, grid,
                             mode=config.attention_mode)
        per_layer = []
        for layer in layers:
            boxes = layer["boxes"]
            centers = np.stack([boxes["xc"], boxes["yc"]], axis=1)
            pairs = greedy_match(centers, consts["gt_cells"])
            if not pairs:
                continue
            q_idx = [q for q, _ in pairs]
            tgt = np.stack([
                encode_box(consts["gt_cells"][g], scene.boxes[g].center[2],
                           scene.boxes[g].dims, scene.boxes[g].yaw,
                           (ref[q][0], ref[q][1]))
                for q, g in pairs])
            pred_rows = ad.getitem(layer["enc"], (np.array(q_idx),))
            per_layer.append(l1_encoded(pred_rows, tgt))
        if per_layer:
            acc = per_layer[0]
            for term in per_layer[1:]:
                acc = ad.add(acc, term)
            losses["box"] = ad.div(acc, float(len(per_layer)))

    return losses


@dataclass
class FitResult:
    params: PipelineParams
    curve: list  # dicts: step, total, and per-component values


def fit_generators(config: PipelineConfig, params: PipelineParams, scenes,
                   steps, lr, loss_weights=None, batch_size=None,
                   lr_half_life=None) -> FitResult:
    """Plain gradient descent of the pipeline generators on synthetic scenes.

    loss_weights: {"heatmap": w, "box": w, "height": w}; zero disables a
    component (and its forward stages). lr_half_life, when set, decays the
    step size as lr / (1 + step / half_life), which removes the limit cycle
    constant-step descent exhibits on L1 terms. Scenes are visited in fixed
    round-robin batches, so runs are deterministic. Raises RuntimeError on
    divergence (total loss above 1e6 or non-finite).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    weights = {"heatmap": 1.0, "box": 1.0, "height": 1.0}
    if loss_weights is not None:
        weights.update(loss_weights)

    consts = [_scene_constants(config, s) for s in scenes]
    lifted, train_vars = ad.lift_tree(params)
    n = len(scenes)
    bs = n if batch_size is None else min(batch_size, n)

    curve = []
    for step in range(steps):
        idx = [(step * bs + j) % n for j in range(bs)]
        total = None
        comps = {k: 0.0 for k in weights}
        for i in idx:
            losses = _scene_losses(config, lifted, consts[i], weights)
            for key, term in losses.items():
                comps[key] += float(val(term)) / len(idx)
                w_term = ad.mul(term, weights[key] / len(idx))
                total = w_term if total is None else ad.add(total, w_term)
        total_val = float(val(total)) if total is not None else 0.0
        if not np.isfinite(total_val) or total_val > 1e6:
            raise RuntimeError(
                f"fit diverged at step {step}: total loss {total_val}")
        if isinstance(total, ad.Var):
            total.backward()
            step_lr = lr if lr_half_life is None else lr / (1.0 + step / lr_half_life)
            ad.sgd_step(train_vars, step_lr)
        curve.append({"step": step, "total": total_val, **comps})
        # these names hold the step's whole tape; release it before the
        # next step builds its own
        total = losses = term = w_term = None

    return FitResult(params=ad.unlift_tree(lifted), curve=curve)

