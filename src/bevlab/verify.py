"""Verification suites behind the `verify` CLI command, and the oracles
they and the tests share.

Every oracle lives here, once: the scalar primitives (single-point bilinear
sampling, the sinusoidal encoding of one point, the center of one BEV cell,
central-difference gradients) and the naive reimplementations built from
them. The program's modules hold only what the program runs.

`SUITES` is the one list of checks, by suite:

oracle: naive reimplementations (scalar loops, full sorts, dense
        attention, a step-by-step decoder layer) checked against the
        vectorized modules.
grad:   analytic gradients of every differentiable path checked against
        central finite differences at small configs (`gradcheck`), the
        decoder layer in every attention mode.
props:  algebraic invariants (softmax, layer norm, pooling weights,
        rotation equivariance, residual identity).

A check is a `check_*(rng)` that draws its instances from `rng`, raises
when it fails (mostly through `assert`) and returns its detail text.
`run_suites` gives each suite one fresh `rng` and returns (name, passed,
detail) per check; the CLI prints the table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .decoder import (ATTENTION_MODES, AttentionParams, attention_params,
                      decoder_layer, decoder_params, gaussian_focal_loss,
                      l1_encoded, _corner_points_batch, _initial_state,
                      _keys_values, _mha, _query_blocks, _query_bytes)
from .geometry import (BevGrid, CameraModel, FeaturePyramid,
                       camera_planes, project_heights, project_to_image,
                       world_to_cell)
from .pipeline import PipelineConfig, _query_features, init_params
from .query_select import (GroupSpec, gaussian_target, predict_heatmaps,
                           topk_keypoints)
from .scene_sim import SceneConfig, camera_ring, make_scene
from .tensor import (LinearMap, cells_to_chw, chw_to_cells, linear_apply,
                     sinusoid_freqs)
from .view_transform import (VtParams, adaptive_project, adaptive_sample,
                             fuse_bev)


# ---------------------------------------------------------------------------
# scalar oracles


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


def layer_norm_relu(rows):
    """The decoder mixing's normalization: layer norm over the last axis
    (epsilon 1e-5, no affine), then ReLU."""
    mu = rows.mean(axis=-1, keepdims=True)
    var = ((rows - mu) ** 2).mean(axis=-1, keepdims=True)
    return np.maximum((rows - mu) / np.sqrt(var + 1e-5), 0.0)


def cell_to_world(grid: BevGrid, u: int, v: int):
    """Metric center (X, Y) of cell (u, v)."""
    if not (0 <= u < grid.width and 0 <= v < grid.height):
        raise IndexError(f"cell ({u}, {v}) outside {grid.width}x{grid.height} grid")
    X = grid.x_range[0] + (u + 0.5) * grid.cell_size_x
    Y = grid.y_range[0] + (v + 0.5) * grid.cell_size_y
    return X, Y


def finite_diff_grad(f, x):
    """Central-difference gradient (step 1e-6) of a scalar function of a
    tensor.

    The independent numeric oracle checked against every analytic gradient.
    """
    eps = 1e-6
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


# ---------------------------------------------------------------------------
# naive oracles


def naive_adaptive_sample(params: VtParams, lidar, pyramids, cams, grid):
    """Quadruple-loop reimplementation of the adaptive sampler, built from
    the scalar primitives only. Returns the BEV map [C, H, W] and the
    per-cell fraction of valid (height, scale, camera) samples [H, W]."""
    lidar = np.asarray(val(lidar))
    C, H, W = lidar.shape
    n_h, n_s = params.n_heights, params.n_scales
    mid = 0.5 * (grid.z_range[0] + grid.z_range[1])
    half = 0.5 * grid.z_span
    hw, hb = val(params.height_gen.weight), val(params.height_gen.bias)
    ww, wb = val(params.weight_gen.weight), val(params.weight_gen.bias)
    out = np.zeros((C, H, W))
    frac = np.zeros((H, W))
    for v in range(H):
        for u in range(W):
            feat = lidar[:, v, u]
            z = mid + np.tanh(hw @ feat + hb) * half
            logits = ww @ feat + wb
            e = np.exp(logits - logits.max())
            wts = e / e.sum()
            X, Y = cell_to_world(grid, u, v)
            acc = np.zeros(C)
            for j in range(n_s):
                for i in range(n_h):
                    ssum = np.zeros(C)
                    cnt = 0
                    for cam, pyr in zip(cams, pyramids):
                        x, y, ok = project_to_image(cam, (X, Y, z[i]))
                        if not ok:
                            continue
                        stride, fmap = pyr.levels[j]
                        f, okb = bilinear_sample(np.asarray(val(fmap)),
                                                 (x / stride, y / stride))
                        if not okb:
                            continue
                        ssum = ssum + f
                        cnt += 1
                    acc = acc + wts[j * n_h + i] * (ssum / max(cnt, 1))
                    frac[v, u] += cnt
            out[:, v, u] = acc
    return out, frac / (n_h * n_s * len(cams))


def naive_topk(heatmaps, spec: GroupSpec):
    """Full-sort top-k with explicitly looped 3x3 suppression."""
    hm = np.asarray(val(heatmaps))
    _, H, W = hm.shape
    results = []
    for group in spec.groups:
        gmap = np.max(np.stack([hm[c] for c in group]), axis=0)
        cells = []
        for v in range(H):
            for u in range(W):
                suppressed = False
                for dv in (-1, 0, 1):
                    for du in (-1, 0, 1):
                        if dv == 0 and du == 0:
                            continue
                        nv, nu = v + dv, u + du
                        if 0 <= nv < H and 0 <= nu < W and gmap[v, u] < gmap[nv, nu]:
                            suppressed = True
                cells.append((suppressed, -gmap[v, u], v * W + u, u, v))
        cells.sort()
        top = cells[:spec.queries_per_group]
        results.append(np.array([[float(c[3]), float(c[4])] for c in top]))
    return results


def naive_gaussian_target(boxes, grid, n_classes):
    """Cell-by-cell loop version of the Gaussian heatmap targets."""
    H, W = grid.height, grid.width
    out = np.zeros((n_classes, H, W))
    for box in boxes:
        u, v = world_to_cell(grid, box.center[0], box.center[1])
        u0, v0 = int(round(u)), int(round(v))
        if not (0 <= u0 < W and 0 <= v0 < H):
            continue
        sigma = max(1.0, min(box.dims[0], box.dims[1]) / (3.0 * grid.cell_size_x))
        for vv in range(H):
            for uu in range(W):
                g = math.exp(-((uu - u0) ** 2 + (vv - v0) ** 2) / (2 * sigma ** 2))
                out[box.class_id, vv, uu] = max(out[box.class_id, vv, uu], g)
    return out


def naive_mha(q_in, kv_in, attn: AttentionParams, n_heads):
    """Dense multi-head attention: the whole [heads, Nq, Nk] scores tensor,
    scaled by 1/sqrt(dh), then a softmax over keys. Plain arrays only."""
    nq, C = np.shape(q_in)
    nk = np.shape(kv_in)[0]
    dh = C // n_heads

    def split(x, n):
        return x.reshape(n, n_heads, dh).transpose(1, 0, 2)

    q = split(linear_apply(attn.w_q, q_in), nq)
    k = split(kv_in @ attn.w_k.T, nk)
    v = split(linear_apply(attn.w_v, kv_in), nk)
    scores = np.matmul(q, k.transpose(0, 2, 1)) * (1.0 / math.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = np.matmul(e / e.sum(axis=-1, keepdims=True), v)
    return linear_apply(attn.w_o, ctx.transpose(1, 0, 2).reshape(nq, C))


def dense_adaptive_project(params: VtParams, bev_as, lidar_bev):
    """Adaptive projection as the unblocked composition of tape ops: the
    [N, C*C] kernels of all N cells at once, then one batched
    [N, 1, C] @ [N, C, C] product."""
    C, H, W = np.shape(val(bev_as))
    N = H * W
    kernels = ad.reshape(linear_apply(params.kernel_gen,
                                      chw_to_cells(lidar_bev)), (N, C, C))
    rows = ad.reshape(chw_to_cells(bev_as), (N, 1, C))
    return cells_to_chw(ad.reshape(ad.matmul(rows, kernels), (N, C)), H, W)


# ---------------------------------------------------------------------------
# fixture builders

# the BEV grid of the decoder gradient and residual checks: 8 x 8 cells of
# 2 m
GRAD_GRID = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (8, 8))


def zero_linear(out_dim, in_dim):
    """The LinearMap whose weight and bias are all zero."""
    return LinearMap(np.zeros((out_dim, in_dim)), np.zeros(out_dim))


def _rand_linear(rng, out_dim, in_dim, scale=0.6):
    return LinearMap(rng.normal(0, scale / np.sqrt(in_dim), (out_dim, in_dim)),
                     rng.normal(0, 0.1, out_dim))


def random_vt_instance(rng, C=None, H=None, n_h=None, n_s=None, n_cams=2,
                       img=32, ring=None):
    """A random small view-transform problem with dense pyramids.

    The cameras are the first n_cams of an evenly spaced ring of `ring`
    (default n_cams) 80-degree cameras with img x img images."""
    C = int(rng.integers(2, 9)) if C is None else C
    H = int(rng.integers(4, 17)) if H is None else H
    n_h = int(rng.integers(1, 5)) if n_h is None else n_h
    n_s = int(rng.integers(1, 3)) if n_s is None else n_s
    grid = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (H, H))
    params = VtParams(
        height_gen=_rand_linear(rng, n_h, C),
        weight_gen=_rand_linear(rng, n_s * n_h, C),
        kernel_gen=_rand_linear(rng, C * C, C),
        fuse=_rand_linear(rng, C, 2 * C))
    lidar = rng.normal(size=(C, H, H))
    cams = camera_ring(ring or n_cams, (img, img), 80.0, 1.5)[:n_cams]
    strides = (2, 4)[:n_s]
    pyramids = []
    for _ in cams:
        levels = tuple((s, rng.normal(size=(C, img // s, img // s)))
                       for s in strides)
        pyramids.append(FeaturePyramid(levels))
    return params, lidar, pyramids, cams, grid


def pitch_camera(cam: CameraModel, deg):
    """cam with its optical axis tilted down by deg about its own x axis,
    from the same center. A `camera_ring` camera is level, so its pixel x
    does not depend on a point's height; a pitched one's does, through the
    depth."""
    a = math.radians(deg)
    tilt = np.array([[1.0, 0.0, 0.0],
                     [0.0, math.cos(a), -math.sin(a)],
                     [0.0, math.sin(a), math.cos(a)]])
    center = -cam.rotation.T @ cam.translation
    rotation = tilt @ cam.rotation
    return CameraModel(cam.intrinsics, rotation, -rotation @ center,
                       cam.image_size)


def _tiny_decoder_params(rng, C=4, n_p=4, n_layers=1, n_heads=2, n_classes=3):
    return decoder_params(functools.partial(_rand_linear, rng), C, n_p,
                          n_layers, n_heads, n_classes, pe_dim=4)


def _readout_loss(layer_out):
    """The scalar the decoder-layer gradient checks differentiate: the sums
    of a `decoder_layer` result's encoded boxes x 0.2, class logits x 0.1
    and new features x 0.05."""
    new_feats, enc, cls, _ = layer_out
    return ad.add(ad.sum_(ad.mul(enc, 0.2)),
                  ad.add(ad.sum_(ad.mul(cls, 0.1)),
                         ad.sum_(ad.mul(new_feats, 0.05))))


def gradcheck(build_loss, arrays):
    """Check the gradients of a scalar loss against central differences of
    step 1e-6 (`finite_diff_grad`) and return the worst relative error: in
    each leaf, max |analytic - numeric| over max(|numeric|, 1e-8), which
    must stay below 1e-4 ("{path}: gradient rel err ...").

    arrays maps names to ndarrays or parameter trees (as `ad.lift_tree`
    takes); build_loss(t) gets each name mapped to its lifted copy. The
    error is relative to the central difference, so a leaf whose exact
    gradient is 0 must be held out: its difference sees only rounding.
    Hence every ndarray entry must receive a gradient, and a tree leaf that
    backward leaves without one is probed once: with 1 added to it the loss
    must keep every bit, or the leaf is checked against a zero gradient."""
    lifted = {name: ad.lift_tree(a)[0] for name, a in arrays.items()}
    out = build_loss(lifted)
    out.backward()
    loss = float(val(out))
    for name, a in arrays.items():
        assert not isinstance(a, np.ndarray) or lifted[name].grad is not None, \
            f"no gradient reached {name}"

    leaves = [(path, x) for name, obj in lifted.items()
              for path, x in ad.tree_leaves(obj, name)
              if isinstance(x, ad.Var)]
    worst = 0.0
    for path, leaf in leaves:
        def f(x, leaf=leaf, keep=leaf.data):
            leaf.data = x
            loss_x = float(val(build_loss(lifted)))
            leaf.data = keep
            return loss_x

        if leaf.grad is None and f(leaf.data + 1.0) == loss:
            continue
        num = finite_diff_grad(f, leaf.data)
        ana = 0.0 if leaf.grad is None else leaf.grad
        err = float(np.max(np.abs(ana - num)) / max(np.max(np.abs(num)), 1e-8))
        if not err < 1e-4:  # a NaN error fails too
            raise AssertionError(f"{path}: gradient rel err {err:.3e} >= 0.0001")
        worst = max(worst, err)
    return worst


@contextlib.contextmanager
def block_bytes(n):
    """Set the block budget of the row-blocked ops (``ad.attention``,
    ``ad.dynamic_filter``, and the query blocks in which
    ``decoder.decoder_layer`` samples and mixes) and the tile budget of
    ``ad.attention`` and of the row blocks of ``ad.attention_keys`` and
    ``ad.concat_linear`` to n bytes, so that small problems span several
    blocks of rows and several tiles of keys. A decoder layer's outputs
    then keep their bits, as long as its attention stays on the same side
    of the budget, for tiny layers (as the tests run) and for query blocks
    above the floor that the `decoder` module docstring gives."""
    keep = ad._BLOCK_BYTES, ad._TILE_BYTES
    ad._BLOCK_BYTES = ad._TILE_BYTES = n
    try:
        yield
    finally:
        ad._BLOCK_BYTES, ad._TILE_BYTES = keep


def _attention_tiles(h, nq, nk):
    """Numbers of row blocks and key tiles in ``ad.attention``'s plan for h
    heads, nq query rows and nk keys, which must both be several with a
    ragged last one."""
    _, rows, keys = ad._attention_blocks(h, nq, nk)
    assert len(rows) > 1 and nq % rows[0].stop, (
        f"{nq} query rows of {h} heads over {nk} keys do not give each head "
        "several blocks of rows with a ragged last one")
    assert len(keys) > 1 and nk % keys[0].stop, (
        f"{nq} query rows of {h} heads over {nk} keys do not give each head "
        "several tiles of keys with a ragged last one")
    return len(rows), len(keys)


def check_attention_blocked(rng):
    """``ad.attention`` (through ``decoder._mha``) against the dense
    ``naive_mha`` on (heads, Nq, Nk, input scale) instances: self-attention
    (Nq = Nk), cross-attention (Nk > Nq), and cross-attention whose inputs
    are scaled so far that the bounds on its scores pass
    ``ad._SHIFT_LIMIT``, where a block of rows shifts by its exact row
    maxes.

    Under budgets of 8 x 40 x 15 bytes each head runs in tiles of 25 rows
    x 24 keys: 3 blocks of rows and 3 or 7 tiles of keys, each with a
    ragged last one, so that a plan without its last block of rows or key
    tile still passes the several-ragged-tiles precondition. A row that
    underflows to 0 / 0 reports its NaN as the deviation."""
    C = 8
    worst = 0.0
    tiles = []
    with block_bytes(8 * 40 * 15), np.errstate(invalid="ignore"):
        for h, nq, nk, scale in ((2, 70, 70, 1.0), (2, 70, 160, 1.0),
                                 (2, 70, 160, 30.0)):
            rows, keys = _attention_tiles(h, nq, nk)
            tiles.append(f"{h}x{rows}x{keys}")
            attn = attention_params(functools.partial(_rand_linear, rng), C)
            q_in = rng.normal(size=(nq, C)) * scale
            kv_in = q_in if nq == nk else rng.normal(size=(nk, C)) * scale
            fast = val(_mha(q_in, _keys_values(kv_in, attn, h), attn, h))
            dev = float(np.max(np.abs(fast - naive_mha(q_in, kv_in, attn,
                                                       h))))
            assert dev < 1e-12, \
                f"{h}x{nq}x{nk}x{scale:g}: max deviation {dev:.3e}"
            worst = max(worst, dev)
    return (f"max deviation {worst:.2e}; {'/'.join(tiles)} tiles of heads x "
            "query rows x keys")


def check_attention_grad(rng):
    """Finite-difference check of ``ad.attention``'s vjp and of the
    ``ad.attention_keys`` vjps before it, on the two ops alone: 5 query rows
    of 2 heads over the keys and values of 7 rows, with budgets under which
    the rows are projected in blocks of 2 + 2 + 3 and each head spans tiles
    of 4 rows x 3 keys (rows 4 + 1, keys 3 + 3 + 1)."""
    q = rng.normal(size=(2, 5, 3))
    x = rng.normal(size=(7, 6))
    w_k, w_v = rng.normal(0, 0.4, size=(2, 6, 6))
    b_v = rng.normal(0, 0.1, size=6)
    w = rng.normal(size=(2, 5, 3))
    with block_bytes(8 * 7 * 2):
        _attention_tiles(2, 5, 7)
        worst = gradcheck(lambda t: ad.sum_(ad.mul(ad.attention(
            t["q"], *ad.attention_keys(t["x"], t["w_k"], t["w_v"], t["b_v"],
                                       2)), w)),
            {"q": q, "x": x, "w_k": w_k, "w_v": w_v, "b_v": b_v})
    return f"worst rel err {worst:.2e}"


def check_adaptive_project_blocked(rng):
    """``adaptive_project`` (``ad.dynamic_filter``) against the unblocked
    ``dense_adaptive_project``. With the current block budget the H*H
    cells must split into several blocks with a ragged last one."""
    C, H = 32, 50
    n = H * H
    blocks = ad._filter_row_blocks(n, C)
    rows = blocks[0].stop
    assert len(blocks) > 1 and n % rows, (
        f"{n} cells in blocks of {rows} do not give several blocks with a "
        "ragged last one")
    params = random_vt_instance(rng, C=C, H=H, n_h=1, n_s=1)[0]
    bev_as, lidar = rng.normal(size=(2, C, H, H))
    fast = val(adaptive_project(params, bev_as, lidar))
    worst = float(np.max(np.abs(
        fast - val(dense_adaptive_project(params, bev_as, lidar)))))
    assert worst < 1e-12, f"max deviation {worst:.3e}"
    return f"max deviation {worst:.2e}; {len(blocks)} blocks of cells"


def check_decoder_layer(rng):
    """Layer 0 of the geometry-aware decoder (6 queries, one head, C = 2),
    sampling and mixing its queries in three blocks of two, against a
    step-by-step plain-numpy recomputation of every sub-block, query by
    query."""
    C, n_p, nq = 2, 4, 6
    grid = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))

    def apply(m, x):
        return val(m.weight) @ x + val(m.bias)

    worst = 0.0
    for _ in range(4):
        params = _tiny_decoder_params(rng, C=C, n_p=n_p, n_heads=1,
                                      n_classes=2)
        ref = rng.uniform(4, 28, size=(nq, 2))
        feats, bev = rng.normal(size=(nq, C)), rng.normal(size=(C, 32, 32))
        with block_bytes(2 * _query_bytes(params)):
            assert len(_query_blocks(nq, params)) == 3
            out = decoder_layer(feats, ref, _initial_state(ref), bev, params,
                                0, grid)[:3]
        attended = feats + naive_mha(feats, feats, params.self_attn[0], 1)
        for q, f in enumerate(attended):
            # layer 0 samples at the center + raw offsets, plus the
            # position embedding of the normalized points
            pts = apply(params.offset_gen, f).reshape(n_p, 2) + ref[q]
            G = np.stack([bilinear_sample(bev, tuple(p))[0] + apply(
                params.pos_embed_proj,
                sinusoidal_encode(p / 32.0, params.pe_dim)) for p in pts])
            G_c = layer_norm_relu(
                G @ apply(params.channel_mix_gen, f).reshape(C, C))
            G_cs = layer_norm_relu(
                G_c.T @ apply(params.spatial_mix_gen, f).reshape(n_p, n_p))
            f = f + apply(params.out_proj, G_cs.T.ravel())
            f = f + apply(params.ffn2, np.maximum(apply(params.ffn1, f), 0.0))
            for fast, slow in zip(out, (f, apply(params.reg_head, f),
                                        apply(params.cls_head, f))):
                dev = float(np.max(np.abs(val(fast)[q] - slow)))
                assert dev < 1e-12, f"max deviation {dev:.3e}"
                worst = max(worst, dev)
    return f"max deviation {worst:.2e} over 4 layers of {nq} queries"


def check_vt_equivalence(rng):
    """The compacted sampler's map and validity fraction against the naive
    oracle on 8 random-size instances that together hold every kind of
    edge lane: cells no camera sees, lanes inside the image but outside a
    level's sampleable box (x / stride in (W_j - 1, (W - 1) / stride],
    likewise y), and cells two cameras see.

    Two adjacent cameras of a six-camera ring overlap by 20 degrees and
    leave the far side unseen; 30-px images make the stride-2 and stride-4
    levels 15 and 7 cells wide, so pixels in (28, 29] and (24, 29] are
    valid but not sampleable there.
    """
    unseen = edge = shared = 0
    worst = 0.0
    for _ in range(8):
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, img=30, ring=6)
        fast = adaptive_sample(params, lidar, pyramids, cams, grid)
        slow, frac = naive_adaptive_sample(params, lidar, pyramids, cams,
                                           grid)
        dev = float(np.max(np.abs(val(fast.bev) - slow)))
        assert dev < 1e-12, f"max deviation {dev:.3e}"
        worst = max(worst, dev)
        assert np.array_equal(fast.validity_fraction, frac), \
            "validity fraction differs from the naive count"

        X, Y = grid.cell_centers_flat()
        seen_by = np.zeros((len(cams), X.size), dtype=bool)
        for z in fast.per_cell_heights.T:
            for k, (cam, pyr) in enumerate(zip(cams, pyramids)):
                x, y, ok = project_heights(cam, camera_planes(cam, X, Y), z)
                seen_by[k] |= ok
                for stride, fmap in pyr.levels:
                    _, h_j, w_j = fmap.shape
                    edge += int(np.sum(ok & ((x / stride > w_j - 1)
                                             | (y / stride > h_j - 1))))
        unseen += int(np.sum(~seen_by.any(axis=0)))
        shared += int(np.sum(seen_by.sum(axis=0) >= 2))
    assert unseen and edge and shared, (
        f"instances lack an edge-lane kind: {unseen} unseen cells, "
        f"{edge} box-edge lanes, {shared} shared cells")
    return (f"max deviation {worst:.2e} over 8 instances; {unseen} unseen "
            f"cells, {edge} box-edge lanes, {shared} shared cells")


def check_bilinear_gather(rng):
    """``ad.bilinear_gather`` against ``bilinear_sample`` at 60 points."""
    fmap = rng.normal(size=(3, 9, 11))
    xs = rng.uniform(-2, 12, size=60)
    ys = rng.uniform(-2, 10, size=60)
    slow = np.stack([bilinear_sample(fmap, p)[0] for p in zip(xs, ys)])
    dev = float(np.max(np.abs(val(ad.bilinear_gather(fmap, xs, ys)) - slow)))
    assert dev < 1e-12, f"max deviation {dev:.3e}"
    return "60 points"


def check_topk(rng):
    """``topk_keypoints`` against ``naive_topk`` on 20 heatmaps."""
    spec = GroupSpec(((0,), (1, 2)), 5)
    for _ in range(20):
        hm = rng.uniform(size=(3, 12, 12))
        for fp, sp in zip(topk_keypoints(hm, spec), naive_topk(hm, spec),
                          strict=True):
            assert np.array_equal(fp, sp), \
                "keypoints differ from the full sort's"
    return "20 heatmaps"


def check_gaussian_target(rng):
    """``gaussian_target`` against ``naive_gaussian_target``."""
    grid = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (16, 16))
    # two classes for four boxes: same-class overlaps take the max
    scene = make_scene(SceneConfig(grid=grid, channels=4, n_boxes=4,
                                   image_size=(32, 32), n_cameras=2,
                                   classes=(0, 1),
                                   fixed_dims=(3.0, 1.5, 1.5)),
                       seed=int(rng.integers(1000)))
    fast = gaussian_target(scene.boxes, grid, 10)
    slow = naive_gaussian_target(scene.boxes, grid, 10)
    worst = float(np.max(np.abs(fast - slow)))
    assert worst < 1e-12, f"max deviation {worst:.3e}"
    return f"max deviation {worst:.2e}; 4 boxes in 2 classes"


def check_adaptive_sampling_grad(rng):
    """Gradients of adaptive sampling, heights included, for the
    generators, the LiDAR map and one camera's two levels. The second
    camera is pitched down 5 degrees, so that its pixel x depends on the
    heights too (a level camera's does not) and the gather's d/dx is
    checked."""
    params, lidar, pyramids, cams, g = random_vt_instance(
        rng, C=4, H=8, n_h=2, n_s=2)
    cams = (cams[0], pitch_camera(cams[1], 5.0))

    def loss(t):
        pyr = [FeaturePyramid(((pyramids[0].strides[0], t["f0"]),
                               (pyramids[0].strides[1], t["f1"]))),
               pyramids[1]]
        out = adaptive_sample(t["params"], t["lidar"], pyr, cams, g)
        return ad.sum_(ad.mul(out.bev, 0.3))

    worst = gradcheck(loss, {"params": params, "lidar": lidar,
                             "f0": val(pyramids[0].levels[0][1]),
                             "f1": val(pyramids[0].levels[1][1])})
    return f"worst rel err {worst:.2e}"


def check_adaptive_projection_grad(rng):
    """Gradients of adaptive projection followed by fusion, with the cells
    and the kernel gradient's rows in several blocks."""
    params, lidar, pyramids, cams, g = random_vt_instance(
        rng, C=4, H=8, n_h=2, n_s=1)
    bev_as = rng.normal(size=(4, 8, 8))

    def loss(t):
        cam_bev = adaptive_project(t["params"], t["bev_as"], t["lidar"])
        fused = fuse_bev(t["params"], cam_bev, t["lidar"])
        return ad.sum_(ad.mul(fused, 0.2))

    # the 64 cells in blocks of 10 (6 x 10 + 4) for the projection and of
    # 20 (3 x 20 + 4) for the fusion, d(K) one kernel row at a time
    with block_bytes(8 * 4 * 4 * 10):
        worst = gradcheck(loss, {"params": params, "bev_as": bev_as,
                                 "lidar": lidar})
    return f"worst rel err {worst:.2e}"


def check_decoder_layer_grad(rng):
    """Gradients of one decoder layer in every attention mode, for the
    weights, the 5 query features and the 8 x 8 BEV map, and for the box
    sizes and headings in the modes that read them (`geometry_aware`,
    `deformable_scaled_rotated`). `standard` runs under budgets of 16
    scores, so that its attention takes the tiled path of large inputs:
    self-attention in rows 4 + 1 and keys 4 + 1, cross-attention (over the
    cells' `_keys_values`) in rows 4 + 1 and 16 tiles of keys. The sampling
    modes run under a budget of two queries' kernels and samples, so that
    they sample and mix the queries in blocks of 2 + 3, while
    self-attention stays within it, the branch that the fit runs."""
    params = _tiny_decoder_params(rng)
    feats = rng.normal(size=(5, 4))
    bev = rng.normal(size=(4, 8, 8))
    ref = rng.uniform(2, 6, size=(5, 2))
    state = dict(_initial_state(ref), l=rng.uniform(1, 3, 5),
                 w=rng.uniform(0.5, 1.5, 5), yaw=rng.uniform(-2, 2, 5))
    worst = 0.0
    for mode in ATTENTION_MODES:
        sizes = {k: state[k] for k in ("l", "w", "yaw")
                 if mode in ("geometry_aware", "deformable_scaled_rotated")}

        def loss(t, mode=mode, sizes=sizes):
            p = t["params"]
            kv = (_keys_values(chw_to_cells(t["bev"]), p.cross_attn,
                               p.n_heads) if mode == "standard" else None)
            boxes = dict(state, **{k: t[k] for k in sizes})
            return _readout_loss(decoder_layer(
                t["feats"], ref, boxes, t["bev"], p, 0, GRAD_GRID, mode=mode,
                cross_kv=kv))

        with block_bytes(8 * 16 if mode == "standard"
                         else 2 * _query_bytes(params)):
            if mode != "standard":
                assert len(_query_blocks(5, params)) == 2
            worst = max(worst, gradcheck(loss, dict(
                params=params, feats=feats, bev=bev, **sizes)))
    return f"worst rel err {worst:.2e} over {len(ATTENTION_MODES)} modes"


def check_group_query_grad(rng):
    """Gradients of `mixed_groupwise` queries through one decoder layer,
    for the group embeddings: each group's three queries gather the same
    row, so its gradient is the sum over them."""
    cfg = PipelineConfig(GRAD_GRID, channels=4,
                         groups=GroupSpec(((0,), (1, 2)), 3), n_heads=2,
                         query_init="mixed_groupwise")
    params = init_params(cfg, seed=0)
    dec = _tiny_decoder_params(rng)
    bev = rng.normal(size=(4, 8, 8))
    heatmaps = rng.uniform(size=(3, 8, 8))

    def loss(t):
        p = dataclasses.replace(params, group_embeds=t["group_embeds"])
        feats, ref, _ = _query_features(cfg, p, bev, heatmaps)
        return _readout_loss(decoder_layer(feats, ref, _initial_state(ref),
                                           bev, dec, 0, GRAD_GRID))

    worst = gradcheck(loss, {"group_embeds": rng.normal(size=(2, 4))})
    return f"worst rel err {worst:.2e}"


def check_heatmap_grad(rng):
    """Gradients of the heatmap head's focal loss."""
    scorer = _rand_linear(rng, 3, 4)
    fuse = rng.normal(size=(4, 6, 6))
    target = np.zeros((3, 6, 6))
    target[0, 2, 3] = 1.0
    target[1, 4, 1] = 1.0
    worst = gradcheck(lambda t: gaussian_focal_loss(predict_heatmaps(
        t["params"], t["fuse"]), target), {"params": scorer, "fuse": fuse})
    return f"worst rel err {worst:.2e}"


def check_loss_grads(rng):
    """Gradients of the focal loss and the L1 box loss."""
    hm = 1 / (1 + np.exp(-rng.normal(size=(2, 5, 5))))
    tgt = np.zeros((2, 5, 5))
    tgt[0, 2, 2] = 1.0
    tgt[1, 1, 3] = 0.5
    enc_t = rng.normal(size=(4, 8))
    w1 = gradcheck(lambda t: gaussian_focal_loss(t["hm"], tgt), {"hm": hm})
    w2 = gradcheck(lambda t: l1_encoded(t["enc"], enc_t),
                   {"enc": rng.normal(size=(4, 8)) + 0.1})
    return f"worst rel errs {max(w1, w2):.2e}"


def check_softmax_props(rng):
    """``ad.softmax`` sums to 1 and is invariant to a shift."""
    for _ in range(1000):
        v = rng.normal(size=int(rng.integers(1, 10))) * 8
        out = ad.softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12, f"sum {out.sum()!r}"
        assert np.allclose(out, ad.softmax(v + rng.normal() * 3),
                           atol=1e-12), "a shift changes the softmax"
    return "1000 trials"


def check_layer_norm_props(rng):
    """``ad.layer_norm`` gives mean 0 and variance 1."""
    # scaled to sample variance >= 25 so the 1e-5 epsilon guard stays below
    # the 1e-6 variance tolerance
    for _ in range(200):
        v = rng.normal(size=int(rng.integers(4, 40)))
        out = ad.layer_norm(v / v.std() * rng.uniform(5, 20))
        assert abs(out.mean()) < 1e-9 and abs(out.var() - 1.0) < 1e-6, \
            f"mean {out.mean():.3e}, variance {out.var():.6f}"
    return "200 trials"


def check_pooling_weights(rng):
    """Pooling weights in (0, 1) that sum to 1, heights in the z range."""
    params, lidar, pyramids, cams, grid = random_vt_instance(
        rng, C=4, H=8, n_h=3, n_s=2)
    out = adaptive_sample(params, lidar, pyramids, cams, grid)
    wts, z = out.per_cell_weights, out.per_cell_heights
    assert np.max(np.abs(wts.sum(axis=1) - 1.0)) < 1e-9, \
        "pooling weights do not sum to 1"
    assert wts.min() > 0 and wts.max() < 1, "pooling weights outside (0, 1)"
    assert (z.min() >= grid.z_range[0] - 1e-12
            and z.max() <= grid.z_range[1] + 1e-12), "heights outside z range"
    return "ok"


def check_rotation_equivariance(rng):
    """Turning a box by phi turns its sampling offsets by phi."""
    params = _tiny_decoder_params(rng, n_p=8)
    grid = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-3.0, 3.0), (32, 32))
    for _ in range(100):
        feat = rng.normal(size=(1, 4))
        l, w = rng.uniform(0.5, 6, size=2)
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        base = {"xc": np.array([0.0]), "yc": np.array([0.0]),
                "l": np.array([l]), "w": np.array([w]),
                "yaw": np.array([theta])}
        rot = dict(base, yaw=np.array([theta + phi]))
        # at center 0 the points are the offsets
        off1 = _corner_points_batch(feat, base, params, grid)
        off2 = _corner_points_batch(feat, rot, params, grid)
        c, s = math.cos(phi), math.sin(phi)
        rotated = val(off1)[0] @ np.array([[c, -s], [s, c]]).T
        dev = float(np.max(np.abs(val(off2)[0] - rotated)))
        assert dev < 1e-9, f"max deviation {dev:.3e}"
    return "100 trials"


def check_residual_identity(rng):
    """Zero residual branches keep the features through 6 layers."""
    params = _tiny_decoder_params(rng, n_layers=6)
    params = dataclasses.replace(
        params,
        out_proj=zero_linear(4, 16), ffn2=zero_linear(4, 8),
        self_attn=tuple(dataclasses.replace(a, w_o=zero_linear(4, 4))
                        for a in params.self_attn))
    feats = rng.normal(size=(3, 4))
    bev = rng.normal(size=(4, 8, 8))
    ref = rng.uniform(2, 6, size=(3, 2))
    cur, state = feats.copy(), _initial_state(ref)
    for li in range(6):
        cur, _, _, state = decoder_layer(cur, ref, state, bev, params, li,
                                         GRAD_GRID)
    assert np.array_equal(cur, feats), "the features changed"
    return "bit-identical through 6 layers"


# ---------------------------------------------------------------------------
# the table


# each suite's (printed name, check), in the order they run
SUITES = {
    "oracle": (
        ("oracle.vt_equivalence", check_vt_equivalence),
        ("oracle.attention_blocked", check_attention_blocked),
        ("oracle.adaptive_project_blocked", check_adaptive_project_blocked),
        ("oracle.bilinear_vectorized", check_bilinear_gather),
        ("oracle.topk", check_topk),
        ("oracle.gaussian_target", check_gaussian_target),
        ("oracle.decoder_layer", check_decoder_layer),
    ),
    "grad": (
        ("grad.adaptive_sampling_incl_heights", check_adaptive_sampling_grad),
        ("grad.adaptive_projection_fusion", check_adaptive_projection_grad),
        ("grad.heatmap_head", check_heatmap_grad),
        ("grad.decoder_layer", check_decoder_layer_grad),
        ("grad.attention", check_attention_grad),
        ("grad.losses", check_loss_grads),
        ("grad.mixed_groupwise_queries", check_group_query_grad),
    ),
    "props": (
        ("props.softmax", check_softmax_props),
        ("props.layer_norm", check_layer_norm_props),
        ("props.pooling_weights", check_pooling_weights),
        ("props.rotation_equivariance", check_rotation_equivariance),
        ("props.residual_identity", check_residual_identity),
    ),
}


def run_suites(which="all", seed=0):
    """Run the checks of suite `which` ("all" for every suite), each suite
    drawing from a fresh `np.random.default_rng(seed)`. Returns (name,
    passed, detail) per check; a failed check's detail is its exception."""
    results = []
    for suite, checks in SUITES.items():
        if which not in ("all", suite):
            continue
        rng = np.random.default_rng(seed)
        for name, check in checks:
            try:
                results.append((name, True, check(rng)))
            except Exception as exc:  # a failed check, not a crashed suite
                results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
