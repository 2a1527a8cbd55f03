"""Verification suites behind the `verify` CLI command, and the oracles
they and the tests share.

Every oracle lives here, once: the scalar primitives (single-point bilinear
sampling, the sinusoidal encoding of one point, the center of one BEV cell,
central-difference gradients) and the naive reimplementations built from
them. The program's modules hold only what the program runs.

oracle: naive reimplementations (scalar loops, full sorts, dense
        attention, a step-by-step decoder layer) checked against the
        vectorized modules.
grad:   analytic gradients of every differentiable path checked against
        central finite differences at small configs.
props:  algebraic invariants (softmax pooling, rotation equivariance,
        residual identity).

Each check returns (name, passed, detail); the CLI prints the table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .decoder import (AttentionParams, DecoderParams, decoder_layer,
                      gaussian_focal_loss, l1_encoded,
                      _corner_points_batch, _initial_state, _keys_values,
                      _mha,
                      _position_aware_mix_batch, corner_sample)
from .geometry import (BevGrid, CameraModel, FeaturePyramid,
                       project_heights, project_to_image, world_to_cell)
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


def cell_to_world(grid: BevGrid, u: int, v: int):
    """Metric center (X, Y) of cell (u, v)."""
    if not (0 <= u < grid.width and 0 <= v < grid.height):
        raise IndexError(f"cell ({u}, {v}) outside {grid.width}x{grid.height} grid")
    X = grid.x_range[0] + (u + 0.5) * grid.cell_size_x
    Y = grid.y_range[0] + (v + 0.5) * grid.cell_size_y
    return X, Y


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

    def split(lin, x, n):
        return linear_apply(lin, x).reshape(n, n_heads, dh).transpose(1, 0, 2)

    q = split(attn.w_q, q_in, nq)
    k = split(attn.w_k, kv_in, nk)
    v = split(attn.w_v, kv_in, nk)
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
    return DecoderParams(
        n_heads=n_heads,
        offset_gen=_rand_linear(rng, 2 * n_p, C),
        point_weight_gen=_rand_linear(rng, n_p, C),
        deform_out_proj=_rand_linear(rng, C, C),
        pos_embed_proj=_rand_linear(rng, C, 4),
        channel_mix_gen=_rand_linear(rng, C * C, C),
        spatial_mix_gen=_rand_linear(rng, n_p * n_p, C),
        out_proj=_rand_linear(rng, C, n_p * C),
        self_attn=tuple(AttentionParams(*(_rand_linear(rng, C, C) for _ in range(4)))
                        for _ in range(n_layers)),
        cross_attn=AttentionParams(*(_rand_linear(rng, C, C) for _ in range(4))),
        ffn1=_rand_linear(rng, 2 * C, C),
        ffn2=_rand_linear(rng, C, 2 * C),
        reg_head=_rand_linear(rng, 8, C),
        cls_head=_rand_linear(rng, n_classes, C))


def _readout_loss(layer_out):
    """The scalar the decoder-layer gradient checks differentiate: the sums
    of a `decoder_layer` result's encoded boxes x 0.2, class logits x 0.1
    and new features x 0.05."""
    new_feats, enc, cls, _ = layer_out
    return ad.add(ad.sum_(ad.mul(enc, 0.2)),
                  ad.add(ad.sum_(ad.mul(cls, 0.1)),
                         ad.sum_(ad.mul(new_feats, 0.05))))


def _gradcheck_tree(build_loss, params_obj, extra_arrays=None, eps=1e-6,
                    rtol=1e-4):
    """Check every ndarray leaf of a parameter dataclass (plus extra named
    arrays) against finite differences. build_loss(params, extras) -> scalar.
    Returns the worst relative error."""
    extra_arrays = extra_arrays or {}
    lifted, tvars = ad.lift_tree(params_obj)
    extras_v = {k: ad.Var(v) for k, v in extra_arrays.items()}
    out = build_loss(lifted, extras_v)
    out.backward()

    leaves = []

    def collect(obj, path):
        if isinstance(obj, ad.Var):
            leaves.append((path, obj))
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                collect(getattr(obj, f.name), f"{path}.{f.name}")
        elif isinstance(obj, (list, tuple)):
            for i, x in enumerate(obj):
                collect(x, f"{path}[{i}]")

    collect(lifted, "params")
    worst = 0.0
    for path, leaf in leaves + [(k, v) for k, v in extras_v.items()]:
        base = leaf.data.copy()

        def f(x, _leaf=leaf):
            keep = _leaf.data
            _leaf.data = x
            try:
                probe = {k: v for k, v in extras_v.items()}
                return float(val(build_loss(lifted, probe)))
            finally:
                _leaf.data = keep

        num = finite_diff_grad(f, base, eps)
        ana = leaf.grad if leaf.grad is not None else np.zeros_like(base)
        scale = max(float(np.max(np.abs(num))), 1e-8)
        err = float(np.max(np.abs(ana - num)) / scale)
        if not err < rtol:  # a NaN error fails too
            raise AssertionError(f"{path}: gradient rel err {err:.3e} >= {rtol}")
        worst = max(worst, err)
    return worst


@contextlib.contextmanager
def block_bytes(n):
    """Set the block budget of the row-blocked ops (``ad.attention``,
    ``ad.dynamic_filter``) and the tile budget of ``ad.attention`` to n
    bytes, so that small problems span several blocks of rows and several
    tiles of keys."""
    keep = ad._BLOCK_BYTES, ad._TILE_BYTES
    ad._BLOCK_BYTES = ad._TILE_BYTES = n
    try:
        yield
    finally:
        ad._BLOCK_BYTES, ad._TILE_BYTES = keep


def _attention_tiles(h, nq, nk):
    """Numbers of row blocks and key tiles of each head in ``ad.attention``'s
    plan for h heads, nq query rows and nk keys, which must both be several
    with a ragged last one."""
    tiles = [(b, c) for hs, b, c in ad._attention_blocks(h, nq, nk)
             if hs == slice(0, 1)]
    rows = sorted({(b.start, b.stop) for b, _ in tiles})
    keys = sorted({(c.start, c.stop) for _, c in tiles})
    assert len(rows) > 1 and nq % rows[0][1], (
        f"{nq} query rows of {h} heads over {nk} keys do not give each head "
        "several blocks of rows with a ragged last one")
    assert len(keys) > 1 and nk % keys[0][1], (
        f"{nq} query rows of {h} heads over {nk} keys do not give each head "
        "several tiles of keys with a ragged last one")
    return len(rows), len(keys)


def check_attention_blocked(rng, shapes=((2, 900, 900, 1.0),
                                         (2, 300, 4000, 1.0),
                                         (2, 300, 4000, 30.0))):
    """``ad.attention`` (through ``decoder._mha``) against the dense
    ``naive_mha`` on (heads, Nq, Nk, input scale) instances: self-attention
    (Nq = Nk), cross-attention (Nk >> Nq), and cross-attention whose inputs
    are scaled so far that the bounds on its scores pass
    ``ad._SHIFT_LIMIT``, where a block of rows shifts by its exact row
    maxes. With the current budgets, the op's tile plan must split each
    head of every instance into several blocks of query rows and several
    tiles of keys, each with a ragged last one."""
    C = 8
    worst = 0.0
    tiles = []
    for h, nq, nk, scale in shapes:
        rows, keys = _attention_tiles(h, nq, nk)
        tiles.append(f"{h}x{rows}x{keys}")
        attn = AttentionParams(*(_rand_linear(rng, C, C) for _ in range(4)))
        q_in = rng.normal(size=(nq, C)) * scale
        kv_in = q_in if nq == nk else rng.normal(size=(nk, C)) * scale
        fast = val(_mha(q_in, _keys_values(kv_in, attn, h), attn, h))
        dev = float(np.max(np.abs(fast - naive_mha(q_in, kv_in, attn, h))))
        assert dev < 1e-12, f"{h}x{nq}x{nk}x{scale:g}: max deviation {dev:.3e}"
        worst = max(worst, dev)
    return (f"max deviation {worst:.2e}; {'/'.join(tiles)} tiles of heads x "
            "query rows x keys")


def check_attention_grad(rng, grid):
    """Finite-difference check of ``ad.attention``'s vjp, on the op alone
    and inside a `standard` decoder layer, with budgets under which each
    head spans several blocks of query rows and several tiles of keys."""
    # the op on 5 query rows over 7 keys, per head in tiles of 4 rows x 3
    # keys (rows 4 + 1, keys 3 + 3 + 1) ...
    q, k, v = (rng.normal(size=(2, n, 3)) for n in (5, 7, 7))
    w = rng.normal(size=(2, 5, 3))

    def op_loss(_p, extras):
        out = ad.attention(extras["q"], extras["k"], extras["v"])
        return ad.sum_(ad.mul(out, w))

    # ... and a `standard` decoder layer: per head, self-attention over 5
    # queries and cross-attention over 16 cells, both in tiles of 4 rows x
    # 4 keys
    params = _tiny_decoder_params(rng)
    feats = rng.normal(size=(5, 4))
    bev = rng.normal(size=(4, 4, 4))
    ref = rng.uniform(0.5, 3.5, size=(5, 2))
    state = _initial_state(ref)

    def zero_key_bias(a):
        return dataclasses.replace(
            a, w_k=LinearMap(a.w_k.weight, np.zeros(a.w_k.out_dim)))

    def layer_loss(p, extras):
        # a key bias adds the same amount to every score of a row, so its
        # exact gradient is 0 and a finite difference of it sees only
        # rounding: the key biases are held at zero
        p = dataclasses.replace(
            p, self_attn=tuple(map(zero_key_bias, p.self_attn)),
            cross_attn=zero_key_bias(p.cross_attn))
        kv = _keys_values(chw_to_cells(extras["bev"]), p.cross_attn,
                          p.n_heads)
        return _readout_loss(decoder_layer(
            extras["feats"], ref, state, extras["bev"], p, 0, grid,
            mode="standard", cross_kv=kv))

    with block_bytes(8 * 7 * 2):
        _attention_tiles(2, 5, 7)
        w1 = _gradcheck_tree(op_loss, zero_linear(1, 1),
                             {"q": q, "k": k, "v": v})
    with block_bytes(8 * 16):
        w2 = _gradcheck_tree(layer_loss, params, {"feats": feats, "bev": bev})
    return f"worst rel err {max(w1, w2):.2e}"


def check_adaptive_project_blocked(rng, C=32, H=50):
    """``adaptive_project`` (``ad.dynamic_filter``) against the unblocked
    ``dense_adaptive_project``. With the current block budget the H*H
    cells must split into several blocks with a ragged last one."""
    rows = max(1, ad._BLOCK_BYTES // (8 * C * C))
    n = H * H
    assert n > rows and n % rows, (
        f"{n} cells in blocks of {rows} do not give several blocks with a "
        "ragged last one")
    params = random_vt_instance(rng, C=C, H=H, n_h=1, n_s=1)[0]
    bev_as, lidar = rng.normal(size=(2, C, H, H))
    fast = val(adaptive_project(params, bev_as, lidar))
    worst = float(np.max(np.abs(
        fast - val(dense_adaptive_project(params, bev_as, lidar)))))
    assert worst < 1e-12, f"max deviation {worst:.3e}"
    return f"max deviation {worst:.2e}; {-(-n // rows)} blocks of cells"


def check_decoder_layer(rng, n_trials=4):
    """Layer 0 of the geometry-aware decoder (one query, one head, C = 2)
    against a step-by-step plain-numpy recomputation of every sub-block."""
    C, n_p = 2, 4
    grid = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))

    def apply(m, x):
        return val(m.weight) @ x + val(m.bias)

    def ln_relu(rows):  # the decoder's layer norm (eps 1e-5, no affine), ReLU
        mu = rows.mean(axis=1, keepdims=True)
        var = ((rows - mu) ** 2).mean(axis=1, keepdims=True)
        return np.maximum((rows - mu) / np.sqrt(var + 1e-5), 0.0)

    worst = 0.0
    for _ in range(n_trials):
        params = _tiny_decoder_params(rng, C=C, n_p=n_p, n_heads=1,
                                      n_classes=2)
        ref = rng.uniform(4, 28, size=(1, 2))
        f, bev = rng.normal(size=C), rng.normal(size=(C, 32, 32))
        out = decoder_layer(f[None], ref, _initial_state(ref), bev, params, 0,
                            grid)[:3]
        # self-attention over a single query is its value path
        attn = params.self_attn[0]
        f = f + apply(attn.w_o, apply(attn.w_v, f))
        # layer 0 samples at the center + raw offsets, plus the position
        # embedding of the normalized points
        pts = apply(params.offset_gen, f).reshape(n_p, 2) + ref[0]
        G = np.stack([bilinear_sample(bev, tuple(p))[0] + apply(
            params.pos_embed_proj, sinusoidal_encode(p / 32.0, params.pe_dim))
            for p in pts])
        G_c = ln_relu(G @ apply(params.channel_mix_gen, f).reshape(C, C))
        G_cs = ln_relu(G_c.T @ apply(params.spatial_mix_gen, f).reshape(n_p, n_p))
        f = f + apply(params.out_proj, G_cs.T.ravel())
        f = f + apply(params.ffn2, np.maximum(apply(params.ffn1, f), 0.0))
        for fast, slow in zip(out, (f, apply(params.reg_head, f),
                                    apply(params.cls_head, f))):
            dev = float(np.max(np.abs(val(fast)[0] - slow)))
            assert dev < 1e-12, f"max deviation {dev:.3e}"
            worst = max(worst, dev)
    return f"max deviation {worst:.2e} over {n_trials} layers"


def check_vt_equivalence(rng, n_instances=8):
    """The view-transform sampler against the naive oracle on random
    instances."""
    worst = 0.0
    for _ in range(n_instances):
        params, lidar, pyramids, cams, grid = random_vt_instance(rng)
        fast = val(adaptive_sample(params, lidar, pyramids, cams, grid).bev)
        slow, _ = naive_adaptive_sample(params, lidar, pyramids, cams, grid)
        dev = float(np.max(np.abs(fast - slow)))
        assert dev < 1e-12, f"max deviation {dev:.3e}"
        worst = max(worst, dev)
    return f"max deviation {worst:.2e} over {n_instances} instances"


def check_vt_edge_lanes(rng, n_instances=4):
    """The compacted sampler against the naive oracle on instances that hold
    every kind of edge lane: cells no camera sees, lanes inside the image
    but outside a level's sampleable box (x / stride in (W_j - 1,
    (W - 1) / stride], likewise y), and cells two cameras see.

    Two adjacent cameras of a six-camera ring overlap by 20 degrees and
    leave the far side unseen; 30-px images make the stride-4 level 7 cells
    wide, so pixels in (24, 29] are valid but not sampleable there.
    """
    unseen = edge = shared = 0
    worst = 0.0
    for _ in range(n_instances):
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=3, H=12, n_h=3, n_s=2, img=30, ring=6)
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
                x, y, ok = project_heights(cam, X, Y, z)
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
    return (f"max deviation {worst:.2e}; {unseen} unseen cells, {edge} "
            f"box-edge lanes, {shared} shared cells")


# ---------------------------------------------------------------------------
# suites


def _run_checks(checks):
    results = []
    for name, fn in checks:
        try:
            detail = fn()
            results.append((name, True, detail if isinstance(detail, str) else "ok"))
        except Exception as exc:  # a failed check, not a crash of the suite
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def run_oracle_suite(seed=0, n_instances=8):
    rng = np.random.default_rng(seed)

    def bilinear_vectorized():
        fmap = rng.normal(size=(3, 9, 11))
        xs = rng.uniform(-2, 12, size=60)
        ys = rng.uniform(-2, 10, size=60)
        fast = ad.bilinear_gather(fmap, xs, ys)
        for i in range(60):
            ref, _ = bilinear_sample(fmap, (xs[i], ys[i]))
            assert np.max(np.abs(fast[i] - ref)) < 1e-12
        return "60 points"

    def topk_matches():
        spec = GroupSpec(((0,), (1, 2)), 5)
        for _ in range(20):
            hm = rng.uniform(size=(3, 12, 12))
            fast = topk_keypoints(hm, spec)
            slow = naive_topk(hm, spec)
            for fp, sp in zip(fast, slow, strict=True):
                assert np.array_equal(fp, sp)
        return "20 heatmaps"

    def gaussian_targets_match():
        grid = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (16, 16))
        # two classes for four boxes: same-class overlaps take the max
        scene = make_scene(SceneConfig(grid=grid, channels=4, n_boxes=4,
                                       image_size=(32, 32), strides=(4,),
                                       n_cameras=2, classes=(0, 1),
                                       fixed_dims=(3.0, 1.5, 1.5)),
                           seed=int(rng.integers(1000)))
        fast = gaussian_target(scene.boxes, grid, 10)
        slow = naive_gaussian_target(scene.boxes, grid, 10)
        worst = float(np.max(np.abs(fast - slow)))
        assert worst < 1e-12, f"max deviation {worst:.3e}"
        return f"max deviation {worst:.2e}; 4 boxes in 2 classes"

    return _run_checks([
        ("oracle.vt_equivalence",
         lambda: check_vt_equivalence(rng, n_instances)),
        ("oracle.vt_edge_lanes", lambda: check_vt_edge_lanes(rng)),
        ("oracle.attention_blocked", lambda: check_attention_blocked(rng)),
        ("oracle.adaptive_project_blocked",
         lambda: check_adaptive_project_blocked(rng)),
        ("oracle.bilinear_vectorized", bilinear_vectorized),
        ("oracle.topk", topk_matches),
        ("oracle.gaussian_target", gaussian_targets_match),
        ("oracle.decoder_layer", lambda: check_decoder_layer(rng)),
    ])


def check_adaptive_sampling_grad(rng):
    """Gradients of adaptive sampling, heights included, for the
    generators, the LiDAR map and one camera's two levels. The second
    camera is pitched down 5 degrees, so that its pixel x depends on the
    heights too (a level camera's does not) and the gather's d/dx is
    checked."""
    params, lidar, pyramids, cams, g = random_vt_instance(
        rng, C=4, H=8, n_h=2, n_s=2)
    cams = (cams[0], pitch_camera(cams[1], 5.0))

    def loss(p, extras):
        pyr = [FeaturePyramid(((pyramids[0].strides[0], extras["f0"]),
                               (pyramids[0].strides[1], extras["f1"]))),
               pyramids[1]]
        out = adaptive_sample(p, extras["lidar"], pyr, cams, g)
        return ad.sum_(ad.mul(out.bev, 0.3))

    worst = _gradcheck_tree(
        loss, params,
        {"lidar": lidar, "f0": val(pyramids[0].levels[0][1]),
         "f1": val(pyramids[0].levels[1][1])})
    return f"worst rel err {worst:.2e}"


def check_adaptive_projection_grad(rng):
    """Gradients of adaptive projection followed by fusion, with the cells
    and the kernel gradient's rows in several blocks."""
    params, lidar, pyramids, cams, g = random_vt_instance(
        rng, C=4, H=8, n_h=2, n_s=1)
    bev_as = rng.normal(size=(4, 8, 8))

    def loss(p, extras):
        cam_bev = adaptive_project(p, extras["bev_as"], extras["lidar"])
        fused = fuse_bev(p, cam_bev, extras["lidar"])
        return ad.sum_(ad.mul(fused, 0.2))

    # the 64 cells in blocks of 10 (6 x 10 + 4), d(K) one kernel row at a
    # time
    with block_bytes(8 * 4 * 4 * 10):
        worst = _gradcheck_tree(loss, params,
                                {"bev_as": bev_as, "lidar": lidar})
    return f"worst rel err {worst:.2e}"


def check_position_mixing_grad(rng, grid):
    """Gradients of corner sampling and position-aware mixing, for the
    decoder weights, the query features, the BEV map and the box sizes
    and headings."""
    params = _tiny_decoder_params(rng)
    feats = rng.normal(size=(3, 4))
    bev = rng.normal(size=(4, 8, 8))
    ref = rng.uniform(2, 6, size=(3, 2))
    boxes = {"xc": ref[:, 0] + rng.normal(0, 0.3, 3),
             "yc": ref[:, 1] + rng.normal(0, 0.3, 3),
             "z": rng.normal(0, 0.5, 3), "l": rng.uniform(1, 3, 3),
             "w": rng.uniform(0.5, 1.5, 3), "h": rng.uniform(1, 2, 3),
             "yaw": rng.uniform(-2, 2, 3)}

    def loss(p, extras):
        box_vars = {k: extras[f"box_{k}"] for k in ("l", "w", "yaw")}
        box_vars.update({k: boxes[k] for k in ("xc", "yc", "z", "h")})
        pts = _corner_points_batch(extras["feats"], box_vars, p, grid)
        sampled = corner_sample(extras["bev"], pts)
        out = _position_aware_mix_batch(extras["feats"], sampled, pts, p, grid)
        return ad.sum_(ad.mul(out, 0.1))

    worst = _gradcheck_tree(
        loss, params,
        {"feats": feats, "bev": bev, "box_l": boxes["l"],
         "box_w": boxes["w"], "box_yaw": boxes["yaw"]})
    return f"worst rel err {worst:.2e}"


def check_group_query_grad(rng, grid):
    """Gradients of `mixed_groupwise` queries through one decoder layer,
    for the group embeddings: each group's three queries gather the same
    row, so its gradient is the sum over them."""
    cfg = PipelineConfig(grid, channels=4, groups=GroupSpec(((0,), (1, 2)), 3),
                         n_heads=2, query_init="mixed_groupwise")
    params = init_params(cfg, seed=0)
    dec = _tiny_decoder_params(rng)
    bev = rng.normal(size=(4, 8, 8))
    heatmaps = rng.uniform(size=(3, 8, 8))

    def loss(_p, extras):
        p = dataclasses.replace(params, group_embeds=extras["group_embeds"])
        feats, ref, _ = _query_features(cfg, p, bev, heatmaps)
        return _readout_loss(decoder_layer(feats, ref, _initial_state(ref),
                                           bev, dec, 0, grid))

    worst = _gradcheck_tree(loss, zero_linear(1, 1),
                            {"group_embeds": rng.normal(size=(2, 4))})
    return f"worst rel err {worst:.2e}"


def check_deformable_layer_grad(rng, grid):
    """Gradients of a `deformable_scaled_rotated` decoder layer, whose
    softmax-weighted point pooling is the program's one `ad.sum_` over an
    axis, for the query features, the BEV map, the point weights and the
    offset weights. The box state has nonzero sizes and headings, so the
    offsets are scaled and rotated."""
    dec = _tiny_decoder_params(rng, C=2, n_heads=1)
    feats = rng.normal(size=(3, 2))
    bev = rng.normal(size=(2, 8, 8))
    ref = rng.uniform(2, 6, size=(3, 2))
    state = dict(_initial_state(ref), l=rng.uniform(1, 3, 3),
                 w=rng.uniform(0.5, 1.5, 3), yaw=rng.uniform(-2, 2, 3))

    def loss(p, extras):
        d = dataclasses.replace(
            dec, point_weight_gen=p,
            offset_gen=LinearMap(extras["offset_w"], dec.offset_gen.bias))
        return _readout_loss(decoder_layer(
            extras["feats"], ref, state, extras["bev"], d, 0, grid,
            mode="deformable_scaled_rotated"))

    worst = _gradcheck_tree(
        loss, dec.point_weight_gen,
        {"feats": feats, "bev": bev, "offset_w": dec.offset_gen.weight})
    return f"worst rel err {worst:.2e}"


def run_grad_suite(seed=0):
    rng = np.random.default_rng(seed)
    grid = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (8, 8))

    def heatmap_path():
        scorer = _rand_linear(rng, 3, 4)
        fuse = rng.normal(size=(4, 6, 6))
        target = np.zeros((3, 6, 6))
        target[0, 2, 3] = 1.0
        target[1, 4, 1] = 1.0

        def loss(p, extras):
            return gaussian_focal_loss(predict_heatmaps(p, extras["fuse"]), target)

        worst = _gradcheck_tree(loss, scorer, {"fuse": fuse})
        return f"worst rel err {worst:.2e}"

    def full_layer_path():
        params = _tiny_decoder_params(rng)
        feats = rng.normal(size=(2, 4))
        bev = rng.normal(size=(4, 8, 8))
        ref = np.array([[3.0, 3.5], [5.0, 4.0]])
        state = _initial_state(ref)

        def loss(p, extras):
            return _readout_loss(decoder_layer(
                extras["feats"], ref, state, extras["bev"], p, 0, grid))

        worst = _gradcheck_tree(loss, params, {"feats": feats, "bev": bev})
        return f"worst rel err {worst:.2e}"

    def loss_paths():
        hm = 1 / (1 + np.exp(-rng.normal(size=(2, 5, 5))))
        tgt = np.zeros((2, 5, 5))
        tgt[0, 2, 2] = 1.0
        tgt[1, 1, 3] = 0.5
        enc_t = rng.normal(size=(4, 8))

        def gf_l(_p, extras):
            return gaussian_focal_loss(extras["hm"], tgt)

        def l1_l(_p, extras):
            return l1_encoded(extras["enc"], enc_t)

        dummy = zero_linear(1, 1)
        w1 = _gradcheck_tree(gf_l, dummy, {"hm": hm})
        w2 = _gradcheck_tree(l1_l, dummy, {"enc": rng.normal(size=(4, 8)) + 0.1})
        return f"worst rel errs {max(w1, w2):.2e}"

    return _run_checks([
        ("grad.adaptive_sampling_incl_heights",
         lambda: check_adaptive_sampling_grad(rng)),
        ("grad.adaptive_projection_fusion",
         lambda: check_adaptive_projection_grad(rng)),
        ("grad.heatmap_head", heatmap_path),
        ("grad.corner_offsets_position_mixing",
         lambda: check_position_mixing_grad(rng, grid)),
        ("grad.full_decoder_layer", full_layer_path),
        ("grad.attention", lambda: check_attention_grad(rng, grid)),
        ("grad.losses", loss_paths),
        ("grad.mixed_groupwise_queries",
         lambda: check_group_query_grad(rng, grid)),
        ("grad.deformable_layer",
         lambda: check_deformable_layer_grad(rng, grid)),
    ])


def run_props_suite(seed=0):
    rng = np.random.default_rng(seed)

    def softmax_props():
        for _ in range(1000):
            v = rng.normal(size=int(rng.integers(1, 10))) * 8
            out = ad.softmax(v)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.allclose(out, ad.softmax(v + rng.normal() * 3), atol=1e-12)
        return "1000 trials"

    def layer_norm_props():
        # scaled to sample variance >= 25 so the 1e-5 epsilon guard stays
        # below the 1e-6 variance tolerance
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(4, 40)))
            v = v / v.std() * rng.uniform(5, 20)
            out = ad.layer_norm(v)
            assert abs(out.mean()) < 1e-9 and abs(out.var() - 1.0) < 1e-6
        return "200 trials"

    def pooling_weights_sum():
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=4, H=8, n_h=3, n_s=2)
        out = adaptive_sample(params, lidar, pyramids, cams, grid)
        sums = out.per_cell_weights.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert out.per_cell_weights.min() > 0 and out.per_cell_weights.max() < 1
        assert out.per_cell_heights.min() >= grid.z_range[0] - 1e-12
        assert out.per_cell_heights.max() <= grid.z_range[1] + 1e-12
        return "ok"

    def rotation_equivariance():
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
            R = np.array([[c, -s], [s, c]])
            rotated = val(off1)[0] @ R.T
            assert np.max(np.abs(val(off2)[0] - rotated)) < 1e-9
        return "100 trials"

    def residual_identity():
        rng2 = np.random.default_rng(seed + 1)
        params = _tiny_decoder_params(rng2, n_layers=6)
        params = dataclasses.replace(
            params,
            out_proj=zero_linear(4, 16), ffn2=zero_linear(4, 8),
            self_attn=tuple(dataclasses.replace(a, w_o=zero_linear(4, 4))
                            for a in params.self_attn))
        feats = rng2.normal(size=(3, 4))
        bev = rng2.normal(size=(4, 8, 8))
        ref = rng2.uniform(2, 6, size=(3, 2))
        grid = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (8, 8))

        cur = feats.copy()
        state = _initial_state(ref)
        for li in range(6):
            cur, _, _, state = decoder_layer(cur, ref, state, bev, params,
                                             li, grid)
        assert np.array_equal(cur, feats)
        return "bit-identical through 6 layers"

    return _run_checks([
        ("props.softmax", softmax_props),
        ("props.layer_norm", layer_norm_props),
        ("props.pooling_weights", pooling_weights_sum),
        ("props.rotation_equivariance", rotation_equivariance),
        ("props.residual_identity", residual_identity),
    ])


def run_suites(which="all", seed=0):
    out = []
    if which in ("all", "oracle"):
        out.extend(run_oracle_suite(seed))
    if which in ("all", "grad"):
        out.extend(run_grad_suite(seed))
    if which in ("all", "props"):
        out.extend(run_props_suite(seed))
    return out
