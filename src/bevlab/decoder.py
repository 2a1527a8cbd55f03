"""Query decoder: corner-aware sampling, position-aware feature mixing,
baseline attention variants, box heads, and the loss formulas.

Each layer runs multi-head self-attention among the queries, then one of
the attention modes over the fused BEV map, then an FFN and the box heads.

In the paper's `geometry_aware` mode, sampling points are placed at the
four box corners (sign pattern cycling with the point index) scaled by the
current box estimate and rotated by its heading, so rotating the box
rotates every sampling offset with it. Sampled features are fused with
sinusoidal embeddings of their absolute sampling locations and decoded
through adaptive channel and spatial mixing. The two deformable baselines
sample around the center instead and pool the samples with predicted
weights; the `standard` baseline attends densely to every BEV cell.

Self-attention and `standard` cross-attention both go through `_mha`,
whose softmax attention never holds the [heads, queries, cells] scores:
1.9 GB at the default 8 heads, 900 queries and 32,400 cells.
`autodiff.attention` documents its tile plan, its budgets and its bits.
The layers share the `cross_attn` weights, so `run_decoder` projects the
BEV cells' keys and values once per forward, not once per layer, in
blocks of cells straight into the [kᵀ ; 1] and [v | 1] operands that
every layer's attention reads in place (`autodiff.attention_keys`).

The sampling modes run each layer's per-query branch (sample the map at
the queries' points, then mix the samples or pool them) over equal blocks
of queries, `_query_blocks`: ceil(Nq / cap) blocks whose sizes differ by
at most one, cap being `ad._BLOCK_BYTES` over one query's generated
kernels and samples (585 queries at the defaults). So a 300-query fit
runs one block, and the default 900 queries run two blocks of 450, whose
forward holds one block's [C, C] channel kernels at a time, not all 900
queries' (7.4 MB, made twice: the product, then its bias added). A query's
branch reads only its own row, but OpenBLAS may take a block's products
through another kernel than the whole batch's, so the bits hold only
down to a floor, measured at the defaults (scene 1003): equal blocks of
45 to 450 of the 900 queries kept every byte of `detections.json`, blocks
of 2 to 36 did not, and neither did blocks of 64 or 128, whose 4-query
tail moved last bits. One block is the whole batch's graph node for
node; past one, a traced layer joins the blocks with ``ad.concat``, and
the map's and the weights' gradients become sums over blocks, equal to
the whole batch's up to rounding. Self-attention, the sampling points,
the FFN and the heads run on all queries at once.

Box estimates feeding the geometry of the next layer are detached; gradients
reach the regression head through per-layer supervision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .geometry import BevGrid
from .tensor import LinearMap, chw_to_cells, linear_apply, sinusoid_freqs

# corner sign pattern, cycled by point index i -> corner j = i mod 4
CORNER_SIGNS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])

ATTENTION_MODES = ("geometry_aware", "deformable_center",
                   "deformable_scaled_rotated", "standard")

ENC_DIM = 8  # (du, dv, z, log l, log w, log h, sin yaw, cos yaw)


@dataclass(frozen=True)
class AttentionParams:
    """Projections of one multi-head attention block. The key projection
    w_k [C, C] has no bias: a key bias b adds q_i · b to every score of
    query row i, which softmax undoes, so no output depends on it and its
    exact gradient is 0."""

    w_q: LinearMap
    w_k: object  # [C, C] ndarray (or Var during fitting)
    w_v: LinearMap
    w_o: LinearMap


@dataclass(frozen=True)
class DecoderParams:
    """Decoder weights. The arrays fix every count but the head count: C is
    `offset_gen`'s input width, N_p (`n_points`) `point_weight_gen`'s output
    width, `pe_dim` `pos_embed_proj`'s input width, and `n_layers` the
    number of self-attention blocks."""

    n_heads: int
    offset_gen: LinearMap        # [C -> 2*N_p]
    point_weight_gen: LinearMap  # [C -> N_p], deformable baselines only
    deform_out_proj: LinearMap   # [C -> C], deformable baselines only
    pos_embed_proj: LinearMap    # [pe_dim -> C]
    channel_mix_gen: LinearMap   # [C -> C*C]
    spatial_mix_gen: LinearMap   # [C -> N_p*N_p]
    out_proj: LinearMap          # [N_p*C -> C]
    self_attn: tuple             # AttentionParams per layer
    cross_attn: AttentionParams  # standard-attention baseline only
    ffn1: LinearMap              # [C -> 2C]
    ffn2: LinearMap              # [2C -> C]
    reg_head: LinearMap          # [C -> 8]
    cls_head: LinearMap          # [C -> n_classes]

    def __post_init__(self):
        C = self.offset_gen.in_dim
        if self.n_points % 4 != 0:
            raise ValueError("n_points must be divisible by 4 (corner cycling)")
        if self.pe_dim % 4 != 0:
            raise ValueError("pe_dim must be divisible by 4")
        if C % self.n_heads != 0:
            raise ValueError("feature dim must be divisible by n_heads")
        if self.offset_gen.out_dim != 2 * self.n_points:
            raise ValueError("offset_gen must output 2*n_points values")
        if self.reg_head.out_dim != ENC_DIM:
            raise ValueError(f"reg_head must output {ENC_DIM} values")

    @property
    def channels(self):
        return self.offset_gen.in_dim

    @property
    def n_layers(self):
        return len(self.self_attn)

    @property
    def n_points(self):
        return self.point_weight_gen.out_dim

    @property
    def pe_dim(self):
        return self.pos_embed_proj.in_dim


def attention_params(linear, channels):
    """AttentionParams whose maps linear(C, C) makes in field order; w_k
    keeps only its map's weight."""
    w_q, w_k, w_v, w_o = (linear(channels, channels) for _ in range(4))
    return AttentionParams(w_q, w_k.weight, w_v, w_o)


def decoder_params(linear, channels, n_points, n_layers, n_heads, n_classes,
                   pe_dim):
    """DecoderParams of these sizes, each map made by linear(out_dim,
    in_dim) in field order, so a seeded `linear` fixes every draw."""
    C, n_p = channels, n_points
    return DecoderParams(
        n_heads=n_heads,
        offset_gen=linear(2 * n_p, C),
        point_weight_gen=linear(n_p, C),
        deform_out_proj=linear(C, C),
        pos_embed_proj=linear(C, pe_dim),
        channel_mix_gen=linear(C * C, C),
        spatial_mix_gen=linear(n_p * n_p, C),
        out_proj=linear(C, n_p * C),
        self_attn=tuple(attention_params(linear, C) for _ in range(n_layers)),
        cross_attn=attention_params(linear, C),
        ffn1=linear(2 * C, C),
        ffn2=linear(C, 2 * C),
        reg_head=linear(ENC_DIM, C),
        cls_head=linear(n_classes, C))


def encode_box(center_cells, z, dims, yaw, ref_point):
    """Encode a ground-truth box against a reference point: the regression
    target vector (center delta in cells, z, log-dims, sin/cos heading)."""
    l, w, h = dims
    if min(l, w, h) <= 0:
        raise ValueError("box dims must be positive to encode")
    return np.array([center_cells[0] - ref_point[0], center_cells[1] - ref_point[1],
                     z, math.log(l), math.log(w), math.log(h),
                     math.sin(yaw), math.cos(yaw)])


# ---------------------------------------------------------------------------
# sampling geometry


def _corner_points_batch(feats, boxes, params: DecoderParams, grid: BevGrid,
                         mode="geometry_aware"):
    """Sampling points for a batch of queries, [Nq, N_p, 2] in cell units.

    boxes: dict of arrays (xc, yc cells; l, w meters; yaw rad), possibly
    traced. Modes:
      geometry_aware          corners +- l/2, w/2 plus offsets, rotated
      deformable_scaled_rotated  offsets scaled by l/2, w/2, rotated
      deformable_center       raw offsets around the center
    """
    n_p = params.n_points
    nq = np.shape(val(feats))[0]
    raw = ad.reshape(linear_apply(params.offset_gen, feats), (nq, n_p, 2))
    raw_x = ad.getitem(raw, (slice(None), slice(None), 0))
    raw_y = ad.getitem(raw, (slice(None), slice(None), 1))

    cell = grid.cell_size_x  # cells are square (PipelineConfig checks)
    half_l = ad.reshape(ad.mul(ad.div(boxes["l"], cell), 0.5), (nq, 1))
    half_w = ad.reshape(ad.mul(ad.div(boxes["w"], cell), 0.5), (nq, 1))
    signs = np.tile(CORNER_SIGNS, (n_p // 4, 1))  # [N_p, 2]

    if mode == "geometry_aware":
        px = ad.add(ad.mul(half_l, signs[None, :, 0]), raw_x)
        py = ad.add(ad.mul(half_w, signs[None, :, 1]), raw_y)
    elif mode == "deformable_scaled_rotated":
        px = ad.mul(half_l, raw_x)
        py = ad.mul(half_w, raw_y)
    elif mode == "deformable_center":
        px, py = raw_x, raw_y
    else:
        raise ValueError(f"unknown sampling mode: {mode}")

    if mode == "deformable_center":
        dx, dy = px, py
    else:
        c = ad.reshape(ad.cos(boxes["yaw"]), (nq, 1))
        s = ad.reshape(ad.sin(boxes["yaw"]), (nq, 1))
        dx = ad.sub(ad.mul(px, c), ad.mul(py, s))
        dy = ad.add(ad.mul(px, s), ad.mul(py, c))

    x = ad.add(dx, ad.reshape(boxes["xc"], (nq, 1)))
    y = ad.add(dy, ad.reshape(boxes["yc"], (nq, 1)))
    return ad.stack([x, y], axis=2)


def corner_sample(bev_fuse, points):
    """Bilinear-sample the fused BEV map at every sampling point
    (zero-padding outside the grid). points: [..., 2] cell coords."""
    shp = np.shape(val(points))
    n = int(np.prod(shp[:-1]))
    flat = ad.reshape(points, (n, 2))
    xs = ad.getitem(flat, (slice(None), 0))
    ys = ad.getitem(flat, (slice(None), 1))
    feats = ad.bilinear_gather(bev_fuse, xs, ys)
    C = np.shape(val(bev_fuse))[0]
    return ad.reshape(feats, shp[:-1] + (C,))


# ---------------------------------------------------------------------------
# feature mixing and attention


def _position_embed(points, params: DecoderParams, grid: BevGrid):
    """Sinusoidal embeddings of absolute sampling points normalized by the
    grid extent, projected to the feature dim. points: [Nq, N_p, 2]."""
    nq, n_p, _ = np.shape(val(points))
    freqs = sinusoid_freqs(params.pe_dim)
    blocks = []
    for axis, extent in ((0, grid.width), (1, grid.height)):
        coord = ad.div(ad.getitem(points, (slice(None), slice(None), axis)),
                       float(extent))
        phase = ad.mul(ad.reshape(coord, (nq, n_p, 1)), freqs[None, None, :])
        inter = ad.stack([ad.sin(phase), ad.cos(phase)], axis=3)
        blocks.append(ad.reshape(inter, (nq, n_p, params.pe_dim // 2)))
    pe = ad.concat(blocks, axis=2)
    e = linear_apply(params.pos_embed_proj,
                     ad.reshape(pe, (nq * n_p, params.pe_dim)))
    return ad.reshape(e, (nq, n_p, params.channels))


def _position_aware_mix_batch(feats, sampled, points, params: DecoderParams,
                              grid: BevGrid):
    """Adaptive channel then spatial mixing of position-augmented samples.

    The tape holds neither the per-query kernels w_c [Nq, C, C] and w_s
    [Nq, N_p, N_p] nor the relu outputs that the products multiply. Each
    product's vjp rebuilds the operand it reads with the forward's own
    numpy expressions, on arrays the tape holds anyway: the kernels from
    the query features (held by the generators' products) and the
    generator weights, and each relu output, transposed or flattened as in
    the forward, from its layer norm's output (held by the layer norm's
    vjp). Of the mixing's per-query arrays the tape then keeps G, the two
    layer norms' outputs and the relus' masks, and every value and
    gradient keeps its bits.

    `decoder_layer` calls it on one block of queries at a time
    (`_query_blocks`), so an untraced forward holds one block's kernels,
    not all queries'. Each query's kernels mix only its own samples, so
    equal blocks that are not too small keep the whole batch's bits (the
    module docstring gives the floor measured).
    """
    vf = val(feats)
    nq = np.shape(vf)[0]
    C = params.channels
    n_p = params.n_points

    def kernels(gen: LinearMap, shape):
        # `linear_apply`, then `ad.reshape`
        weight, bias = val(gen.weight), val(gen.bias)
        return lambda: (np.matmul(vf, np.transpose(weight)) + bias).reshape(
            shape)

    def relu_t(y):
        # `ad.relu`, then `ad.transpose` of the last two axes
        y = val(y)
        return lambda: np.transpose(np.maximum(y, 0.0), (0, 2, 1))

    G = ad.add(sampled, _position_embed(points, params, grid))  # [Nq, N_p, C]
    c_shape, s_shape = (nq, C, C), (nq, n_p, n_p)
    y_c = ad.layer_norm(ad.matmul(
        G, ad.reshape(linear_apply(params.channel_mix_gen, feats), c_shape),
        rebuild_b=kernels(params.channel_mix_gen, c_shape)))
    y_s = ad.layer_norm(ad.matmul(
        ad.transpose(ad.relu(y_c), (0, 2, 1)),
        ad.reshape(linear_apply(params.spatial_mix_gen, feats), s_shape),
        rebuild_a=relu_t(y_c),
        rebuild_b=kernels(params.spatial_mix_gen, s_shape)))
    # flatten spatial-major: entry p*C + c
    flat = ad.reshape(ad.transpose(ad.relu(y_s), (0, 2, 1)), (nq, n_p * C))
    g_cs = relu_t(y_s)
    return ad.add(feats, linear_apply(
        params.out_proj, flat,
        rebuild_x=lambda: g_cs().reshape((nq, n_p * C))))


def _heads(x, n_heads):
    """Rows x [N, C] split into heads: [heads, N, C / heads]."""
    n, C = np.shape(val(x))
    return ad.transpose(ad.reshape(x, (n, n_heads, C // n_heads)), (1, 0, 2))


def _keys_values(kv_in, attn: AttentionParams, n_heads):
    """Keys and values of the rows of kv_in [Nk, C] under `attn`, as the
    operands of ``ad.attention`` (`ad.attention_keys`)."""
    return ad.attention_keys(kv_in, attn.w_k, attn.w_v.weight, attn.w_v.bias,
                             n_heads)


def _mha(q_in, kv, attn: AttentionParams, n_heads):
    """Multi-head softmax attention of the rows of q_in [Nq, C] over the
    keys and values kv of `_keys_values`; returns the pre-residual output
    [Nq, C].

    The 1/sqrt(dh) score scale is folded into the queries (exact when dh is
    a power of 4, as at the default dh = 4). ``ad.attention`` then works
    through tiles of query rows times keys, so memory grows with Nq + Nk,
    not with Nq * Nk, in the forward and the backward pass alike.
    """
    nq, C = np.shape(val(q_in))
    q = _heads(ad.mul(linear_apply(attn.w_q, q_in),
                      1.0 / math.sqrt(C // n_heads)), n_heads)
    ctx = ad.attention(q, *kv)  # [heads, Nq, dh]
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (nq, C))
    return linear_apply(attn.w_o, merged)


def self_attention(feats, attn: AttentionParams, n_heads):
    """Standard residual multi-head self-attention among query features."""
    return ad.add(feats, _mha(feats, _keys_values(feats, attn, n_heads), attn,
                              n_heads))


# ---------------------------------------------------------------------------
# box state


def _decode_state(enc, ref_points, grid: BevGrid):
    """Detached box arrays for the next layer's sampling geometry; a
    zero-norm heading decodes to yaw 0.

    No box side is longer than the diagonal of the grid's volume: the
    log-dims are clipped to its log before `np.exp`, which overflows to inf
    above 709 (an untrained head on very noisy features reaches that, and
    an infinite side makes the next layer's corners NaN)."""
    e = val(enc)
    diagonal = math.hypot(grid.x_range[1] - grid.x_range[0],
                          grid.y_range[1] - grid.y_range[0], grid.z_span)
    l, w, h = np.exp(np.minimum(e[:, 3:6], math.log(diagonal))).T
    return {"xc": ref_points[:, 0] + e[:, 0], "yc": ref_points[:, 1] + e[:, 1],
            "z": e[:, 2], "l": l, "w": w, "h": h,
            "yaw": np.arctan2(e[:, 6], e[:, 7])}


def _initial_state(ref_points):
    """First-layer boxes: center on the reference point, l = w = yaw = 0."""
    nq = ref_points.shape[0]
    z = np.zeros(nq)
    return {"xc": ref_points[:, 0].copy(), "yc": ref_points[:, 1].copy(),
            "z": z, "l": z.copy(), "w": z.copy(), "h": z.copy(),
            "yaw": z.copy()}


# ---------------------------------------------------------------------------
# decoder stack


def _query_bytes(params: DecoderParams):
    """Bytes of one query's generated kernels w_c and w_s and its samples:
    14 KiB at the default C = 32 and N_p = 16."""
    C, n_p = params.channels, params.n_points
    return 8 * (C * C + n_p * n_p + n_p * C)


def _query_blocks(nq, params: DecoderParams):
    """Block plan of a layer's per-query branch for nq queries: slices of
    queries in ceil(nq / cap) blocks whose sizes differ by at most one,
    where cap is `ad._BLOCK_BYTES` over `_query_bytes` (585 queries at the
    defaults). No block is one query when nq > 1: numpy takes a one-row
    product through gemv, which sums in another order."""
    cap = max(1, ad._BLOCK_BYTES // _query_bytes(params))
    n = max(1, min(-(-nq // cap), nq // 2))
    return [slice(i * nq // n, (i + 1) * nq // n) for i in range(n)]


def _sample_and_mix(feats, points, bev_fuse, params: DecoderParams,
                    grid: BevGrid, mode):
    """The per-query branch of a sampling mode, with its residual: sample
    bev_fuse at the queries' points [Nq, N_p, 2], then mix the samples
    (`geometry_aware`) or pool them with predicted weights (the deformable
    baselines). Returns the new query features [Nq, C]."""
    sampled = corner_sample(bev_fuse, points)
    if mode == "geometry_aware":
        return _position_aware_mix_batch(feats, sampled, points, params, grid)
    w = ad.softmax(linear_apply(params.point_weight_gen, feats))
    nq, n_p = np.shape(val(w))
    agg = ad.sum_(ad.mul(sampled, ad.reshape(w, (nq, n_p, 1))), axis=1)
    return ad.add(feats, linear_apply(params.deform_out_proj, agg))


def decoder_layer(feats, ref_points, boxes, bev_fuse, params: DecoderParams,
                  layer_idx, grid: BevGrid, mode="geometry_aware",
                  cross_kv=None):
    """One decoder layer over a batch of queries.

    feats: [Nq, C]; ref_points: [Nq, 2] plain; boxes: detached state dict
    from the previous layer (or the initial state). In `standard` mode the
    layer attends to cross_kv, the BEV cells' keys and values under
    `cross_attn` (`_keys_values`), instead of sampling bev_fuse. Returns
    (new feats, encoded predictions [Nq, 8], class logits, next box state).
    """
    if not 0 <= layer_idx < params.n_layers:
        raise ValueError(f"layer_idx {layer_idx} out of range")
    if mode not in ATTENTION_MODES:
        raise ValueError(f"unknown attention mode: {mode}")

    feats = self_attention(feats, params.self_attn[layer_idx], params.n_heads)

    if mode == "standard":
        feats = ad.add(feats, _mha(feats, cross_kv, params.cross_attn,
                                   params.n_heads))
    else:
        points = _corner_points_batch(feats, boxes, params, grid, mode=mode)
        blocks = _query_blocks(np.shape(val(feats))[0], params)
        if len(blocks) == 1:
            feats = _sample_and_mix(feats, points, bev_fuse, params, grid, mode)
        else:
            feats = ad.concat([_sample_and_mix(
                ad.getitem(feats, b), ad.getitem(points, b), bev_fuse, params,
                grid, mode) for b in blocks])

    hidden = ad.relu(linear_apply(params.ffn1, feats))
    feats = ad.add(feats, linear_apply(params.ffn2, hidden))

    enc = linear_apply(params.reg_head, feats)
    cls = linear_apply(params.cls_head, feats)
    return feats, enc, cls, _decode_state(enc, ref_points, grid)


def run_decoder(feats, ref_points, bev_fuse, params: DecoderParams,
                grid: BevGrid, mode="geometry_aware"):
    """Full decoder stack. Returns a list, one entry per layer, of dicts
    with encoded predictions, class logits, and decoded box state. In
    `standard` mode the BEV cells' keys and values are projected once, into
    the attention operands of all layers."""
    boxes = _initial_state(ref_points)
    cross_kv = None
    if mode == "standard":
        cross_kv = _keys_values(chw_to_cells(bev_fuse), params.cross_attn,
                                params.n_heads)
    layers = []
    for li in range(params.n_layers):
        feats, enc, cls, boxes = decoder_layer(
            feats, ref_points, boxes, bev_fuse, params, li, grid, mode=mode,
            cross_kv=cross_kv)
        layers.append({"enc": enc, "cls": cls, "boxes": boxes})
    return layers


# ---------------------------------------------------------------------------
# losses


FOCAL_ALPHA = 2.0  # exponent of the focal factor (1 - p) or p
FOCAL_BETA = 4.0   # exponent of the penalty reduction (1 - target)


def gaussian_focal_loss(pred_heatmap, target_heatmap):
    """Penalty-reduced focal loss for Gaussian center heatmaps (CenterNet's,
    with FOCAL_ALPHA and FOCAL_BETA).

    Positives are cells where the target is exactly 1; the loss is
    normalized by the positive count (at least 1)."""
    t = np.asarray(val(target_heatmap))
    pos = t == 1.0
    n_pos = max(int(pos.sum()), 1)
    p = ad.clip(pred_heatmap, 1e-12, 1.0 - 1e-12)
    one_m_p = ad.sub(1.0, p)
    pos_term = ad.mul(ad.mul(ad.power(one_m_p, FOCAL_ALPHA), ad.log(p)),
                      -1.0 * pos)
    neg_term = ad.mul(ad.mul(ad.power(p, FOCAL_ALPHA), ad.log(one_m_p)),
                      -((1.0 - t) ** FOCAL_BETA) * (~pos))
    return ad.div(ad.add(ad.sum_(pos_term), ad.sum_(neg_term)), float(n_pos))


def l1_encoded(pred_enc, target_enc):
    """Mean absolute error between encoded prediction and target vectors."""
    return ad.mean(ad.absolute(ad.sub(pred_enc, target_enc)))
