"""Corner-aware sampling, position-aware mixing, decoder stack, and losses."""

import dataclasses
import math

import numpy as np
import pytest

from bevlab import autodiff as ad, decoder, verify
from bevlab.autodiff import val
from bevlab.decoder import (AttentionParams, DecoderParams, corner_sample,
                            decoder_layer, encode_box, gaussian_focal_loss,
                            l1_encoded, run_decoder, self_attention,
                            _corner_points_batch, _decode_state,
                            _initial_state, _position_aware_mix_batch)
from bevlab.geometry import BevGrid, world_to_cell
from bevlab.scene_sim import Box
from bevlab.tensor import LinearMap, linear_apply
from bevlab.verify import bilinear_sample, gradcheck, zero_linear
from helpers import tracemalloc_peak

# unit cells make the hand cases read directly in meters
GRID = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))


def tiny_params(rng=None, C=2, n_p=4, n_layers=1, n_heads=1, n_classes=2,
                scale=0.0):
    def lm(out_d, in_d):
        if scale == 0.0 or rng is None:
            return zero_linear(out_d, in_d)
        return LinearMap(rng.normal(0, scale / np.sqrt(in_d), (out_d, in_d)),
                         rng.normal(0, 0.1, out_d))

    return DecoderParams(
        n_heads=n_heads, offset_gen=lm(2 * n_p, C), point_weight_gen=lm(n_p, C),
        deform_out_proj=lm(C, C), pos_embed_proj=lm(C, 4),
        channel_mix_gen=lm(C * C, C), spatial_mix_gen=lm(n_p * n_p, C),
        out_proj=lm(C, n_p * C),
        self_attn=tuple(AttentionParams(lm(C, C), lm(C, C), lm(C, C), lm(C, C))
                        for _ in range(n_layers)),
        cross_attn=AttentionParams(lm(C, C), lm(C, C), lm(C, C), lm(C, C)),
        ffn1=lm(2 * C, C), ffn2=lm(C, 2 * C),
        reg_head=lm(8, C), cls_head=lm(n_classes, C))


def ln(row):
    """Layer norm of one row with the decoder's 1e-5 epsilon, no affine."""
    mu = row.mean()
    var = ((row - mu) ** 2).mean()
    return (row - mu) / math.sqrt(var + 1e-5)


def corners(params, grid, center, l=0.0, w=0.0, yaw=0.0):
    """Sampling points and their offsets from the center, [N_p, 2] each, of
    one query with a zero feature and the given box (center in cells, l and
    w in meters)."""
    boxes = {"xc": np.array([center[0]]), "yc": np.array([center[1]]),
             "l": np.array([l]), "w": np.array([w]), "yaw": np.array([yaw])}
    pts = val(_corner_points_batch(np.zeros((1, params.channels)), boxes,
                                   params, grid))[0]
    return pts, pts - center


class TestCornerOffsets:
    def test_layer_zero_degenerate(self, rng):
        # l = w = yaw = 0: points are the center plus the raw offsets
        raw = rng.normal(size=8)
        params = dataclasses.replace(
            tiny_params(), offset_gen=LinearMap(np.zeros((8, 2)), raw))
        points, offsets = corners(params, GRID, (4.0, 6.0))
        assert np.allclose(offsets, raw.reshape(4, 2), atol=1e-15)
        assert np.allclose(points, raw.reshape(4, 2) + [4.0, 6.0], atol=1e-15)

    def test_first_corner_identity_rotation(self):
        params = tiny_params()
        _, offsets = corners(params, GRID, (0.0, 0.0), l=2.0, w=1.0)
        assert np.allclose(offsets[0], [1.0, 0.5])

    def test_first_corner_quarter_turn(self):
        params = tiny_params()
        _, offsets = corners(params, GRID, (0.0, 0.0), l=2.0, w=1.0,
                             yaw=math.pi / 2)
        assert np.allclose(offsets[0], [-0.5, 1.0], atol=1e-12)

    def test_corner_symmetry_all_sign_combinations(self):
        params = tiny_params()
        _, offsets = corners(params, GRID, (0.0, 0.0), l=3.0, w=1.5)
        expect = {(1.5, 0.75), (1.5, -0.75), (-1.5, 0.75), (-1.5, -0.75)}
        got = {tuple(np.round(o, 9)) for o in offsets}
        assert got == expect

    def test_metric_to_cell_conversion(self):
        # half-meter cells double the corner extent in cell units
        fine = BevGrid((-8.0, 8.0), (-8.0, 8.0), (-5.0, 3.0), (32, 32))
        params = tiny_params()
        _, offsets = corners(params, fine, (0.0, 0.0), l=2.0, w=1.0)
        assert np.allclose(offsets[0], [2.0, 1.0])

    def test_gradient_through_rotation(self, rng):
        params = tiny_params(rng, scale=0.4)
        feats = rng.normal(size=(2, 2))
        base = {"xc": np.array([3.0, 4.0]), "yc": np.array([5.0, 2.0]),
                "l": rng.uniform(1, 3, 2), "w": rng.uniform(0.5, 2, 2),
                "yaw": rng.uniform(-2, 2, 2)}
        # asymmetric weights keep the l/w derivative from cancelling over
        # the symmetric corner signs
        wts = rng.normal(size=(2, 4, 2))

        def loss(t):
            boxes = dict(base, l=t["l"], w=t["w"], yaw=t["yaw"])
            pts = _corner_points_batch(t["feats"], boxes, params, GRID)
            return ad.sum_(ad.mul(pts, wts))

        gradcheck(loss, {"feats": feats, "l": base["l"], "w": base["w"],
                         "yaw": base["yaw"]})


class TestCornerSample:
    def test_lattice_point_exact(self, rng):
        bev = rng.normal(size=(3, 8, 8))
        out = val(corner_sample(bev, np.array([[2.0, 5.0]])))
        assert np.array_equal(out[0], bev[:, 5, 2])

    def test_outside_grid_zero(self, rng):
        bev = rng.normal(size=(3, 8, 8))
        out = val(corner_sample(bev, np.array([[-3.0, 1.0], [9.0, 1.0]])))
        assert np.all(out == 0)

    def test_matches_scalar_relookup(self, rng):
        bev = rng.normal(size=(4, 10, 10))
        pts = rng.uniform(-1, 10, size=(6, 4, 2))
        out = val(corner_sample(bev, pts))
        for i in range(6):
            for j in range(4):
                ref, _ = bilinear_sample(bev, tuple(pts[i, j]))
                assert np.max(np.abs(out[i, j] - ref)) < 1e-15


class TestPositionAwareMix:
    def test_zero_out_proj_is_identity(self, rng):
        params = tiny_params(rng, scale=0.5)
        params = dataclasses.replace(params, out_proj=zero_linear(2, 8))
        q = rng.normal(size=2)
        g = rng.normal(size=(1, 4, 2))
        pts = rng.uniform(0, 30, size=(1, 4, 2))
        out = val(_position_aware_mix_batch(q[None], g, pts, params, GRID))
        assert np.array_equal(out[0], q)

    def test_hand_computed_identity_mixers(self, rng):
        # W_c = I, W_s = I, no position term: the mixing pipeline reduces to
        # two layer norms with relu, scripted here step by step
        C, n_p = 2, 4
        params = tiny_params()
        params = dataclasses.replace(
            params,
            channel_mix_gen=LinearMap(np.zeros((4, 2)), np.eye(2).ravel()),
            spatial_mix_gen=LinearMap(np.zeros((16, 2)), np.eye(4).ravel()),
            out_proj=LinearMap(np.eye(8)[:2], np.zeros(2)))
        g = np.array([[1.0, 3.0], [2.0, -1.0], [0.5, 0.5], [-2.0, 4.0]])
        q = np.array([0.3, -0.7])
        pts = np.zeros((4, 2))  # position embed projects to zero anyway

        out = val(_position_aware_mix_batch(q[None], g[None], pts[None],
                                            params, GRID))[0]

        G_c = np.maximum(np.stack([ln(r) for r in g]), 0.0)          # [4, 2]
        G_cs = np.maximum(np.stack([ln(r) for r in G_c.T]), 0.0)     # [2, 4]
        flat = G_cs.T.ravel()                                        # p*C + c
        expect = q + np.eye(8)[:2] @ flat
        assert np.allclose(out, expect, atol=1e-12)

    def test_point_permutation_permutes_rows(self, rng):
        # with identity spatial mixing, permuting the sampling points (and
        # their features) permutes the flattened output accordingly
        C, n_p = 2, 4
        params = tiny_params()
        params = dataclasses.replace(
            params,
            pos_embed_proj=LinearMap(rng.normal(size=(2, 4)), np.zeros(2)),
            channel_mix_gen=LinearMap(np.zeros((4, 2)), np.eye(2).ravel()),
            spatial_mix_gen=LinearMap(np.zeros((16, 2)), np.eye(4).ravel()),
            out_proj=LinearMap(rng.normal(size=(2, 8)), np.zeros(2)))
        g = rng.normal(size=(4, 2))
        pts = rng.uniform(0, 30, size=(4, 2))
        q = rng.normal(size=2)
        perm = np.array([2, 0, 3, 1])

        base = val(_position_aware_mix_batch(
            q[None], g[None], pts[None], params, GRID))[0] - q
        permuted = val(_position_aware_mix_batch(
            q[None], g[None, perm], pts[None, perm], params, GRID))[0] - q
        # out = W @ flat with flat blocks indexed by point: permuting the
        # points permutes the blocks, so the block-permuted weight recovers
        # the original output
        # flat block p of the permuted run holds original block perm[p]
        W = val(params.out_proj.weight).reshape(2, 4, 2)
        W_perm = W[:, perm, :].reshape(2, 8)
        probe = dataclasses.replace(params,
                                    out_proj=LinearMap(W_perm, np.zeros(2)))
        again = val(_position_aware_mix_batch(
            q[None], g[None, perm], pts[None, perm], probe, GRID))[0] - q
        assert np.allclose(again, base, atol=1e-12)
        assert not np.allclose(permuted, base)

    def test_position_term_distinguishes_locations(self, rng):
        params = tiny_params(rng, scale=0.5)
        q = rng.normal(size=2)
        g = rng.normal(size=(4, 2))
        a = val(_position_aware_mix_batch(
            q[None], g[None], np.full((1, 4, 2), 3.0), params, GRID))
        b = val(_position_aware_mix_batch(
            q[None], g[None], np.full((1, 4, 2), 17.0), params, GRID))
        assert not np.allclose(a, b)


class TestSelfAttention:
    def test_single_query_residual_form(self, rng):
        params = tiny_params(rng, C=2, n_heads=1, scale=0.5)
        attn = params.self_attn[0]
        f = rng.normal(size=(1, 2))
        out = val(self_attention(f, attn, 1))
        # one query attends only to itself: out = f + W_o(W_v f)
        v = val(attn.w_v.weight) @ f[0] + val(attn.w_v.bias)
        expect = f[0] + val(attn.w_o.weight) @ v + val(attn.w_o.bias)
        assert np.allclose(out[0], expect, atol=1e-12)

    def test_zero_value_and_out_projections_identity(self, rng):
        params = tiny_params(rng, C=4, n_heads=2, scale=0.5)
        attn = dataclasses.replace(params.self_attn[0],
                                   w_v=zero_linear(4, 4),
                                   w_o=zero_linear(4, 4))
        f = rng.normal(size=(3, 4))
        assert np.array_equal(val(self_attention(f, attn, 2)), f)

    def test_two_query_hand_computation(self):
        # 1 head, C=1: scalar attention is a softmax-weighted average
        wq = LinearMap(np.array([[1.0]]), np.zeros(1))
        wk = LinearMap(np.array([[1.0]]), np.zeros(1))
        wv = LinearMap(np.array([[2.0]]), np.zeros(1))
        wo = LinearMap(np.array([[1.0]]), np.zeros(1))
        attn = AttentionParams(wq, wk, wv, wo)
        f = np.array([[1.0], [2.0]])
        out = val(self_attention(f, attn, 1))
        for i in range(2):
            scores = np.array([f[i, 0] * f[0, 0], f[i, 0] * f[1, 0]])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            expect = f[i, 0] + w @ (2.0 * f[:, 0])
            assert np.allclose(out[i, 0], expect, atol=1e-12)


def decode(params, ref):
    """Box (x_c, y_c cells, z, l, w, h m, yaw rad) that the regression head
    gives one zero-feature query at reference point `ref`."""
    enc = linear_apply(params.reg_head, np.zeros((1, params.channels)))
    state = _decode_state(enc, np.array([ref]), GRID)
    return tuple(float(state[k][0])
                 for k in ("xc", "yc", "z", "l", "w", "h", "yaw"))


class TestDecodeBox:
    def test_zero_head_defaults(self):
        params = tiny_params()
        box = decode(params, (10.0, 10.0))
        assert box[:2] == (10.0, 10.0)
        assert box[3:6] == (1.0, 1.0, 1.0)  # exp(0)
        assert box[6] == 0.0                # zero-norm heading

    def test_center_delta(self):
        params = dataclasses.replace(
            tiny_params(),
            reg_head=LinearMap(np.zeros((8, 2)),
                               np.array([1.5, -2.0, 0, 0, 0, 0, 0, 1.0])))
        box = decode(params, (10.0, 10.0))
        assert box[0] == 11.5 and box[1] == 8.0

    def test_round_trip_via_targets(self, rng):
        for _ in range(20):
            ref = tuple(rng.uniform(2, 28, size=2))
            center = (ref[0] + rng.normal(), ref[1] + rng.normal())
            z = rng.normal()
            dims = tuple(rng.uniform(0.5, 6, size=3))
            yaw = rng.uniform(-np.pi, np.pi)
            target = encode_box(center, z, dims, yaw, ref)
            params = dataclasses.replace(
                tiny_params(), reg_head=LinearMap(np.zeros((8, 2)), target))
            box = decode(params, ref)
            assert np.allclose(box[:2], center, atol=1e-9)
            assert abs(box[2] - z) < 1e-9
            assert np.allclose(box[3:6], dims, atol=1e-9)
            assert abs(math.remainder(box[6] - yaw, 2 * math.pi)) < 1e-9

    def test_encode_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            encode_box((0, 0), 0.0, (0.0, 1.0, 1.0), 0.0, (0, 0))

    def test_sides_bounded_by_the_grid_diagonal(self):
        # 32 x 32 x 8 m: a log-dim of 1e6 would overflow np.exp; 40 m sides
        # stay as encoded
        diagonal = math.sqrt(32.0 ** 2 + 32.0 ** 2 + 8.0 ** 2)
        enc = np.zeros((2, 8))
        enc[0, 3:6] = 1e6
        enc[1, 3:6] = math.log(40.0)
        state = _decode_state(enc, np.zeros((2, 2)), GRID)
        for key in ("l", "w", "h"):
            assert np.allclose(state[key], [diagonal, 40.0], rtol=1e-12)


class TestDecoderLayer:
    def test_layer_zero_ignores_head_bias_for_geometry(self, rng):
        # the regression head moves boxes only for layers after the first:
        # layer-0 sampling geometry must use the degenerate boxes
        params = tiny_params(rng, scale=0.4, n_layers=1)
        state = _initial_state(np.array([[8.0, 8.0]]))
        assert state["l"][0] == 0.0 and state["yaw"][0] == 0.0
        feats = rng.normal(size=(1, 2))
        pts = _corner_points_batch(feats, state, params, GRID)
        raw = val(ad.reshape(
            ad.matmul(feats, val(params.offset_gen.weight).T)
            + val(params.offset_gen.bias), (1, 4, 2)))
        assert np.allclose(val(pts) - [8.0, 8.0], raw, atol=1e-12)

    def test_deformable_modes_run_and_differ(self, rng):
        params = tiny_params(rng, scale=0.4, n_layers=2)
        feats = rng.normal(size=(3, 2))
        ref = rng.uniform(4, 28, size=(3, 2))
        bev = rng.normal(size=(2, 32, 32))
        outs = {}
        for mode in ("geometry_aware", "deformable_center",
                     "deformable_scaled_rotated", "standard"):
            layers = run_decoder(feats, ref, bev, params, GRID, mode=mode)
            outs[mode] = val(layers[-1]["enc"])
        assert not np.allclose(outs["geometry_aware"], outs["deformable_center"])
        assert not np.allclose(outs["deformable_center"], outs["standard"])

    def test_traced_mixing_holds_no_kernel_or_relu_output(self, rng):
        # what a traced geometry-aware layer (Nq 64, C 16, N_p 8) holds
        # when its forward returns: 0.90 MB when the mixing's products
        # hold the generated kernels w_c and w_s, the relu output G_c and
        # out_proj's flat input, 0.61 MB when their vjps rebuild them (the
        # bound leaves 8%)
        nq, C = 64, 16
        params, _ = ad.lift_tree(tiny_params(rng, C=C, n_p=8, n_heads=2,
                                             scale=0.4))
        feats = ad.Var(rng.normal(size=(nq, C)))
        bev = ad.Var(rng.normal(size=(C, 32, 32)))
        ref = rng.uniform(4, 28, size=(nq, 2))
        boxes = dict(_initial_state(ref), l=rng.uniform(1, 3, nq),
                     w=rng.uniform(0.5, 1.5, nq), yaw=rng.uniform(-2, 2, nq))
        with tracemalloc_peak() as mem:
            out = decoder_layer(feats, ref, boxes, bev, params, 0, GRID)
        assert isinstance(out[0], ad.Var)
        assert mem.retained < 0.66e6

    def test_standard_projects_the_cells_once(self, rng, monkeypatch):
        # the layers share `cross_attn`, so one forward projects the BEV
        # cells' keys and values once, not once per layer (into attention's
        # operands), and each layer its queries and its output
        params = tiny_params(rng, scale=0.4, n_layers=6)
        applied = []
        keys = ad.attention_keys

        def counting(m, x):
            applied.append(m.weight)
            return linear_apply(m, x)

        def counting_keys(x, w_k, b_k, w_v, b_v, n_heads):
            applied.extend((w_k, w_v))
            return keys(x, w_k, b_k, w_v, b_v, n_heads)

        monkeypatch.setattr(decoder, "linear_apply", counting)
        monkeypatch.setattr(ad, "attention_keys", counting_keys)
        run_decoder(rng.normal(size=(3, 2)), rng.uniform(4, 28, size=(3, 2)),
                    rng.normal(size=(2, 32, 32)), params, GRID,
                    mode="standard")
        cross = params.cross_attn
        assert [sum(m is w.weight for m in applied)
                for w in (cross.w_q, cross.w_k, cross.w_v, cross.w_o)] == [
                    6, 1, 1, 6]

    def test_invalid_mode_rejected(self, rng):
        params = tiny_params()
        with pytest.raises(ValueError):
            decoder_layer(np.zeros((1, 2)), np.zeros((1, 2)),
                          _initial_state(np.zeros((1, 2))),
                          np.zeros((2, 4, 4)), params, 0, GRID, mode="bogus")

    @pytest.mark.parametrize("layer_idx", [-1, 1])
    def test_layer_idx_out_of_range_rejected(self, layer_idx):
        # -1 would index the last layer's self-attention without a word
        params = tiny_params(n_layers=1)
        with pytest.raises(ValueError, match="layer_idx"):
            decoder_layer(np.zeros((1, 2)), np.zeros((1, 2)),
                          _initial_state(np.zeros((1, 2))),
                          np.zeros((2, 4, 4)), params, layer_idx, GRID)


SAMPLING_MODES = ("geometry_aware", "deformable_center",
                  "deformable_scaled_rotated")


def sized_layer_inputs(rng, nq, C):
    """Features, reference points, a 32 x 32 map and boxes of nonzero size
    and heading for one layer over nq queries of C channels."""
    ref = rng.uniform(4, 28, size=(nq, 2))
    boxes = dict(_initial_state(ref), l=rng.uniform(1, 3, nq),
                 w=rng.uniform(0.5, 1.5, nq), yaw=rng.uniform(-2, 2, nq))
    return (rng.normal(size=(nq, C)), ref, boxes,
            rng.normal(size=(C, 32, 32)))


class TestQueryBlocks:
    @pytest.mark.parametrize("nq, cap, sizes", [
        (900, 585, [450, 450]), (300, 585, [300]), (7, 3, [2, 2, 3]),
        (1, 1, [1]), (3, 1, [3]), (5, 1, [2, 3]), (10, 4, [3, 3, 4])])
    def test_equal_blocks_of_at_least_two(self, monkeypatch, nq, cap, sizes):
        # DEFAULTS' 900 queries are two blocks of 450 and a fit's 300 one;
        # a budget below two queries still gives blocks of two or more
        params = tiny_params(C=32, n_p=16)
        assert decoder._query_bytes(params) == 14 * 1024
        monkeypatch.setattr(ad, "_BLOCK_BYTES",
                            decoder._query_bytes(params) * cap + 1)
        blocks = decoder._query_blocks(nq, params)
        assert [b.stop - b.start for b in blocks] == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == nq
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    def test_every_plan_keeps_the_bits(self, rng, mode):
        # 7 queries in 1, 2 and 3 blocks (7; 3 + 4; 2 + 2 + 3). Each
        # budget keeps the 2-head self-attention's 784 bytes of scores
        # within it, so only the per-query branch changes its plan
        nq, C = 7, 8
        params = tiny_params(rng, C=C, n_heads=2, scale=0.4)
        feats, ref, boxes, bev = sized_layer_inputs(rng, nq, C)
        outs = []
        for cap, n_blocks in ((7, 1), (4, 2), (3, 3)):
            with verify.block_bytes(decoder._query_bytes(params) * cap):
                assert len(decoder._query_blocks(nq, params)) == n_blocks
                outs.append(decoder_layer(feats, ref, boxes, bev, params, 0,
                                          GRID, mode=mode)[:3])
        for out in outs[1:]:
            for got, want in zip(out, outs[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    def test_block_gradients_sum_to_the_whole(self, rng, mode):
        # past one block the map's and the weights' gradients are sums of
        # block gradients, which may differ from the whole in last bits.
        # The key bias is left out: it shifts every score of a row alike,
        # so its exact gradient is 0 and both plans give rounding noise
        nq, C = 7, 8
        params = tiny_params(rng, C=C, n_heads=2, scale=0.4)
        feats, ref, boxes, bev = sized_layer_inputs(rng, nq, C)
        grads = []
        for cap in (7, 3):
            tree, leaves = ad.lift_tree(params)
            f, b = ad.Var(feats), ad.Var(bev)
            with verify.block_bytes(decoder._query_bytes(params) * cap):
                verify._readout_loss(decoder_layer(
                    f, ref, boxes, b, tree, 0, GRID, mode=mode)).backward()
            grads.append([f.grad, b.grad] + [
                leaf.grad for leaf in leaves
                if leaf is not tree.self_attn[0].w_k.bias])
        for got, want in zip(*grads):
            if want is None:
                assert got is None
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(
                    np.abs(want))

    def test_untraced_memory_is_bounded_by_a_block(self, rng, monkeypatch):
        # 600 queries in 3 blocks of 200 at the default C = 32, N_p = 16:
        # the whole [600, 1024] channel kernels take 4.9 MB, twice over
        # (the product, then the bias added). A block's arrays are made
        # twice over too, so the peak is about two blocks' kernels and
        # samples, plus the features and points of every query
        nq, C, n_p = 600, 32, 16
        params = tiny_params(rng, C=C, n_p=n_p, n_heads=2, scale=0.4)
        feats, ref, boxes, bev = sized_layer_inputs(rng, nq, C)
        block = decoder._query_bytes(params) * nq // 3
        monkeypatch.setattr(ad, "_BLOCK_BYTES", block)
        assert len(decoder._query_blocks(nq, params)) == 3
        whole = 8 * nq * (2 * C + 2 * n_p)
        with tracemalloc_peak() as mem:
            decoder_layer(feats, ref, boxes, bev, params, 0, GRID)
        assert mem.peak < 2 * block + whole < 2 * 8 * nq * C * C


class TestLosses:
    def test_gaussian_focal_fixtures(self):
        pred = np.zeros((1, 2, 2)) + 1e-15
        pred[0, 0, 0] = 1.0
        tgt = np.zeros((1, 2, 2))
        tgt[0, 0, 0] = 1.0
        assert float(val(gaussian_focal_loss(pred, tgt))) < 1e-9

        pred2 = np.full((1, 1, 1), 0.5)
        tgt2 = np.ones((1, 1, 1))
        out = float(val(gaussian_focal_loss(pred2, tgt2)))
        assert out == pytest.approx(-0.25 * math.log(0.5), abs=1e-9)

    def test_gaussian_focal_zero_negatives_add_nothing(self):
        pred = np.zeros((1, 4, 4)) + 1e-15
        pred[0, 1, 1] = 0.5
        tgt = np.zeros((1, 4, 4))
        tgt[0, 1, 1] = 1.0
        small = float(val(gaussian_focal_loss(pred, tgt)))
        pred_big = np.zeros((1, 8, 8)) + 1e-15
        pred_big[0, 1, 1] = 0.5
        tgt_big = np.zeros((1, 8, 8))
        tgt_big[0, 1, 1] = 1.0
        big = float(val(gaussian_focal_loss(pred_big, tgt_big)))
        assert big == pytest.approx(small, abs=1e-12)

    def test_l1_fixtures(self, rng):
        a = rng.normal(size=8)
        assert float(val(l1_encoded(a, a))) == 0.0
        b = a.copy()
        b[3] += 0.64
        assert float(val(l1_encoded(a, b))) == pytest.approx(0.64 / 8, abs=1e-12)
        x, y = rng.normal(size=(2, 8))
        naive = sum(abs(float(x[i]) - float(y[i])) for i in range(8)) / 8
        assert float(val(l1_encoded(x, y))) == pytest.approx(naive, abs=1e-15)

    def test_l1_box_loss_zero_on_exact_prediction(self):
        box = Box(0, (4.0, -3.0, 1.0), (4.0, 2.0, 1.5), 0.7)
        u, v = world_to_cell(GRID, 4.0, -3.0)
        ref = (u - 1.0, v + 2.0)
        tgt = encode_box((u, v), 1.0, (4.0, 2.0, 1.5), 0.7, ref)
        # the regression head predicts the encoded box exactly
        params = dataclasses.replace(
            tiny_params(), reg_head=LinearMap(np.zeros((8, 2)), tgt))
        pred = linear_apply(params.reg_head, np.zeros((1, 2)))
        target = encode_box((u, v), box.center[2], box.dims, box.yaw, ref)
        assert float(val(l1_encoded(pred, target[None]))) < 1e-12
