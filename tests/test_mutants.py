"""Mutation gate: each named fault, applied in-process by monkeypatching,
must make the check that guards it fail (mutation analysis: DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 1978)."""

import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab import decoder, verify, view_transform

_attention_blocks = ad._attention_blocks
_bilinear = ad._bilinear
_query_blocks = decoder._query_blocks
_sample_pool = ad.sample_pool
_adaptive_sample = verify.adaptive_sample
_decoder_layer = verify.decoder_layer


def mutated(fn, old, new):
    """The function `fn` compiled again from its source with the one
    occurrence of `old` replaced by `new`, in `fn`'s module globals."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{old!r} is not in {fn.__name__} once"
    scope = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, scope)
    return scope[fn.__name__]


def drop_the_last_row_block(h, nq, nk):
    dense, row_blocks, key_tiles = _attention_blocks(h, nq, nk)
    return dense, row_blocks[:-1], key_tiles


def drop_the_last_key_tile(h, nq, nk):
    dense, row_blocks, key_tiles = _attention_blocks(h, nq, nk)
    return dense, row_blocks, key_tiles[:-1]


def pool_without_last_camera(levels, lanes, weights):
    return _sample_pool(levels[:-1], [row[:-1] for row in lanes], weights)


def gather_at_half_coordinates(rows, H, W, vx, vy, *flags):
    return _bilinear(rows, H, W, vx * 0.5, vy * 0.5, *flags)


def gather_with_negated_d_dx(rows, H, W, vx, vy, *flags):
    out, valid, back = _bilinear(rows, H, W, vx, vy, *flags)

    def negated(g):
        gmap, dx, dy = back(g)
        return gmap, None if dx is None else -dx, dy

    return out, valid, negated


def vjp_of_minus_g(op):
    """`op` with its vjp taking the negated output gradient."""
    def negated(*args):
        out = op(*args)
        if isinstance(out, ad.Var):
            vjp = out.node.vjp
            out.node.vjp = lambda g: vjp(-g)
        return out

    return negated


def pool_without_d_weights(levels, lanes, weights):
    return _sample_pool(levels, lanes, ad.val(weights))


def query_blocks_without_the_last(nq, params):
    return _query_blocks(nq, params)[:-1]


def with_nan_lane(a):
    """A copy of the array `a` with NaN in its first lane."""
    a = np.array(ad.val(a), dtype=float)
    a.flat[0] = np.nan
    return a


def sample_with_a_nan_cell(*args, **kwargs):
    out = _adaptive_sample(*args, **kwargs)
    return dataclasses.replace(out, bev=with_nan_lane(out.bev))


def layer_with_a_nan_logit(*args, **kwargs):
    feats, enc, cls, boxes = _decoder_layer(*args, **kwargs)
    return feats, enc, with_nan_lane(cls), boxes


# (module, attribute, fault put in its place, check that must fail, its
# failure message, or the (exception, message) it raises when that is not
# an AssertionError)
MUTANTS = {
    "attention-drop-last-row-block": (
        ad, "_attention_blocks", drop_the_last_row_block,
        verify.check_attention_blocked, "max deviation"),
    "attention-drop-last-key-tile": (
        ad, "_attention_blocks", drop_the_last_key_tile,
        verify.check_attention_blocked, "max deviation"),
    "attention-bias-in-first-block": (
        ad, "attention", mutated(
            ad.attention, "out[hs, b] = p[..., :dv] / row_sum[hs, b]",
            "out[hs, b] = p[..., :dv] / row_sum[hs, b] "
            "+ 1e-9 * (hs == heads[0] and b == row_blocks[0])"),
        verify.check_attention_blocked, "max deviation"),
    "attention-never-exact-row-max": (
        ad, "attention", mutated(
            ad.attention, "if not shift[hs, b].max() <= _SHIFT_LIMIT:",
            "if False:"),
        verify.check_attention_blocked, "max deviation nan"),
    # `attention_keys` builds the operands that every attention call reads
    # (zeroing the ones row of [kᵀ ; 1] instead is an equivalent mutant:
    # the scores lose their shift, and softmax does not change under one)
    "attention-keys-v-ones-column-of-twos": (
        ad, "attention_keys", mutated(
            ad.attention_keys,
            "v = np.ones((n_heads, n, dv + 1), dtype=dtype)",
            "v = np.full((n_heads, n, dv + 1), 2.0, dtype=dtype)"),
        verify.check_attention_blocked, "max deviation"),
    "attention-keys-skip-last-row-block": (
        ad, "attention_keys", mutated(
            ad.attention_keys, "for r in _gemm_row_blocks(n, step):",
            "for r in _gemm_row_blocks(n, step)[:-1]:"),
        verify.check_attention_blocked, "max deviation"),
    "attention-vjp-of-minus-g": (
        ad, "attention", vjp_of_minus_g(ad.attention),
        verify.check_attention_grad, "gradient rel err"),
    "attention-vjp-without-its-d-term": (
        ad, "attention", mutated(
            ad.attention,
            "ds -= (ds * p).sum(axis=-1, keepdims=True) if dense else d",
            "ds -= (ds * p).sum(axis=-1, keepdims=True) if dense else 0.0"),
        verify.check_attention_grad, "gradient rel err"),
    "vt-pool-drops-last-camera": (
        ad, "sample_pool", pool_without_last_camera,
        verify.check_vt_equivalence, "max deviation"),
    "vt-projects-with-previous-cameras-planes": (
        view_transform, "_vt_engine", mutated(
            view_transform._vt_engine, "planes = camera_planes(cam, X, Y)",
            "planes = camera_planes(cams[k - 1], X, Y)"),
        verify.check_vt_equivalence, "max deviation"),
    "vt-gather-at-wrong-stride": (
        ad, "_bilinear", gather_at_half_coordinates,
        verify.check_vt_equivalence, "max deviation"),
    "vt-gather-right-corner-is-left": (
        ad, "_bilinear", mutated(ad._bilinear, "sx = 1 if W > 1 else 0",
                                 "sx = 0"),
        verify.check_vt_equivalence, "max deviation"),
    "vt-gather-vjp-negates-d-dx": (
        ad, "_bilinear", gather_with_negated_d_dx,
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "vt-pool-vjp-without-d-weights": (
        ad, "sample_pool", pool_without_d_weights,
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "vt-pool-later-term-overwrites-first": (
        ad, "sample_pool", mutated(
            ad.sample_pool, "feat_sum = out if j == i == 0 else scratch",
            "feat_sum = out"),
        verify.check_vt_equivalence, "max deviation"),
    "gather-vjp-scatters-at-wrong-channel": (
        ad, "_bilinear", mutated(ad._bilinear,
                                 "r[:, None] * C + chans",
                                 "r[:, None] * C + chans[::-1]"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    "dynamic-filter-vjp-skips-last-kernel-rows": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter,
                                      "for i in range(c):",
                                      "for i in range(c - 1):"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "dynamic-filter-vjp-skips-last-dx-block": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter,
                                      "for r in dx_blocks:",
                                      "for r in dx_blocks[:-1]:"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "dynamic-filter-vjp-untransposed-kernel-for-d-x": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter,
                                      "kernels(r).swapaxes(-1, -2)",
                                      "kernels(r)"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "dynamic-filter-drops-the-bias-row": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter, "wb[:, d] = vb",
                                      "wb[:, d] = 0.0"),
        verify.check_adaptive_project_blocked, "max deviation"),
    "dynamic-filter-vjp-negates-d-w": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter,
                                      "dw[cols] = dkb.T @ vz",
                                      "dw[cols] = -(dkb.T @ vz)"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "dynamic-filter-vjp-drops-d-b": (
        ad, "dynamic_filter", mutated(ad.dynamic_filter,
                                      "db[cols] = dkb.sum(axis=0)",
                                      "db[cols] = 0.0"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "softmax-vjp-drops-the-dot-term": (
        ad, "softmax", mutated(ad.softmax, "y * (g - dot)", "y * g"),
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "softmax-vjp-of-minus-g": (
        ad, "softmax", vjp_of_minus_g(ad.softmax),
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "vt-equivalence-nan-cell": (
        verify, "adaptive_sample", sample_with_a_nan_cell,
        verify.check_vt_equivalence, "max deviation nan"),
    "decoder-layer-nan-logit": (
        verify, "decoder_layer", layer_with_a_nan_logit,
        verify.check_decoder_layer, "max deviation nan"),
    "decoder-no-relu": (
        ad, "relu", lambda a: a, verify.check_decoder_layer, "max deviation"),
    "getitem-vjp-drops-repeated-indices": (
        ad, "getitem", mutated(ad.getitem, "np.add.at(ga, idx, g)",
                               "ga[idx] = g"),
        verify.check_group_query_grad, "gradient rel err"),
    "layer-norm-vjp-flips-the-y-term": (
        ad, "layer_norm", mutated(ad.layer_norm, "g - gm - y * gy",
                                  "g - gm + y * gy"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    "sub-vjp-b-side-takes-g": (
        ad, "sub", mutated(ad.sub, "lambda g: -g", "lambda g: g"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    "div-vjp-b-side-sign-flipped": (
        ad, "div", mutated(ad.div, "-g * va / (vb * vb)",
                           "g * va / (vb * vb)"),
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "tanh-vjp-one-plus-y-squared": (
        ad, "tanh", mutated(ad.tanh, "1.0 - y * y", "1.0 + y * y"),
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "cos-vjp-sign-flipped": (
        ad, "cos", mutated(ad.cos, "-g * np.sin(va)", "g * np.sin(va)"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    # the [Nq, C] gradient does not broadcast back over the N_p points
    "sum-axis-vjp-drops-expand-dims": (
        ad, "sum_", mutated(ad.sum_, "np.expand_dims(gg, axis)", "gg"),
        verify.check_decoder_layer_grad, (ValueError, "broadcast")),
    # deformable_center's y offsets lose their gradient
    "deformable-center-detaches-y-offsets": (
        decoder, "_corner_points_batch", mutated(
            decoder._corner_points_batch, "dx, dy = px, py",
            "dx, dy = px, val(py)"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    # the mixing's vjps rebuild the operands they read; each rebuilt wrong
    "mixing-rebuilds-channel-kernels-without-bias": (
        decoder, "_position_aware_mix_batch", mutated(
            decoder._position_aware_mix_batch,
            "rebuild_b=kernels(params.channel_mix_gen, c_shape)",
            "rebuild_b=kernels(LinearMap(params.channel_mix_gen.weight, "
            "np.zeros(C * C)), c_shape)"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    "mixing-rebuilds-g-c-without-relu": (
        decoder, "_position_aware_mix_batch", mutated(
            decoder._position_aware_mix_batch, "rebuild_a=relu_t(y_c)",
            "rebuild_a=lambda: np.transpose(val(y_c), (0, 2, 1))"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    "mixing-rebuilds-out-proj-input-from-first-norm": (
        decoder, "_position_aware_mix_batch", mutated(
            decoder._position_aware_mix_batch, "g_cs = relu_t(y_s)",
            "g_cs = relu_t(y_c)"),
        verify.check_decoder_layer_grad, "gradient rel err"),
    # the oracle's layer samples and mixes its queries in three blocks of
    # two: a dropped block leaves the layer fewer rows than its references
    "query-blocks-drop-the-last": (
        decoder, "_query_blocks", query_blocks_without_the_last,
        verify.check_decoder_layer, (ValueError, "broadcast")),
    "query-block-samples-at-the-previous-blocks-points": (
        verify, "decoder_layer", mutated(
            decoder.decoder_layer, "ad.getitem(points, b)",
            "ad.getitem(points, blocks[blocks.index(b) - 1])"),
        verify.check_decoder_layer, "max deviation"),
    "layer-norm-eps-1e-4": (
        ad, "LAYER_NORM_EPS", 1e-4, verify.check_decoder_layer,
        "max deviation"),
    "layer-norm-without-its-mean": (
        ad, "layer_norm", mutated(ad.layer_norm, "xc = va - mu", "xc = va"),
        verify.check_layer_norm_props, "mean"),
    "softmax-divides-by-its-row-max": (
        ad, "softmax", mutated(ad.softmax, "e / e.sum(", "e / e.max("),
        verify.check_softmax_props, "sum"),
    "sigmoid-vjp-g-times-y": (
        ad, "sigmoid", mutated(ad.sigmoid, "g * y * (1.0 - y)", "g * y"),
        verify.check_heatmap_grad, "gradient rel err"),
    "log-vjp-g-times-va": (
        ad, "log", mutated(ad.log, "g / va", "g * va"),
        verify.check_loss_grads, "gradient rel err"),
    "gather-rows-transposed": (
        ad, "_cell_rows", mutated(ad._cell_rows, "(1, 2, 0)", "(2, 1, 0)"),
        verify.check_bilinear_gather, "max deviation"),
    # fusion runs in 20-row blocks there: a bias that reaches only the
    # first block of cells
    "fusion-bias-in-first-row-block-only": (
        ad, "concat_linear", mutated(ad.concat_linear, "out[r] += vb",
                                     "out[r] += vb * (r.start == 0)"),
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "dynamic-filter-skips-last-row-block": (
        ad, "dynamic_filter", mutated(
            ad.dynamic_filter, "for r in row_blocks:\n        out[r]",
            "for r in row_blocks[:-1]:\n        out[r]"),
        verify.check_adaptive_project_blocked, "max deviation"),
    "topk-takes-the-lowest-cells": (
        verify, "topk_keypoints", mutated(verify.topk_keypoints, "(-flat,",
                                          "(flat,"),
        verify.check_topk, "keypoints differ"),
    "gaussian-target-overwrites-same-class": (
        verify, "gaussian_target", mutated(
            verify.gaussian_target,
            "np.maximum(targets[box.class_id], gauss)", "gauss"),
        verify.check_gaussian_target, "max deviation"),
    "pooling-weights-sigmoid": (
        verify, "adaptive_sample", mutated(verify.adaptive_sample,
                                           "ad.softmax(", "ad.sigmoid("),
        verify.check_pooling_weights, "pooling weights do not sum to 1"),
    "corner-offsets-rotate-x-with-plus": (
        verify, "_corner_points_batch", mutated(
            decoder._corner_points_batch, "dx = ad.sub(", "dx = ad.add("),
        verify.check_rotation_equivariance, "max deviation"),
    "ffn-drops-its-residual": (
        verify, "decoder_layer", mutated(
            decoder.decoder_layer,
            "feats = ad.add(feats, linear_apply(params.ffn2, hidden))",
            "feats = linear_apply(params.ffn2, hidden)"),
        verify.check_residual_identity, "the features changed"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_check_catches_mutant(monkeypatch, name):
    module, target, fault, check, expected = MUTANTS[name]
    error, message = ((AssertionError, expected) if isinstance(expected, str)
                      else expected)
    monkeypatch.setattr(module, target, fault)
    # inputs no other test draws: a fault that leaves part of an output
    # unwritten must not find a correct result left in reused memory
    with pytest.raises(error, match=message):
        check(np.random.default_rng(1978))


def test_every_check_has_a_mutant():
    guarded = {entry[3] for entry in MUTANTS.values()}
    unguarded = [name for checks in verify.SUITES.values()
                 for name, check in checks if check not in guarded]
    assert not unguarded, unguarded
