"""Mutation gate: each named fault, applied in-process by monkeypatching,
must make the check that guards it fail (mutation analysis: DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 1978)."""

import dataclasses

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab import verify
from bevlab.geometry import BevGrid

_attention = ad.attention
_attention_blocks = ad._attention_blocks
_bilinear = ad._bilinear
_kernel_row_blocks = ad._kernel_row_blocks
_sample_pool = ad.sample_pool
_adaptive_sample = verify.adaptive_sample
_decoder_layer = verify.decoder_layer


def drop_each_heads_last_row_block(h, nq, nk):
    return [(hs, b) for hs, b in _attention_blocks(h, nq, nk) if b.stop < nq]


def shift_a_blocks_head_by_one(h, nq, nk):
    (hs, b), *rest = _attention_blocks(h, nq, nk)
    return [(slice(hs.start + 1, hs.stop + 1), b), *rest]


def pool_without_last_camera(levels, lanes, weights):
    return _sample_pool(levels[:-1], [row[:-1] for row in lanes], weights)


def gather_at_half_coordinates(vf, vx, vy, *flags):
    return _bilinear(vf, vx * 0.5, vy * 0.5, *flags)


def gather_with_negated_d_dx(vf, vx, vy, *flags):
    out, valid, back = _bilinear(vf, vx, vy, *flags)

    def negated(g):
        gmap, dx, dy = back(g)
        return gmap, None if dx is None else -dx, dy

    return out, valid, negated


def attention_vjp_of_minus_g(q, k, v):
    out = _attention(q, k, v)
    if isinstance(out, ad.Var):
        vjp = out._vjp
        out._vjp = lambda g: vjp(-g)
    return out


def pool_without_d_weights(levels, lanes, weights):
    return _sample_pool(levels, lanes, ad.val(weights))


def kernel_rows_without_last_block(n, c):
    return _kernel_row_blocks(n, c)[:-1]


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


def oracle_attention_blocked(rng):
    # each head in 3 or 4 blocks of rows, so that a plan without its last
    # block still passes the check's several-ragged-blocks precondition
    with verify.block_bytes(8 * 40 * 15):
        verify.check_attention_blocked(rng,
                                       shapes=((2, 40, 40), (2, 10, 160)))


def grad_attention(rng):
    verify.check_attention_grad(
        rng, BevGrid((-8.0, 8.0), (-8.0, 8.0), (-3.0, 3.0), (8, 8)))


# (module, attribute, fault put in its place, check that must fail, its
# failure message)
MUTANTS = {
    "attention-drop-last-row-block": (
        ad, "_attention_blocks", drop_each_heads_last_row_block,
        oracle_attention_blocked, "max deviation"),
    "attention-shift-block-head": (
        ad, "_attention_blocks", shift_a_blocks_head_by_one,
        grad_attention, "gradient rel err"),
    "attention-vjp-of-minus-g": (
        ad, "attention", attention_vjp_of_minus_g,
        grad_attention, "gradient rel err"),
    "vt-pool-drops-last-camera": (
        ad, "sample_pool", pool_without_last_camera,
        verify.check_vt_equivalence, "max deviation"),
    "vt-gather-at-wrong-stride": (
        ad, "_bilinear", gather_at_half_coordinates,
        verify.check_vt_equivalence, "max deviation"),
    "vt-gather-vjp-negates-d-dx": (
        ad, "_bilinear", gather_with_negated_d_dx,
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "vt-pool-vjp-without-d-weights": (
        ad, "sample_pool", pool_without_d_weights,
        verify.check_adaptive_sampling_grad, "gradient rel err"),
    "dynamic-filter-vjp-skips-last-kernel-rows": (
        ad, "_kernel_row_blocks", kernel_rows_without_last_block,
        verify.check_adaptive_projection_grad, "gradient rel err"),
    "vt-equivalence-nan-cell": (
        verify, "adaptive_sample", sample_with_a_nan_cell,
        verify.check_vt_equivalence, "max deviation nan"),
    "vt-edge-lanes-nan-cell": (
        verify, "adaptive_sample", sample_with_a_nan_cell,
        verify.check_vt_edge_lanes, "max deviation nan"),
    "decoder-layer-nan-logit": (
        verify, "decoder_layer", layer_with_a_nan_logit,
        verify.check_decoder_layer, "max deviation nan"),
    "decoder-no-relu": (
        ad, "relu", lambda a: a, verify.check_decoder_layer, "max deviation"),
    "layer-norm-eps-1e-4": (
        ad, "LAYER_NORM_EPS", 1e-4, verify.check_decoder_layer,
        "max deviation"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_check_catches_mutant(monkeypatch, name):
    module, target, fault, check, message = MUTANTS[name]
    monkeypatch.setattr(module, target, fault)
    # inputs no other test draws: a fault that leaves part of an output
    # unwritten must not find a correct result left in reused memory
    with pytest.raises(AssertionError, match=message):
        check(np.random.default_rng(1978))
