"""Heatmap targets, prediction, keypoint extraction, and query construction."""

import dataclasses

import numpy as np
import pytest

from bevlab.autodiff import val
from bevlab.decoder import _initial_state
from bevlab.geometry import BevGrid
from bevlab.pipeline import PipelineConfig, _query_features, init_params
from bevlab.query_select import (DEFAULT_GROUPS, GroupSpec, gaussian_target,
                                 predict_heatmaps, topk_keypoints)
from bevlab.scene_sim import Box
from bevlab.tensor import LinearMap
from bevlab.verify import cell_to_world, zero_linear

GRID = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))


class TestGroupSpec:
    def test_defaults_partition_ten_classes(self):
        spec = GroupSpec()
        assert spec.n_groups == 6
        assert spec.n_classes == 10
        assert spec.n_queries == 900

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            GroupSpec(((0,), (0, 1)), 5)
        with pytest.raises(ValueError):
            GroupSpec(((0,), (2,)), 5)
        with pytest.raises(ValueError):
            GroupSpec(((0,),), 0)


class TestGaussianTarget:
    def test_peak_exactly_one_at_center_cell(self):
        X, Y = cell_to_world(GRID, 10, 20)
        box = Box(0, (X, Y, 1.0), (4.0, 2.0, 1.5), 0.3)
        t = gaussian_target([box], GRID, 3)
        assert t[0, 20, 10] == 1.0
        assert t[1].max() == 0.0 and t[2].max() == 0.0

    def test_value_at_distance(self):
        X, Y = cell_to_world(GRID, 16, 16)
        box = Box(1, (X, Y, 0.0), (4.0, 2.0, 1.5), 0.0)
        t = gaussian_target([box], GRID, 2)
        sigma = max(1.0, 2.0 / (3.0 * GRID.cell_size_x))
        for r in (1, 2, 5):
            assert t[1, 16, 16 + r] == pytest.approx(
                np.exp(-r ** 2 / (2 * sigma ** 2)), abs=1e-12)

    def test_outside_box_skipped(self):
        box = Box(0, (100.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0)
        assert gaussian_target([box], GRID, 1).max() == 0.0

    def test_values_in_unit_interval(self, rng):
        boxes = [Box(0, cell_to_world(GRID, int(u), int(v)) + (0.0,),
                     (rng.uniform(1, 6), rng.uniform(1, 3), 1.5),
                     rng.uniform(-3, 3))
                 for u, v in rng.integers(0, 32, size=(5, 2))]
        t = gaussian_target(boxes, GRID, 1)
        assert t.min() >= 0.0 and t.max() <= 1.0


class TestPredictHeatmaps:
    def test_zero_model_gives_half(self):
        head = zero_linear(4, 3)
        hm = val(predict_heatmaps(head, np.zeros((3, 5, 5))))
        assert np.all(hm == 0.5)

    def test_monotone_in_positive_weight_feature(self):
        head = LinearMap(np.array([[1.0, 0.0]]), np.zeros(1))
        lo = val(predict_heatmaps(head, np.zeros((2, 2, 2))))
        hi_map = np.zeros((2, 2, 2))
        hi_map[0] = 1.0
        hi = val(predict_heatmaps(head, hi_map))
        assert np.all(hi > lo)

    def test_hand_case(self):
        head = LinearMap(np.array([[2.0]]), np.array([-1.0]))
        fm = np.array([[[0.0, 1.0], [2.0, -1.0]]])
        hm = val(predict_heatmaps(head, fm))
        expect = 1.0 / (1.0 + np.exp(-(2.0 * fm[0] - 1.0)))
        assert np.allclose(hm[0], expect, atol=1e-12)

    def test_open_interval(self, rng):
        head = LinearMap(rng.normal(size=(2, 3)), rng.normal(size=2))
        hm = val(predict_heatmaps(head, rng.normal(size=(3, 6, 6)) * 5))
        assert hm.min() > 0.0 and hm.max() < 1.0


def scores_at(gmap, pos):
    """The values of the [H, W] map gmap at the (u, v) positions pos."""
    return gmap[pos[:, 1].astype(int), pos[:, 0].astype(int)]


class TestTopk:
    def test_single_bright_cell(self):
        hm = np.zeros((1, 8, 8))
        hm[0, 3, 5] = 1.0
        [pos] = topk_keypoints(hm, GroupSpec(((0,),), 1))
        assert pos.tolist() == [[5.0, 3.0]]

    def test_uniform_ties_row_major(self):
        hm = np.full((1, 4, 4), 0.7)
        [pos] = topk_keypoints(hm, GroupSpec(((0,),), 3))
        assert [tuple(p) for p in pos] == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]

    def test_scores_non_increasing(self, rng):
        hm = rng.uniform(size=(1, 12, 12))
        [pos] = topk_keypoints(hm, GroupSpec(((0,),), 10))
        assert np.all(np.diff(scores_at(hm[0], pos)) <= 0)

    def test_suppression_fill_when_few_local_maxima(self):
        # strictly increasing ramp: only the last cell is a local max
        hm = np.arange(16.0).reshape(1, 4, 4) / 16.0
        [pos] = topk_keypoints(hm, GroupSpec(((0,),), 4))
        assert tuple(pos[0]) == (3.0, 3.0)
        assert np.all(np.diff(scores_at(hm[0], pos)) <= 0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            topk_keypoints(np.zeros((1, 2, 2)), GroupSpec(((0,),), 5))

    def test_group_collapse_uses_max(self):
        hm = np.zeros((2, 4, 4))
        hm[0, 1, 1] = 0.3
        hm[1, 2, 2] = 0.9
        [pos] = topk_keypoints(hm, GroupSpec(((0, 1),), 1))
        assert pos.tolist() == [[2.0, 2.0]]


def mixed_queries(spec, table, heatmaps):
    """Features, reference points and group ids of `mixed_groupwise` queries
    with the given group embedding table [n_groups, C]."""
    _, H, W = heatmaps.shape
    grid = BevGrid((0.0, float(W)), (0.0, float(H)), (-5.0, 3.0), (H, W))
    config = PipelineConfig(grid=grid, channels=table.shape[1], n_heads=1,
                            groups=spec, query_init="mixed_groupwise")
    params = dataclasses.replace(init_params(config, seed=0),
                                 group_embeds=table)
    feats, ref, gids = _query_features(config, params, None, heatmaps)
    return val(feats), ref, gids


class TestInitQueries:
    def test_shared_embedding_bitwise(self, rng):
        table = rng.normal(size=(2, 4))
        # two cells per group channel survive the 3x3 suppression
        hm = np.zeros((2, 8, 8))
        hm[0, 1, 2], hm[0, 5, 6] = 0.9, 0.8
        hm[1, 2, 5], hm[1, 6, 1] = 0.7, 0.6
        feats, ref, _ = mixed_queries(GroupSpec(((0,), (1,)), 2), table, hm)
        assert len(feats) == 4
        assert np.array_equal(feats[0], feats[1])
        assert np.array_equal(feats[0], table[0])
        assert np.array_equal(feats[2], table[1])
        assert tuple(ref[0]) != tuple(ref[1])

    def test_default_total_query_count(self, rng):
        hm = rng.uniform(size=(10, 40, 40))
        feats, _, gids = mixed_queries(GroupSpec(), rng.normal(size=(6, 8)), hm)
        assert len(feats) == 900
        assert np.sum(gids == 3) == 150

    def test_box_initialized_on_ref_point(self):
        state = _initial_state(np.array([[3.0, 7.0]]))
        box = tuple(float(state[k][0])
                    for k in ("xc", "yc", "z", "l", "w", "h", "yaw"))
        assert box == (3.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_features_independent_of_heatmaps(self, rng):
        table = rng.normal(size=(1, 4))
        spec = GroupSpec(((0,),), 2)
        for _ in range(3):
            hm = rng.uniform(size=(1, 8, 8))
            feats, _, _ = mixed_queries(spec, table, hm)
            for f in feats:
                assert np.array_equal(f, table[0])
