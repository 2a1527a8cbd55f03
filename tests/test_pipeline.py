"""Full forward wiring, ablation mode matrix, and the fitting routine."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab.geometry import BevGrid
from bevlab.pipeline import (DetectionOutput, PipelineConfig, fit_generators,
                             forward, greedy_match, init_params,
                             vanilla_heights, write_detections)
from bevlab.query_select import GroupSpec
from bevlab.scene_sim import SceneConfig, make_scene
from bevlab.tensor import LinearMap

GRID = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (16, 16))
TINY_GROUPS = GroupSpec(((0,), (1, 2), (3, 4), (5,), (6, 7), (8, 9)), 2)


def tiny_config(**kw):
    args = dict(grid=GRID, channels=4, n_heights=2, strides=(4, 8),
                groups=TINY_GROUPS, n_points=4, n_layers=2, n_heads=2)
    args.update(kw)
    return PipelineConfig(**args)


def tiny_scene(seed=0, **kw):
    args = dict(grid=GRID, channels=4, n_boxes=2, image_size=(32, 32),
                strides=(4, 8), n_cameras=2, fixed_dims=(3.0, 1.5, 1.5))
    args.update(kw)
    return make_scene(SceneConfig(**args), seed=seed)


class TestForward:
    def test_vanilla_heights_spread(self):
        h = vanilla_heights(GRID, 4)
        assert np.allclose(h, [-4.0, -2.0, 0.0, 2.0])
        assert np.allclose(vanilla_heights(GRID, 1), [-1.0])

    def test_mode_matrix_all_combinations_run(self):
        scene = tiny_scene(seed=0)
        from bevlab.pipeline import QUERY_INIT_MODES, VT_MODES
        from bevlab.decoder import ATTENTION_MODES

        for vt, qi, am in itertools.product(VT_MODES, QUERY_INIT_MODES,
                                            ATTENTION_MODES):
            cfg = tiny_config(vt_mode=vt, query_init=qi, attention_mode=am)
            params = init_params(cfg, seed=1)
            det, diag, extras = forward(cfg, params, scene)
            assert det.n_layers == cfg.n_layers
            assert det.ref_points.shape == (12, 2)
            for layer in det.layers:
                assert np.isfinite(layer["enc"]).all()
                assert np.isfinite(layer["cls_probs"]).all()

    def test_asap_vs_as_only_differ_exactly_by_projection(self):
        scene = tiny_scene(seed=1)
        params = init_params(tiny_config(), seed=2)
        _, _, asap = forward(tiny_config(vt_mode="asap"), params, scene)
        _, _, as_only = forward(tiny_config(vt_mode="as_only"), params, scene)
        from bevlab.view_transform import adaptive_project
        from bevlab.autodiff import val
        # as_only's camera map, pushed through the projection stage, is
        # byte-identical to the asap camera map
        lidar = as_only["lidar"]
        again = val(adaptive_project(params.vt, as_only["bev_camera"], lidar))
        assert np.array_equal(again, asap["bev_camera"])

    def test_learnable_init_ignores_heatmaps(self):
        scene = tiny_scene(seed=2)
        cfg = tiny_config(query_init="learnable")
        params = init_params(cfg, seed=3)
        det, _, extras = forward(cfg, params, scene)
        assert extras["heatmaps"] is None
        assert np.array_equal(det.ref_points, params.learnable_points)

    def test_zero_model_on_empty_scene(self):
        scene = tiny_scene(seed=0, n_boxes=0)
        cfg = tiny_config()
        lifted, leaves = ad.lift_tree(init_params(cfg, seed=0))
        for leaf in leaves:
            leaf.data = np.zeros_like(leaf.data)
        params = ad.unlift_tree(lifted)
        det, diag, extras = forward(cfg, params, scene)
        for layer in det.layers:
            assert np.isfinite(layer["enc"]).all()
            assert np.all(layer["cls_probs"] == 0.5)

    def test_group_ids_and_shared_features(self):
        scene = tiny_scene(seed=6)
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        det, _, _ = forward(cfg, params, scene)
        assert np.array_equal(det.group_ids,
                              np.repeat(np.arange(6), 2))

    def test_detections_json_structure(self):
        scene = tiny_scene(seed=8)
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        det, _, _ = forward(cfg, params, scene)
        doc = det.to_json_dict(GRID)
        assert len(doc) == cfg.n_layers
        assert doc[-1]["final"] and not doc[0]["final"]
        pred = doc[0]["predictions"][0]
        assert set(pred) == {"query", "group", "box", "scores"}
        assert set(pred["box"]) == {"x", "y", "z", "l", "w", "h", "yaw"}


def one_query_output(box, scores):
    """A one-layer, one-query DetectionOutput with the given box values
    (xc, yc, z, l, w, h, yaw) and class scores."""
    keys = ("xc", "yc", "z", "l", "w", "h", "yaw")
    return DetectionOutput(
        ref_points=np.zeros((1, 2)), group_ids=np.array([0]),
        layers=[{"enc": np.zeros((1, 8)), "cls_probs": np.array([scores]),
                 "boxes": {k: np.array([v]) for k, v in zip(keys, box)}}])


class TestWriteDetections:
    """The template writer against json.dump of `to_json_dict`."""

    @staticmethod
    def assert_same_bytes(outputs, tmp_path):
        path = tmp_path / "detections.json"
        write_detections(path, outputs, GRID)
        doc = [{"scene": i, "layers": det.to_json_dict(GRID)}
               for i, det in enumerate(outputs)]
        expected = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_two_scenes(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=10)
        outputs = [forward(cfg, params, tiny_scene(seed=s))[0]
                   for s in (11, 12)]
        self.assert_same_bytes(outputs, tmp_path)

    def test_one_layer_one_query(self, tmp_path):
        out = one_query_output((3.25, 1.0, -0.5, 4.0, 1.75, 1.5, 2.0),
                               [0.125, 1e-300, 0.999])
        self.assert_same_bytes([out], tmp_path)

    def test_non_finite_and_negative_zero(self, tmp_path):
        # json writes NaN, Infinity and -Infinity where repr gives nan, inf
        nan, inf = float("nan"), float("inf")
        out = one_query_output((nan, -0.0, inf, -inf, 0.0, nan, -0.0),
                               [-inf, nan, -0.0, inf])
        self.assert_same_bytes([out], tmp_path)
        assert "NaN" in (tmp_path / "detections.json").read_text()

    def test_no_scenes(self, tmp_path):
        self.assert_same_bytes([], tmp_path)


class TestGreedyMatch:
    def test_basic_assignment(self):
        pred = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        gt = np.array([[5.1, 5.0], [0.2, 0.0]])
        pairs = dict(greedy_match(pred, gt))
        assert pairs == {1: 0, 0: 1}

    def test_each_side_used_once(self, rng):
        pred = rng.uniform(0, 10, size=(8, 2))
        gt = rng.uniform(0, 10, size=(5, 2))
        pairs = greedy_match(pred, gt)
        assert len(pairs) == 5
        assert len({q for q, _ in pairs}) == 5
        assert len({g for _, g in pairs}) == 5

    def test_empty_inputs(self):
        assert greedy_match(np.zeros((0, 2)), np.zeros((3, 2))) == []
        assert greedy_match(np.zeros((3, 2)), np.zeros((0, 2))) == []


class TestFit:
    def test_zero_lr_constant_curve(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        scenes = [tiny_scene(seed=0)]
        res = fit_generators(cfg, params, scenes, steps=5, lr=0.0,
                             loss_weights={"box": 0.0})
        totals = [c["total"] for c in res.curve]
        assert all(t == totals[0] for t in totals)

    def test_loss_decreases_on_heatmap_and_height(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=2)
        scenes = [tiny_scene(seed=s) for s in range(2)]
        res = fit_generators(cfg, params, scenes, steps=40, lr=0.05,
                             loss_weights={"box": 0.0})
        assert res.curve[-1]["total"] < res.curve[0]["total"]

    def test_divergence_raises(self):
        # the box path is unbounded, so an absurd step size blows it up
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        scenes = [tiny_scene(seed=0)]
        with pytest.raises(RuntimeError):
            fit_generators(cfg, params, scenes, steps=50, lr=1e4)

    def test_height_supervision_converges(self):
        # a single scene, height loss alone: predicted heights at occupied
        # cells end up within 0.25 m of the true object height
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        scene = tiny_scene(seed=3)
        res = fit_generators(cfg, params, [scene], steps=500, lr=0.05,
                             loss_weights={"heatmap": 0.0, "box": 0.0,
                                           "height": 1.0}, lr_half_life=80)
        from bevlab.scene_sim import (footprint_mask, rasterize_lidar_bev,
                                      render_camera_features)
        from bevlab.view_transform import adaptive_sample
        lidar = rasterize_lidar_bev(scene, GRID)
        pyramids = render_camera_features(scene, GRID, cfg.strides)
        heights = adaptive_sample(res.params.vt, lidar, pyramids,
                                  scene.cameras, GRID).per_cell_heights
        occ = footprint_mask(scene, GRID)
        worst = 0.0
        for v, u in zip(*np.nonzero(occ)):
            z = heights[:, v, u]
            z_true = lidar[-2, v, u]
            worst = max(worst, float(np.max(np.abs(z - z_true))))
        assert worst < 0.25

    def test_step_tape_released_before_next_step(self):
        # the peak of a 2-step fit stays that of a 1-step fit: step 1's
        # tape is gone before step 2 builds its own
        cfg = tiny_config()
        scenes = [tiny_scene(seed=0)]
        peaks = []
        for steps in (1, 2):
            params = init_params(cfg, seed=5)
            tracemalloc.start()
            try:
                fit_generators(cfg, params, scenes, steps=steps, lr=1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    def test_fit_deterministic(self):
        cfg = tiny_config()
        scenes = [tiny_scene(seed=0)]
        a = fit_generators(cfg, init_params(cfg, seed=5), scenes, steps=10,
                           lr=0.3, loss_weights={"box": 0.0})
        b = fit_generators(cfg, init_params(cfg, seed=5), scenes, steps=10,
                           lr=0.3, loss_weights={"box": 0.0})
        assert a.curve == b.curve
        assert np.array_equal(a.params.vt.height_gen.weight,
                              b.params.vt.height_gen.weight)

    def test_box_loss_trains_decoder(self):
        cfg = tiny_config(groups=GroupSpec(((0,), (1, 2), (3, 4), (5,),
                                            (6, 7), (8, 9)), 2))
        params = init_params(cfg, seed=6)
        scene = tiny_scene(seed=5)
        res = fit_generators(cfg, params, [scene], steps=60, lr=0.2,
                             loss_weights={"heatmap": 1.0, "box": 1.0,
                                           "height": 0.0})
        assert res.curve[-1]["box"] < res.curve[0]["box"]

    @pytest.mark.parametrize("mode", ["vanilla", "ap_only"])
    def test_vanilla_sampling_built_once_per_scene(self, mode, monkeypatch):
        import bevlab.pipeline as pl

        cfg = tiny_config(vt_mode=mode)
        scenes = [tiny_scene(seed=s) for s in range(2)]
        calls = []
        orig_vanilla = pl.vanilla_vt_output

        def counting(*args, **kwargs):
            calls.append(1)
            return orig_vanilla(*args, **kwargs)

        monkeypatch.setattr(pl, "vanilla_vt_output", counting)
        fit_generators(cfg, init_params(cfg, seed=9), scenes, steps=3, lr=0.1)
        assert len(calls) == len(scenes)


class TestParamChecks:
    # tiny_config: C = 4, 2 heights, 2 scales, 4 points, 2 heads
    @pytest.mark.parametrize("part, field, bad, match", [
        pytest.param("vt", "height_gen", LinearMap.zeros(0, 4), "weight_gen",
                     id="vt-no-heights"),
        pytest.param("vt", "weight_gen", LinearMap.zeros(3, 4), "weight_gen",
                     id="vt-weights-not-per-height"),
        pytest.param("vt", "weight_gen", LinearMap.zeros(0, 4), "weight_gen",
                     id="vt-no-scales"),
        pytest.param("vt", "kernel_gen", LinearMap.zeros(9, 4), "kernel_gen",
                     id="vt-kernel-out"),
        pytest.param("vt", "kernel_gen", LinearMap.zeros(16, 3), "kernel_gen",
                     id="vt-kernel-in"),
        pytest.param("vt", "fuse", LinearMap.zeros(4, 4), "fuse",
                     id="vt-fuse-in"),
        pytest.param("vt", "fuse", LinearMap.zeros(3, 8), "fuse",
                     id="vt-fuse-out"),
        pytest.param("decoder", "point_weight_gen", LinearMap.zeros(6, 4),
                     "n_points", id="decoder-points-not-corners"),
        pytest.param("decoder", "pos_embed_proj", LinearMap.zeros(4, 6),
                     "pe_dim", id="decoder-pe-dim"),
        pytest.param("decoder", "n_heads", 3, "n_heads",
                     id="decoder-heads"),
        pytest.param("decoder", "offset_gen", LinearMap.zeros(6, 4),
                     "offset_gen", id="decoder-offsets"),
        pytest.param("decoder", "reg_head", LinearMap.zeros(7, 4),
                     "reg_head", id="decoder-reg-head"),
    ])
    def test_inconsistent_arrays_rejected(self, part, field, bad, match):
        good = getattr(init_params(tiny_config(), seed=0), part)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(good, **{field: bad})
