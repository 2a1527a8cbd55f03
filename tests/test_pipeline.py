"""Full forward wiring, ablation mode matrix, and the fitting routine."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab import cli
from bevlab.geometry import BevGrid
from bevlab.autodiff import val
from bevlab.pipeline import (QUERY_INIT_MODES, VT_MODES, DetectionOutput,
                             PipelineConfig, _build, _height_loss,
                             _scene_constants, _scene_inputs, fit_generators,
                             forward, greedy_match, init_params)
from bevlab.query_select import GroupSpec
from bevlab.scene_sim import SceneConfig, make_scene, rasterize_lidar_bev
from bevlab.verify import cell_to_world, zero_linear
from bevlab.view_transform import VtOutput
from helpers import tracemalloc_peak

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
        # the bin centers of the z-range in every cell; one height: its
        # midpoint
        scene = tiny_scene(seed=3)
        for n_heights, expect in ((4, [-4.0, -2.0, 0.0, 2.0]), (1, [-1.0])):
            cfg = tiny_config(vt_mode="vanilla", n_heights=n_heights)
            heights = _scene_inputs(cfg, scene)["vanilla"].per_cell_heights
            assert heights.shape == (GRID.height * GRID.width, n_heights)
            assert np.allclose(heights, expect)

    @pytest.mark.parametrize("vt_mode", VT_MODES)
    def test_build_leaves_its_inputs_as_given(self, vt_mode):
        # the vanilla sampling is built with the scene's inputs, in the
        # modes that read it, and `_build` only reads them
        cfg = tiny_config(vt_mode=vt_mode)
        params = init_params(cfg, seed=1)
        inputs = _scene_inputs(cfg, tiny_scene(seed=3))
        given = dict(inputs)
        for _ in range(2):
            _build(cfg, params, inputs)
            assert inputs.keys() == given.keys()
            assert all(inputs[key] is given[key] for key in given)
        assert isinstance(inputs["vanilla"], VtOutput) == (
            vt_mode in ("vanilla", "ap_only"))

    @pytest.mark.parametrize("vt_mode, query_init",
                             zip(VT_MODES, QUERY_INIT_MODES))
    def test_forward_is_the_final_layer_of_build(self, vt_mode, query_init):
        scene = tiny_scene(seed=3)
        cfg = tiny_config(vt_mode=vt_mode, query_init=query_init)
        params = init_params(cfg, seed=1)
        det, _, _ = forward(cfg, params, scene)
        graph = _build(cfg, params, _scene_inputs(cfg, scene))
        final = graph["layers"][-1]
        assert det.n_layers == len(graph["layers"]) == cfg.n_layers
        assert np.array_equal(det.group_ids, graph["group_ids"])
        assert det.boxes.keys() == final["boxes"].keys()
        for key, arr in final["boxes"].items():
            assert np.array_equal(det.boxes[key], arr), key
        assert np.array_equal(det.cls_probs, ad.sigmoid(val(final["cls"])))

    def test_mode_matrix_all_combinations_run(self):
        # seed 3 puts a box in a camera's view, so the camera branch is live
        scene = tiny_scene(seed=3)
        from bevlab.decoder import ATTENTION_MODES

        camera_maps = {}
        for vt, qi, am in itertools.product(VT_MODES, QUERY_INIT_MODES,
                                            ATTENTION_MODES):
            cfg = tiny_config(vt_mode=vt, query_init=qi, attention_mode=am)
            params = init_params(cfg, seed=1)
            det, diag, extras = forward(cfg, params, scene)
            assert det.n_layers == cfg.n_layers
            assert det.boxes["xc"].shape == (12,)
            assert extras["heatmaps"].shape == (10, 16, 16)
            for arr in det.boxes.values():
                assert np.isfinite(arr).all()
            assert np.isfinite(det.cls_probs).all()
            camera_maps[vt] = extras["bev_camera"]
        for vt in VT_MODES:
            assert np.abs(camera_maps[vt]).max() > 0, vt
        for a, b in itertools.combinations(VT_MODES, 2):
            assert not np.array_equal(camera_maps[a], camera_maps[b]), (a, b)

    def test_asap_vs_as_only_differ_exactly_by_projection(self):
        scene = tiny_scene(seed=1)
        params = init_params(tiny_config(), seed=2)
        _, _, asap = forward(tiny_config(vt_mode="asap"), params, scene)
        _, _, as_only = forward(tiny_config(vt_mode="as_only"), params, scene)
        from bevlab.view_transform import adaptive_project
        from bevlab.autodiff import val
        # as_only's camera map, pushed through the projection stage, is
        # byte-identical to the asap camera map
        lidar = rasterize_lidar_bev(scene, GRID)
        again = val(adaptive_project(params.vt, as_only["bev_camera"], lidar))
        assert np.array_equal(again, asap["bev_camera"])

    def test_learnable_init_ignores_heatmaps(self):
        # seed 4 puts a box in a camera's view: the heatmaps are those of
        # the mixed queries, yet the queries stay at the learnable points
        scene = tiny_scene(seed=4)
        cfg = tiny_config(query_init="learnable")
        params = init_params(cfg, seed=3)
        graph = _build(cfg, params, _scene_inputs(cfg, scene))
        _, _, mixed = forward(dataclasses.replace(
            cfg, query_init="mixed_groupwise"), params, scene)
        assert np.abs(val(graph["bev_camera"])).max() > 0
        assert np.array_equal(val(graph["heatmaps"]), mixed["heatmaps"])
        assert np.array_equal(graph["ref"], params.learnable_points)

    def test_zero_model_on_empty_scene(self):
        scene = tiny_scene(seed=0, n_boxes=0)
        cfg = tiny_config()
        lifted, leaves = ad.lift_tree(init_params(cfg, seed=0))
        for leaf in leaves:
            leaf.data = np.zeros_like(leaf.data)
        params = ad.unlift_tree(lifted)
        det, diag, extras = forward(cfg, params, scene)
        for arr in det.boxes.values():
            assert np.isfinite(arr).all()
        assert np.all(det.cls_probs == 0.5)

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
        # the final layer alone
        assert [(d["layer"], d["final"]) for d in doc] == [
            (cfg.n_layers - 1, True)]
        # every dict's keys come in the sorted order the writer uses
        assert list(doc[0]) == ["final", "layer", "predictions"]
        pred = doc[0]["predictions"][0]
        assert list(pred) == ["box", "group", "query", "scores"]
        assert list(pred["box"]) == ["h", "l", "w", "x", "y", "yaw", "z"]


def one_query_output(box, scores):
    """A one-layer, one-query DetectionOutput with the given box values
    (xc, yc, z, l, w, h, yaw) and class scores."""
    keys = ("xc", "yc", "z", "l", "w", "h", "yaw")
    return DetectionOutput(
        group_ids=np.array([0]), n_layers=1,
        boxes={k: np.array([v]) for k, v in zip(keys, box)},
        cls_probs=np.array([scores]))


# a `bevlab run` config of tiny_config's model on tiny_scene's scenes
RUN_DOC = {
    "model": {"channels": 4, "n_heights": 2, "n_points": 4, "n_layers": 2,
              "n_heads": 2, "queries_per_group": 2,
              "groups": [list(g) for g in TINY_GROUPS.groups]},
    "grid": {"x_range": [-16.0, 16.0], "y_range": [-16.0, 16.0],
             "z_range": [-5.0, 3.0], "cells": [16, 16]},
    "scene": {"n_scenes": 2, "seed": 11, "n_boxes": 2, "image_size": [32, 32],
              "strides": [4, 8], "n_cameras": 2,
              "fixed_dims": [3.0, 1.5, 1.5]},
}


def exact(values):
    """Each value's repr: equal lists hold the same floats bit for bit,
    -0.0, infinities and NaN included."""
    return [repr(float(v)) for v in values]


class TestWriteDetections:
    """detections.json as `bevlab run` writes it, value by value against
    the DetectionOutputs of its forward passes."""

    @staticmethod
    def run(tmp_path, monkeypatch, output=None):
        """`bevlab run` on RUN_DOC; each scene's DetectionOutput is recorded
        or, if given, replaced by `output`. Returns the file's text and the
        outputs."""
        outputs = []

        def recording(*args):
            det, diag, extras = forward(*args)
            outputs.append(det if output is None else output)
            return outputs[-1], diag, extras

        monkeypatch.setattr(cli, "forward", recording)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(RUN_DOC))
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == 0
        return (tmp_path / "detections.json").read_text(), outputs

    @staticmethod
    def assert_scene(layers, det):
        """One scene's layers against `det`: exactly one entry, the final
        layer, with `det`'s values. Returns how many of its boxes are in
        the grid, where x and y are checked."""
        [doc] = layers
        assert (doc["layer"], doc["final"]) == (det.n_layers - 1, True)
        preds, boxes = doc["predictions"], det.boxes
        assert [(p["query"], p["group"]) for p in preds] == list(
            enumerate(det.group_ids.tolist()))
        for key in ("z", "l", "w", "h", "yaw"):
            assert exact(p["box"][key] for p in preds) == exact(boxes[key])
        assert [exact(p["scores"]) for p in preds] == [
            exact(s) for s in det.cls_probs]
        in_grid = 0
        for p, u, v in zip(preds, boxes["xc"], boxes["yc"]):
            if 0 <= u < GRID.width and 0 <= v < GRID.height:
                assert (p["box"]["x"], p["box"]["y"]) == \
                    cell_to_world(GRID, u, v)
                in_grid += 1
        return in_grid

    def test_two_scenes(self, tmp_path, monkeypatch):
        text, outputs = self.run(tmp_path, monkeypatch)
        doc = json.loads(text)
        assert [d["scene"] for d in doc] == [0, 1]
        assert sum(self.assert_scene(d["layers"], det)
                   for d, det in zip(doc, outputs, strict=True)) > 0

    def test_one_layer_one_query(self, tmp_path, monkeypatch):
        out = one_query_output((3.25, 1.0, -0.5, 4.0, 1.75, 1.5, 2.0),
                               [0.125, 1e-300, 0.999])
        text, _ = self.run(tmp_path, monkeypatch, out)
        for d in json.loads(text):
            assert self.assert_scene(d["layers"], out) == 1

    def test_non_finite_and_negative_zero(self, tmp_path, monkeypatch):
        # json writes NaN, Infinity and -Infinity where repr gives nan, inf
        nan, inf = float("nan"), float("inf")
        out = one_query_output((nan, -0.0, inf, -inf, 0.0, nan, -0.0),
                               [-inf, nan, -0.0, inf])
        text, _ = self.run(tmp_path, monkeypatch, out)
        for d in json.loads(text):
            assert self.assert_scene(d["layers"], out) == 0
        for token in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert token in text


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
        scenes = [tiny_scene(seed=3)]  # a live camera branch
        res = fit_generators(cfg, params, scenes, steps=5, lr=0.0)
        totals = [c["total"] for c in res.curve]
        assert all(t == totals[0] for t in totals)

    def test_loss_decreases_on_heatmap_and_height(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=2)
        scenes = [tiny_scene(seed=s) for s in range(2)]
        res = fit_generators(cfg, params, scenes, steps=40, lr=0.05)
        for key in ("total", "heatmap", "height"):
            assert res.curve[-1][key] < res.curve[0][key]

    def test_divergence_raises(self):
        # the box path is unbounded, so an absurd step size blows it up
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        scenes = [tiny_scene(seed=0)]
        with pytest.raises(RuntimeError):
            fit_generators(cfg, params, scenes, steps=50, lr=1e4)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_empty_batch_rejected(self, batch_size):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="batch_size"):
            fit_generators(cfg, init_params(cfg, seed=3), [tiny_scene(seed=0)],
                           steps=1, lr=1e-3, batch_size=batch_size)

    def test_height_supervision_converges(self):
        # a single scene, 1000 gradient steps on the height loss alone:
        # predicted heights at occupied cells end up within 0.25 m of the
        # true object height
        cfg = tiny_config()
        scene = tiny_scene(seed=3)
        consts = _scene_constants(cfg, scene)
        lifted, leaves = ad.lift_tree(init_params(cfg, seed=4))
        for _ in range(1000):
            _height_loss(cfg, lifted, consts).backward()
            ad.sgd_step(leaves, 0.01)
        from bevlab.scene_sim import footprint_mask, render_camera_features
        from bevlab.view_transform import adaptive_sample
        lidar = rasterize_lidar_bev(scene, GRID)
        pyramids = render_camera_features(scene, GRID, cfg.strides)
        heights = adaptive_sample(ad.unlift_tree(lifted).vt, lidar, pyramids,
                                  scene.cameras, GRID).per_cell_heights
        occ = footprint_mask(scene, GRID)
        worst = 0.0
        for v, u in zip(*np.nonzero(occ)):
            z = heights[v * GRID.width + u]
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
            with tracemalloc_peak() as mem:
                fit_generators(cfg, params, scenes, steps=steps, lr=1e-3)
            peaks.append(mem.peak)
        assert peaks[1] < 1.1 * peaks[0]

    @staticmethod
    def _one_step_memory(monkeypatch):
        """(bytes held when backward starts, peak bytes) of one fit step at
        the tiny config on scene 0, both traced from the step's start."""
        cfg = tiny_config()
        scenes = [tiny_scene(seed=0)]
        at_backward = []
        backward = ad.Var.backward

        def recording(self):
            at_backward.append(tracemalloc.get_traced_memory()[0])
            return backward(self)

        monkeypatch.setattr(ad.Var, "backward", recording)
        with tracemalloc_peak() as mem:
            fit_generators(cfg, init_params(cfg, seed=5), scenes, steps=1,
                           lr=1e-3)
        assert len(at_backward) == 1
        return at_backward[0], mem.peak

    def test_backward_peak_near_forward_tape(self, monkeypatch):
        # a step's peak over what it holds when backward starts (the scene
        # constants, the parameters and the forward tape): 1.54 when every
        # inner gradient lives to the end of backward and each gather keeps
        # its four corners, 1.19 when neither does, 1.29 once the tape keeps
        # only what its vjps read
        at_backward, peak = self._one_step_memory(monkeypatch)
        assert peak < 1.35 * at_backward

    def test_step_tape_holds_what_backward_reads(self, monkeypatch):
        # what a step holds when backward starts: 1.00-1.03 MB when the
        # tape keeps every op's output and inputs alive, 0.70-0.73 MB when
        # it keeps only the arrays its vjps read (the bound leaves 9%)
        at_backward, _ = self._one_step_memory(monkeypatch)
        assert at_backward < 0.8e6

    def test_fit_deterministic(self):
        cfg = tiny_config()
        scenes = [tiny_scene(seed=3)]  # a live camera branch
        a = fit_generators(cfg, init_params(cfg, seed=5), scenes, steps=10,
                           lr=0.3)
        b = fit_generators(cfg, init_params(cfg, seed=5), scenes, steps=10,
                           lr=0.3)
        assert a.curve == b.curve
        assert np.array_equal(a.params.vt.height_gen.weight,
                              b.params.vt.height_gen.weight)

    def test_fit_equals_the_fit_with_all_heads_in_one_block(self,
                                                            monkeypatch):
        # attention splits its blocks by head, and that changes no bit of a
        # fit: the same fit with each attention whose scores fit the budget
        # in one block over all heads gives the same curve and parameters
        cfg = tiny_config()
        scenes = [tiny_scene(seed=3)]
        runs = [fit_generators(cfg, init_params(cfg, seed=5), scenes,
                               steps=3, lr=0.3)]
        per_head = ad._attention_blocks
        merged = []

        def all_heads_within_budget(h, nq, nk):
            if 8 * h * nq * nk > ad._BLOCK_BYTES:
                return per_head(h, nq, nk)
            merged.append(h)
            return [(slice(0, h), slice(0, nq), slice(0, nk))]

        monkeypatch.setattr(ad, "_attention_blocks", all_heads_within_budget)
        runs.append(fit_generators(cfg, init_params(cfg, seed=5), scenes,
                                   steps=3, lr=0.3))
        assert merged and min(merged) > 1
        a, b = runs
        assert a.curve == b.curve
        for x, y in zip(ad.lift_tree(a.params)[1], ad.lift_tree(b.params)[1]):
            assert np.array_equal(x.data, y.data)

    def test_box_loss_trains_decoder(self):
        cfg = tiny_config(groups=GroupSpec(((0,), (1, 2), (3, 4), (5,),
                                            (6, 7), (8, 9)), 2))
        params = init_params(cfg, seed=6)
        scene = tiny_scene(seed=5)
        res = fit_generators(cfg, params, [scene], steps=60, lr=0.2)
        assert res.curve[-1]["box"] < res.curve[0]["box"]

    @pytest.mark.parametrize("vt_mode, query_init",
                             zip(VT_MODES, QUERY_INIT_MODES))
    def test_every_mode_fits_all_three_terms(self, vt_mode, query_init):
        # seed 3 puts a box in a camera's view, so the camera branch is live;
        # `learnable` queries select without heatmaps, yet the heatmap loss
        # still trains the scorer
        cfg = tiny_config(vt_mode=vt_mode, query_init=query_init)
        params = init_params(cfg, seed=1)
        res = fit_generators(cfg, params, [tiny_scene(seed=3)], steps=2,
                             lr=0.05)
        for entry in res.curve:
            for key in ("height", "heatmap", "box"):
                assert np.isfinite(entry[key]) and entry[key] > 0
        for old, new in ((params.vt.height_gen, res.params.vt.height_gen),
                         (params.head, res.params.head)):
            assert not np.array_equal(old.weight, new.weight)

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
        pytest.param("vt", "height_gen", zero_linear(0, 4), "weight_gen",
                     id="vt-no-heights"),
        pytest.param("vt", "weight_gen", zero_linear(3, 4), "weight_gen",
                     id="vt-weights-not-per-height"),
        pytest.param("vt", "weight_gen", zero_linear(0, 4), "weight_gen",
                     id="vt-no-scales"),
        pytest.param("vt", "kernel_gen", zero_linear(9, 4), "kernel_gen",
                     id="vt-kernel-out"),
        pytest.param("vt", "kernel_gen", zero_linear(16, 3), "kernel_gen",
                     id="vt-kernel-in"),
        pytest.param("vt", "fuse", zero_linear(4, 4), "fuse",
                     id="vt-fuse-in"),
        pytest.param("vt", "fuse", zero_linear(3, 8), "fuse",
                     id="vt-fuse-out"),
        pytest.param("decoder", "point_weight_gen", zero_linear(6, 4),
                     "n_points", id="decoder-points-not-corners"),
        pytest.param("decoder", "pos_embed_proj", zero_linear(4, 6),
                     "pe_dim", id="decoder-pe-dim"),
        pytest.param("decoder", "n_heads", 3, "n_heads",
                     id="decoder-heads"),
        pytest.param("decoder", "offset_gen", zero_linear(6, 4),
                     "offset_gen", id="decoder-offsets"),
        pytest.param("decoder", "reg_head", zero_linear(7, 4),
                     "reg_head", id="decoder-reg-head"),
    ])
    def test_inconsistent_arrays_rejected(self, part, field, bad, match):
        good = getattr(init_params(tiny_config(), seed=0), part)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(good, **{field: bad})
