"""Synthetic scene generation against naive geometric oracles."""

import json
import math

import numpy as np
import pytest

from bevlab import cli
from bevlab.geometry import BevGrid, project_to_image
from bevlab.scene_sim import (CLASS_NAMES, Box, SceneConfig, SceneSpec,
                              camera_ring, dilate_mask, footprint_mask,
                              make_scene, rasterize_lidar_bev, ray_smear_metric,
                              render_camera_features)

GRID = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))


def small_config(**kw):
    args = dict(grid=GRID, channels=8, n_boxes=3, image_size=(64, 64),
                n_cameras=4)
    args.update(kw)
    return SceneConfig(**args)


def point_in_rect(px, py, box):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx, dy = px - box.center[0], py - box.center[1]
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return abs(lx) <= box.dims[0] / 2 and abs(ly) <= box.dims[1] / 2


class TestMakeScene:
    def test_deterministic(self):
        a = make_scene(small_config(), seed=7)
        b = make_scene(small_config(), seed=7)
        assert a.boxes == b.boxes
        assert np.array_equal(a.signatures, b.signatures)

    def test_two_channels_rejected(self):
        # two channels are reserved, so a scene needs a third
        with pytest.raises(ValueError, match="at least 3 channels"):
            small_config(channels=2)

    def test_empty_scene(self):
        scene = make_scene(small_config(n_boxes=0), seed=0)
        assert scene.boxes == ()

    def test_boxes_in_roi_and_disjoint(self):
        scene = make_scene(small_config(n_boxes=5), seed=7)
        for box in scene.boxes:
            assert GRID.x_range[0] < box.center[0] < GRID.x_range[1]
            assert GRID.y_range[0] < box.center[1] < GRID.y_range[1]
        # naive O(n^2) overlap check: no cell center inside two footprints
        for i, a in enumerate(scene.boxes):
            for b in scene.boxes[i + 1:]:
                both = footprint_mask(
                    SceneSpec(0, (a,), (), np.zeros((1, 8)), 0.0, 8), GRID)
                both &= footprint_mask(
                    SceneSpec(0, (b,), (), np.zeros((1, 8)), 0.0, 8), GRID)
                assert not both.any()

    def test_signatures_unit_norm_reserved_zero(self):
        scene = make_scene(small_config(), seed=3)
        for sig in scene.signatures:
            assert abs(np.linalg.norm(sig) - 1.0) < 1e-12
            assert sig[-1] == 0.0 and sig[-2] == 0.0

    def test_impossible_packing_raises(self):
        cfg = small_config(n_boxes=200, fixed_dims=(8.0, 8.0, 2.0))
        with pytest.raises(RuntimeError):
            make_scene(cfg, seed=0)


class TestRasterize:
    def test_empty_scene_zero(self):
        scene = make_scene(small_config(n_boxes=0), seed=0)
        assert np.all(rasterize_lidar_bev(scene, GRID) == 0)

    def test_footprint_oracle(self):
        scene = make_scene(small_config(n_boxes=1), seed=5)
        bev = rasterize_lidar_bev(scene, GRID)
        box = scene.boxes[0]
        nonzero = np.any(bev != 0, axis=0)
        for v in range(GRID.height):
            for u in range(GRID.width):
                X = GRID.x_range[0] + (u + 0.5) * GRID.cell_size_x
                Y = GRID.y_range[0] + (v + 0.5) * GRID.cell_size_y
                assert nonzero[v, u] == point_in_rect(X, Y, box)

    def test_occupancy_counts_footprint(self):
        scene = make_scene(small_config(n_boxes=3), seed=9)
        bev = rasterize_lidar_bev(scene, GRID)
        assert bev[-1].sum() == footprint_mask(scene, GRID).sum()

    def test_height_channel(self):
        scene = make_scene(small_config(n_boxes=1), seed=2)
        bev = rasterize_lidar_bev(scene, GRID)
        m = footprint_mask(scene, GRID)
        assert np.allclose(bev[-2][m], scene.boxes[0].center[2])
        assert np.all(bev[-2][~m] == 0)

    def test_noise_deterministic(self):
        scene = make_scene(small_config(noise_std=0.3), seed=11)
        a = rasterize_lidar_bev(scene, GRID)
        b = rasterize_lidar_bev(scene, GRID)
        assert np.array_equal(a, b)
        assert np.all(a[-2:] == rasterize_lidar_bev(
            make_scene(small_config(noise_std=0.0), seed=11), GRID)[-2:])


class TestRenderCameras:
    def test_box_behind_all_cameras_zero(self):
        # a single forward-looking camera; box placed behind it
        cfg = small_config(n_boxes=0, n_cameras=1)
        scene = make_scene(cfg, seed=0)
        box = Box(0, (-10.0, 0.0, 1.0), (2.0, 1.0, 1.5), 0.0)
        sigs = np.zeros((1, 8))
        sigs[0, 0] = 1.0
        scene = SceneSpec(0, (box,), scene.cameras, sigs, 0.0, 8)
        pyramids = render_camera_features(scene, (4, 8))
        for _, fmap in pyramids[0].levels:
            assert np.all(fmap == 0)

    def test_splat_peak_at_projection(self):
        cfg = small_config(n_boxes=1, n_cameras=1, noise_std=0.0)
        scene = make_scene(cfg, seed=4)
        # place the box squarely in front of camera 0 (+x axis)
        box = Box(0, (8.0, 0.0, 1.0), (2.0, 1.0, 1.5), 0.3)
        scene = SceneSpec(scene.seed, (box,), scene.cameras,
                          scene.signatures, 0.0, 8)
        x, y, ok = project_to_image(scene.cameras[0], box.center)
        assert ok
        pyramids = render_camera_features(scene, (1,))
        _, fmap = pyramids[0].levels[0]
        energy = np.sum(fmap ** 2, axis=0)
        peak = np.unravel_index(np.argmax(energy), energy.shape)
        assert abs(peak[1] - x) <= 0.5 and abs(peak[0] - y) <= 0.5

    def test_orthogonal_signatures_disjoint_channels(self):
        cfg = small_config(n_boxes=0, n_cameras=1)
        base = make_scene(cfg, seed=0)
        sigs = np.zeros((2, 8))
        sigs[0, 0] = 1.0
        sigs[1, 1] = 1.0
        boxes = (Box(0, (8.0, -3.0, 1.0), (2.0, 1.0, 1.5), 0.0),
                 Box(1, (8.0, 3.0, 1.0), (2.0, 1.0, 1.5), 0.0))
        scene = SceneSpec(0, boxes, base.cameras, sigs, 0.0, 8)
        pyramids = render_camera_features(scene, (1,))
        _, fmap = pyramids[0].levels[0]
        # the two splats live in orthogonal channels
        assert float(np.sum(fmap[0] * fmap[1])) < 1e-6

    def test_indivisible_stride_rejected(self):
        # `cli.build_configs` checks a config's strides against its image
        # size (test_cli's scene-update25); an API caller's are checked here
        scene = make_scene(small_config(image_size=(64, 64)), seed=0)
        with pytest.raises(ValueError, match="not divisible by stride 3"):
            render_camera_features(scene, (3,))


class TestRaySmear:
    def test_footprint_only_energy_is_one(self):
        scene = make_scene(small_config(n_boxes=2), seed=1)
        bev = rasterize_lidar_bev(scene, GRID)
        assert ray_smear_metric(bev, scene, GRID) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_map_gives_area_fraction(self):
        scene = make_scene(small_config(n_boxes=2), seed=1)
        bev = np.ones((8, GRID.height, GRID.width))
        frac = dilate_mask(footprint_mask(scene, GRID)).mean()
        assert abs(ray_smear_metric(bev, scene, GRID) - frac) < 1e-12

    def test_empty_scene_rejected(self):
        scene = make_scene(small_config(n_boxes=0), seed=0)
        with pytest.raises(ValueError):
            ray_smear_metric(np.ones((8, 32, 32)), scene, GRID)

    def test_zero_map(self):
        scene = make_scene(small_config(n_boxes=1), seed=0)
        assert ray_smear_metric(np.zeros((8, 32, 32)), scene, GRID) == 0.0


class TestCameraRing:
    def test_ring_geometry(self):
        cams = camera_ring(6, (64, 64), 70.0, 1.8)
        assert len(cams) == 6
        # every camera sees a point straight ahead of it at its own height
        for k, cam in enumerate(cams):
            phi = 2 * math.pi * k / 6
            p = (10 * math.cos(phi), 10 * math.sin(phi), 1.8)
            x, y, ok = project_to_image(cam, p)
            assert ok
            assert abs(x - 32.0) < 1e-9 and abs(y - 32.0) < 1e-9


class TestSceneJson:
    def test_round_trip(self, tmp_path):
        # scene_0.json as `bevlab run` writes it holds every field of the
        # scene exactly
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"channels": 8, "n_heights": 1, "n_points": 4,
                      "n_layers": 1, "n_heads": 1, "queries_per_group": 1},
            "grid": {"x_range": [-16.0, 16.0], "y_range": [-16.0, 16.0],
                     "z_range": [-5.0, 3.0], "cells": [32, 32]},
            "scene": {"seed": 13, "n_boxes": 4, "noise_std": 0.1,
                      "image_size": [64, 64], "strides": [4, 8],
                      "n_cameras": 4}}))
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == 0
        scene = make_scene(small_config(n_boxes=4, noise_std=0.1), seed=13)
        doc = json.loads((tmp_path / "scene_0.json").read_text())
        assert sorted(doc) == ["boxes", "cameras", "channels", "noise_std",
                               "seed", "signatures"]
        assert (doc["seed"], doc["noise_std"], doc["channels"]) == (
            scene.seed, scene.noise_std, scene.channels)
        assert doc["boxes"] == [
            {"class": CLASS_NAMES[b.class_id], "class_id": b.class_id,
             "center": list(b.center), "dims": list(b.dims), "yaw": b.yaw}
            for b in scene.boxes]
        assert len(doc["cameras"]) == len(scene.cameras)
        for c, cam in zip(doc["cameras"], scene.cameras):
            assert np.array_equal(c["intrinsics"], cam.intrinsics)
            assert np.array_equal(c["rotation"], cam.rotation)
            assert np.array_equal(c["translation"], cam.translation)
            assert c["image_size"] == list(cam.image_size)
        assert np.array_equal(doc["signatures"], scene.signatures)
