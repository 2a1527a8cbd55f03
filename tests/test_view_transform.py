"""Adaptive/vanilla view transforms: frozen hand cases, invariants and
gradients. The naive-loop oracle comparisons are `bevlab verify` checks,
which tests/test_cli.py runs."""

import dataclasses

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab.autodiff import val
from bevlab.geometry import BevGrid, CameraModel, FeaturePyramid
from bevlab.scene_sim import (SceneConfig, SceneSpec, Box, make_scene,
                              rasterize_lidar_bev, ray_smear_metric,
                              render_camera_features)
from bevlab.tensor import LinearMap
from bevlab.verify import (bilinear_sample, cell_to_world,
                           dense_adaptive_project, gradcheck,
                           random_vt_instance, zero_linear)
from bevlab.view_transform import (VtParams, adaptive_project, adaptive_sample,
                                   fuse_bev, vanilla_vt_output)
from bevlab.geometry import (camera_planes, project_heights,
                             project_to_image)
from helpers import tracemalloc_peak


def downward_camera(img=64, f=20.0):
    """A camera above the grid looking straight down: every cell projects
    inside the image for shallow heights."""
    K = np.array([[f, 0.0, img / 2], [0.0, f, img / 2], [0.0, 0.0, 1.0]])
    # world +x -> image +x, world +y -> image +y, looking along -z from z=20
    R = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    t = -R @ np.array([0.0, 0.0, 20.0])
    return CameraModel(K, R, t, (img, img))


def full_view_instance(rng, C=3, H=6, n_h=2, n_s=2):
    """Instance where every sample is valid (single downward camera)."""
    grid = BevGrid((-4.0, 4.0), (-4.0, 4.0), (-2.0, 2.0), (H, H))
    cam = downward_camera()
    params = VtParams(
        height_gen=LinearMap(rng.normal(0, 0.3, (n_h, C)), rng.normal(0, 0.2, n_h)),
        weight_gen=LinearMap(rng.normal(0, 0.3, (n_s * n_h, C)),
                             rng.normal(0, 0.2, n_s * n_h)),
        kernel_gen=zero_linear(C * C, C),
        fuse=zero_linear(C, 2 * C))
    lidar = rng.normal(size=(C, H, H))
    strides = (2, 4)[:n_s]
    levels = tuple((s, rng.normal(size=(C, 64 // s, 64 // s))) for s in strides)
    return params, lidar, [FeaturePyramid(levels)], [cam], grid


class TestGenerateHeights:
    GRID = BevGrid((-54.0, 54.0), (-54.0, 54.0), (-5.0, 3.0), (8, 8))

    def params(self, height_gen, C=2):
        return VtParams(height_gen=height_gen,
                        weight_gen=zero_linear(height_gen.out_dim, C),
                        kernel_gen=zero_linear(C * C, C),
                        fuse=zero_linear(C, 2 * C))

    def heights(self, params, lidar, u, v):
        """Sampling heights of cell (u, v) from the batched sampler."""
        pyramid = FeaturePyramid(((4, np.zeros((2, 16, 16))),))
        out = adaptive_sample(params, lidar, [pyramid], [downward_camera()],
                              self.GRID)
        return out.per_cell_heights[v * self.GRID.width + u]

    def test_zero_generator_gives_midpoint(self):
        p = self.params(zero_linear(3, 2))
        z = self.heights(p, np.zeros((2, 8, 8)), 4, 4)
        assert np.allclose(z, -1.0)

    def test_saturation_at_z_max(self):
        p = self.params(LinearMap(np.zeros((1, 2)), np.array([50.0])))
        z = self.heights(p, np.zeros((2, 8, 8)), 0, 0)
        assert abs(z[0] - 3.0) < 1e-9

    def test_direct_value(self):
        p = self.params(LinearMap(np.zeros((1, 2)), np.array([0.5])))
        z = self.heights(p, np.ones((2, 8, 8)), 1, 1)
        assert np.allclose(z, -1.0 + np.tanh(0.5) * 4.0)


class TestCompaction:
    def test_gathers_only_projection_valid_lanes(self, rng, monkeypatch):
        # guards the compaction: a dense gather would pass every cell to
        # the bilinear gather for every (height, camera, level)
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=3, H=12, n_h=3, n_s=2, n_cams=2, ring=6)
        lookups = []
        orig = ad._bilinear

        def counting(rows, H, W, vx, *args):
            lookups.append(np.size(vx))
            return orig(rows, H, W, vx, *args)

        monkeypatch.setattr(ad, "_bilinear", counting)
        out = adaptive_sample(params, lidar, pyramids, cams, grid)

        X, Y = grid.cell_centers_flat()
        in_view = sum(int(project_heights(cam, camera_planes(cam, X, Y),
                                          z)[2].sum())
                      for z in out.per_cell_heights.T
                      for cam in cams)
        assert sum(lookups) == params.n_scales * in_view
        assert in_view < 3 * len(cams) * X.size

    def test_holds_rows_of_one_scale_and_height_at_once(self, rng):
        # an untraced call gathers each level in the loop that pools it:
        # 4 heights peak at 1.44x one height's memory, 2.11x when every
        # (height, camera) pair's levels are gathered before pooling
        grid = BevGrid((-54.0, 54.0), (-54.0, 54.0), (-5.0, 3.0), (48, 48))
        scene = make_scene(SceneConfig(grid, channels=8), seed=0)
        lidar = rasterize_lidar_bev(scene, grid)
        pyramids = render_camera_features(scene, (4, 8))
        peaks = []
        for n_h in (1, 4):
            params = VtParams(
                height_gen=LinearMap(rng.normal(0, 0.3, (n_h, 8)),
                                     np.zeros(n_h)),
                weight_gen=LinearMap(rng.normal(0, 0.3, (2 * n_h, 8)),
                                     np.zeros(2 * n_h)),
                kernel_gen=zero_linear(64, 8), fuse=zero_linear(8, 16))
            with tracemalloc_peak() as mem:
                adaptive_sample(params, lidar, pyramids, scene.cameras, grid)
            peaks.append(mem.peak)
        assert peaks[1] < 1.8 * peaks[0]

    def test_traced_tape_keeps_one_map_per_scale_and_height(self, rng):
        # a traced call's tape holds, per (scale, height) term, the camera
        # sum and each camera's gather vjp state, beside the projections:
        # 5.6 [N, C] maps per term at C = 32, and 9.6 when every term kept
        # its gathered rows and four dense [N, C] maps
        grid = BevGrid((-54.0, 54.0), (-54.0, 54.0), (-5.0, 3.0), (48, 48))
        scene = make_scene(SceneConfig(grid, channels=32), seed=0)
        lidar = rasterize_lidar_bev(scene, grid)
        pyramids = render_camera_features(scene, (4, 8))
        params = ad.lift_tree(VtParams(
            height_gen=LinearMap(rng.normal(0, 0.3, (4, 32)), np.zeros(4)),
            weight_gen=LinearMap(rng.normal(0, 0.3, (8, 32)), np.zeros(8)),
            kernel_gen=zero_linear(32 * 32, 32),
            fuse=zero_linear(32, 64)))[0]
        with tracemalloc_peak() as mem:
            out = adaptive_sample(params, lidar, pyramids, scene.cameras, grid)
        assert isinstance(out.bev, ad.Var)
        assert mem.retained < 7 * 8 * (48 * 48 * 32 * 8)


class TestAdaptiveSample:
    def test_constant_features_pass_through(self, rng):
        # every sampled feature equals f -> any convex pooling returns f
        params, lidar, pyramids, cams, grid = full_view_instance(rng)
        f = np.array([1.5, -2.0, 0.25])
        const_levels = tuple((s, np.tile(f[:, None, None], (1,) + m.shape[1:]))
                             for s, m in pyramids[0].levels)
        out = adaptive_sample(params, lidar, [FeaturePyramid(const_levels)],
                              cams, grid)
        assert np.all(out.validity_fraction == 1.0)
        assert np.allclose(np.moveaxis(val(out.bev), 0, -1), f, atol=1e-12)

    def test_one_hot_saturation_selects_single_sample(self, rng):
        params, lidar, pyramids, cams, grid = full_view_instance(rng, n_h=2, n_s=2)
        j_star, i_star = 1, 0
        bias = np.zeros(4)
        bias[j_star * 2 + i_star] = 50.0  # logit gap 50 forces one-hot
        params = dataclasses.replace(
            params, weight_gen=LinearMap(np.zeros((4, 3)), bias))
        out = adaptive_sample(params, lidar, pyramids, cams, grid)

        # reference: sample (j*, i*) directly with scalar primitives
        H = grid.height
        stride, fmap = pyramids[0].levels[j_star]
        for v in range(H):
            for u in range(H):
                X, Y = cell_to_world(grid, u, v)
                z = out.per_cell_heights[v * grid.width + u, i_star]
                x, y, ok = project_to_image(cams[0], (X, Y, z))
                assert ok
                ref, okb = bilinear_sample(fmap, (x / stride, y / stride))
                assert okb
                assert np.allclose(val(out.bev)[:, v, u], ref, atol=1e-9)

    def test_camera_permutation_equivariance(self, rng):
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=4, H=8, n_cams=2)
        a = val(adaptive_sample(params, lidar, pyramids, cams, grid).bev)
        b = val(adaptive_sample(params, lidar, pyramids[::-1], cams[::-1],
                                grid).bev)
        assert np.allclose(a, b, atol=1e-12)

    def test_mismatched_cameras_rejected(self, rng):
        params, lidar, pyramids, cams, grid = random_vt_instance(rng, C=4, H=8)
        with pytest.raises(ValueError):
            adaptive_sample(params, lidar, pyramids, cams[:1], grid)

    @pytest.mark.parametrize("fault, match", [
        ("strides", "share the pyramid strides"),
        ("levels", "level count must equal n_scales"),
        ("channels", "channels must match the generators")])
    def test_mismatched_pyramids_rejected(self, rng, fault, match):
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=4, H=8, n_s=2)
        levels = [p.levels for p in pyramids]
        if fault == "strides":  # the second camera's at twice the strides
            levels[1] = tuple((2 * s, m) for s, m in levels[1])
        elif fault == "levels":  # one level of two scales
            levels = [lv[:1] for lv in levels]
        else:  # 3 of the generators' 4 channels
            levels = [tuple((s, m[:3]) for s, m in lv) for lv in levels]
        with pytest.raises(ValueError, match=match):
            adaptive_sample(params, lidar,
                            [FeaturePyramid(lv) for lv in levels], cams, grid)


class TestAdaptiveProject:
    def make_params(self, C, kernel_gen):
        return VtParams(height_gen=zero_linear(1, C),
                        weight_gen=zero_linear(1, C),
                        kernel_gen=kernel_gen, fuse=zero_linear(C, 2 * C))

    def test_identity_kernel(self, rng):
        C = 3
        p = self.make_params(C, LinearMap(np.zeros((C * C, C)),
                                          np.eye(C).ravel()))
        bev = rng.normal(size=(C, 4, 4))
        out = adaptive_project(p, bev, rng.normal(size=(C, 4, 4)))
        assert np.array_equal(val(out), bev)

    def test_zero_kernel(self, rng):
        C = 3
        p = self.make_params(C, zero_linear(C * C, C))
        out = adaptive_project(p, rng.normal(size=(C, 4, 4)),
                               rng.normal(size=(C, 4, 4)))
        assert np.all(val(out) == 0)

    def test_hand_swap_kernel(self):
        C = 2
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = self.make_params(C, LinearMap(np.zeros((4, 2)), swap.ravel()))
        bev = np.zeros((2, 1, 1))
        bev[:, 0, 0] = [1.0, 2.0]
        out = val(adaptive_project(p, bev, np.zeros((2, 1, 1))))
        # row-vector times matrix: [1, 2] x [[0, 1], [1, 0]] = [2, 1]
        assert np.allclose(out[:, 0, 0], [2.0, 1.0])

    @pytest.mark.parametrize("C, H, rows",
                             [(4, 6, 7), (32, 40, 64), (32, 40, None)])
    def test_equals_the_dense_chain_bit_for_bit(self, rng, monkeypatch,
                                                C, H, rows):
        # rows per block: 7 splits 36 cells as 4 x 7 + 8 (the one-row tail
        # joins the last block) and d(K) into 4-column blocks; 64 splits
        # 1,600 cells as 25 x 64 and d(K) into blocks of one kernel row (32
        # columns), as a DEFAULTS fit does; None keeps the budget, which
        # splits the cells as 1,024 + 576 and d(K) as 640 + 384 columns
        if rows is not None:
            monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * C * C * rows)
        p = self.make_params(C, LinearMap(rng.normal(size=(C * C, C)),
                                          rng.normal(size=C * C)))
        bev, lidar = rng.normal(size=(2, C, H, H))
        w = rng.normal(size=(C, H, H))
        results = []
        for project in (adaptive_project, dense_adaptive_project):
            lifted = ad.lift_tree((p, bev, lidar))[0]
            out = project(*lifted)
            ad.sum_(ad.mul(out, w)).backward()
            kernel_gen = lifted[0].kernel_gen
            results.append({"out": out.data, "d_bev": lifted[1].grad,
                            "d_kernel_b": kernel_gen.bias.grad,
                            "d_kernel_w": kernel_gen.weight.grad,
                            "d_lidar": lifted[2].grad})
        # d(lidar) adds up d(K) @ w over blocks of kernel rows, so only it
        # may differ in the last bits
        fast, dense = results
        for name in fast:
            if name == "d_lidar":
                assert np.max(np.abs(fast[name] - dense[name])) < 1e-12, name
            else:
                assert np.array_equal(fast[name], dense[name]), name

    def test_shape_mismatch(self, rng):
        p = self.make_params(2, zero_linear(4, 2))
        with pytest.raises(ValueError):
            adaptive_project(p, rng.normal(size=(2, 4, 4)),
                             rng.normal(size=(2, 5, 4)))


class TestFuseBev:
    def make_params(self, C, fuse):
        return VtParams(height_gen=zero_linear(1, C),
                        weight_gen=zero_linear(1, C),
                        kernel_gen=zero_linear(C * C, C), fuse=fuse)

    def test_select_camera(self, rng):
        C = 3
        w = np.concatenate([np.eye(C), np.zeros((C, C))], axis=1)
        p = self.make_params(C, LinearMap(w, np.zeros(C)))
        cam = rng.normal(size=(C, 4, 4))
        out = fuse_bev(p, cam, rng.normal(size=(C, 4, 4)))
        assert np.allclose(val(out), cam, atol=1e-15)

    def test_select_lidar(self, rng):
        C = 3
        w = np.concatenate([np.zeros((C, C)), np.eye(C)], axis=1)
        p = self.make_params(C, LinearMap(w, np.zeros(C)))
        lidar = rng.normal(size=(C, 4, 4))
        out = fuse_bev(p, rng.normal(size=(C, 4, 4)), lidar)
        assert np.allclose(val(out), lidar, atol=1e-15)

    def test_hand_average(self):
        p = self.make_params(1, LinearMap(np.array([[0.5, 0.5]]), np.zeros(1)))
        cam = np.full((1, 1, 1), 2.0)
        lidar = np.full((1, 1, 1), 4.0)
        assert val(fuse_bev(p, cam, lidar))[0, 0, 0] == 3.0

    def test_shape_mismatch(self, rng):
        p = self.make_params(2, zero_linear(2, 4))
        with pytest.raises(ValueError, match="shapes must agree"):
            fuse_bev(p, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 5, 4)))


class TestVanilla:
    def test_degenerate_equals_plain_sampling(self, rng):
        # one height: the z-range's midpoint, 0
        params, lidar, pyramids, cams, grid = full_view_instance(
            rng, n_h=1, n_s=1)
        out = val(vanilla_vt_output(pyramids, cams, grid, 1).bev)
        stride, fmap = pyramids[0].levels[0]
        for v in range(grid.height):
            for u in range(grid.width):
                X, Y = cell_to_world(grid, u, v)
                x, y, ok = project_to_image(cams[0], (X, Y, 0.0))
                assert ok
                ref, _ = bilinear_sample(fmap, (x / stride, y / stride))
                assert np.allclose(out[:, v, u], ref, atol=1e-12)

    def test_equals_adaptive_with_tuned_generators(self, rng):
        params, lidar, pyramids, cams, grid = full_view_instance(rng, n_h=2, n_s=2)
        fixed = np.array([-1.0, 1.0])  # the bin centers of z in [-2, 2]
        # tanh inverse puts the height generator exactly on the fixed heights
        half = grid.z_span / 2
        mid = 0.5 * (grid.z_range[0] + grid.z_range[1])
        bias = np.arctanh((fixed - mid) / half)
        tuned = dataclasses.replace(
            params,
            height_gen=LinearMap(np.zeros((2, 3)), bias),
            weight_gen=zero_linear(4, 3))
        a = val(adaptive_sample(tuned, lidar, pyramids, cams, grid).bev)
        b = val(vanilla_vt_output(pyramids, cams, grid, 2).bev)
        assert np.allclose(a, b, atol=1e-12)


class TestSmearOrdering:
    def test_adaptive_with_true_heights_beats_vanilla(self):
        grid = BevGrid((-16.0, 16.0), (-16.0, 16.0), (-5.0, 3.0), (32, 32))
        cfg = SceneConfig(grid=grid, channels=6, n_boxes=1, image_size=(64, 64),
                          n_cameras=6, fixed_dims=(4.0, 2.0, 1.6))
        scene = make_scene(cfg, seed=3)
        pyramids = render_camera_features(scene, (2, 4))
        z_true = scene.boxes[0].center[2]

        # heights pinned to the true object height via the generator bias
        half = grid.z_span / 2
        mid = 0.5 * (grid.z_range[0] + grid.z_range[1])
        bias = np.full(4, np.arctanh((z_true - mid) / half))
        params = VtParams(
            height_gen=LinearMap(np.zeros((4, 6)), bias),
            weight_gen=zero_linear(8, 6),
            kernel_gen=zero_linear(36, 6), fuse=zero_linear(6, 12))
        lidar = rasterize_lidar_bev(scene, grid)
        adaptive = val(adaptive_sample(params, lidar, pyramids,
                                       scene.cameras, grid).bev)
        vanilla = val(vanilla_vt_output(pyramids, scene.cameras, grid, 4).bev)
        m_a = ray_smear_metric(adaptive, scene, grid)
        m_v = ray_smear_metric(vanilla, scene, grid)
        assert m_a > m_v


class TestGradients:
    def test_weight_and_kernel_paths(self, rng):
        params, lidar, pyramids, cams, grid = random_vt_instance(
            rng, C=4, H=6, n_h=2, n_s=2)

        def loss(t):
            p = dataclasses.replace(
                params,
                weight_gen=LinearMap(t["ww"], t["wb"]),
                kernel_gen=LinearMap(t["kw"], val(params.kernel_gen.bias)),
                height_gen=LinearMap(t["hw"], val(params.height_gen.bias)))
            out = adaptive_sample(p, lidar, pyramids, cams, grid)
            refined = adaptive_project(p, out.bev, lidar)
            return ad.sum_(refined)

        gradcheck(loss, {
            "ww": val(params.weight_gen.weight),
            "wb": val(params.weight_gen.bias),
            "kw": val(params.kernel_gen.weight),
            "hw": val(params.height_gen.weight),
        })
