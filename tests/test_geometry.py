"""Projection geometry and grid/world coordinate mapping."""

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab.geometry import (BevGrid, CameraModel, FeaturePyramid,
                             project_heights, project_to_image, world_to_cell)
from bevlab.scene_sim import camera_ring
from bevlab.verify import cell_to_world, pitch_camera
from helpers import gradcheck


def make_camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, R=None, t=None,
                size=(100, 100)):
    K = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    R = np.eye(3) if R is None else R
    t = np.zeros(3) if t is None else t
    return CameraModel(K, R, t, size)


DEFAULT_GRID = BevGrid((-54.0, 54.0), (-54.0, 54.0), (-5.0, 3.0), (180, 180))


class TestGrid:
    def test_center_cell(self):
        assert np.allclose(cell_to_world(DEFAULT_GRID, 90, 90), (0.3, 0.3))

    def test_first_cell(self):
        assert np.allclose(cell_to_world(DEFAULT_GRID, 0, 0), (-53.7, -53.7))

    def test_world_to_cell_inverse_example(self):
        assert np.allclose(world_to_cell(DEFAULT_GRID, 0.3, 0.3), (90.0, 90.0))

    def test_boundary_convention(self):
        u, _ = world_to_cell(DEFAULT_GRID, DEFAULT_GRID.x_range[0], 0.0)
        assert u == -0.5

    def test_round_trip_all_cells(self):
        for u in range(0, 180, 7):
            for v in range(0, 180, 7):
                X, Y = cell_to_world(DEFAULT_GRID, u, v)
                uu, vv = world_to_cell(DEFAULT_GRID, X, Y)
                assert abs(uu - u) < 1e-12 and abs(vv - v) < 1e-12

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(IndexError):
            cell_to_world(DEFAULT_GRID, 180, 0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            BevGrid((1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (4, 4))
        with pytest.raises(ValueError):
            BevGrid((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (0, 4))


class TestCameraModel:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_camera(fx=-1.0)
        bad_R = np.eye(3)
        bad_R = bad_R + 0.01
        with pytest.raises(ValueError):
            make_camera(R=bad_R)
        with pytest.raises(ValueError):
            make_camera(size=(0, 10))

    def test_optical_axis(self):
        x, y, ok = project_to_image(make_camera(), (0.0, 0.0, 10.0))
        assert ok and (x, y) == (50.0, 50.0)

    def test_pinhole_formula(self):
        x, y, ok = project_to_image(make_camera(), (1.0, 0.0, 10.0))
        assert ok and np.allclose((x, y), (60.0, 50.0))

    def test_behind_camera_invalid(self):
        _, _, ok = project_to_image(make_camera(), (0.0, 0.0, -5.0))
        assert not ok

    def test_outside_bounds_invalid(self):
        _, _, ok = project_to_image(make_camera(), (20.0, 0.0, 10.0))
        assert not ok

    def test_optical_axis_any_focal(self, rng):
        for _ in range(10):
            fx, fy = rng.uniform(10, 500, size=2)
            cam = make_camera(fx=fx, fy=fy)
            x, y, ok = project_to_image(cam, (0.0, 0.0, rng.uniform(1, 50)))
            assert ok and np.allclose((x, y), (cam.cx, cam.cy))

    def test_rigid_equivariance(self, rng):
        # moving the world point and the camera by the same rigid transform
        # leaves the pixel unchanged
        for _ in range(100):
            cam = make_camera()
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(5, 20)])
            angle = rng.uniform(-np.pi, np.pi)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            K_ = np.array([[0, -axis[2], axis[1]],
                           [axis[2], 0, -axis[0]],
                           [-axis[1], axis[0], 0]])
            Q = np.eye(3) + np.sin(angle) * K_ + (1 - np.cos(angle)) * K_ @ K_
            d = rng.normal(size=3)
            cam2 = CameraModel(cam.intrinsics, cam.rotation @ Q.T,
                               cam.translation - cam.rotation @ Q.T @ d,
                               cam.image_size)
            x1, y1, ok1 = project_to_image(cam, p)
            x2, y2, ok2 = project_to_image(cam2, Q @ p + d)
            assert ok1 == ok2
            if ok1:
                assert abs(x1 - x2) < 1e-9 and abs(y1 - y2) < 1e-9

    def test_vectorized_matches_scalar(self, rng):
        cam = make_camera(R=np.array([[0.0, 1.0, 0.0],
                                      [0.0, 0.0, -1.0],
                                      [1.0, 0.0, 0.0]]).T @ np.eye(3),
                          t=rng.normal(size=3) * 0.1)
        X = rng.uniform(-3, 3, size=40)
        Y = rng.uniform(-3, 3, size=40)
        Z = rng.uniform(-3, 30, size=40)
        xs, ys, ok = project_heights(cam, X, Y, Z)
        for i in range(40):
            x1, y1, ok1 = project_to_image(cam, (X[i], Y[i], Z[i]))
            assert ok[i] == ok1
            if ok1:
                assert abs(xs[i] - x1) < 1e-12 and abs(ys[i] - y1) < 1e-12

    def test_level_camera_traces_only_the_height_row(self, rng):
        # a ring camera's rows right and forward have no Z term: its pixel
        # x is a plain array, and traced heights change no value
        cam = camera_ring(6, (64, 64), 70.0, 1.8)[1]
        X, Y = rng.uniform(-6, 6, size=(2, 200))
        Z = rng.uniform(-3, 3, size=200)
        x, y, ok = project_heights(cam, X, Y, ad.Var(Z))
        x0, y0, ok0 = project_heights(cam, X, Y, Z)
        assert not isinstance(x, ad.Var) and isinstance(y, ad.Var)
        assert ok.any() and np.array_equal(ok, ok0)
        assert np.array_equal(x, x0) and np.array_equal(y.data, y0)

    def test_pitched_camera_traces_x(self, rng):
        cam = pitch_camera(camera_ring(6, (64, 64), 70.0, 1.8)[1], 5.0)
        X, Y = rng.uniform(-6, 6, size=(2, 200))
        Z = rng.uniform(-3, 3, size=200)
        _, _, ok = project_heights(cam, X, Y, Z)
        assert ok.sum() > 20
        X, Y, Z = X[ok], Y[ok], Z[ok]
        x, y, _ = project_heights(cam, X, Y, ad.Var(Z))
        assert isinstance(x, ad.Var) and isinstance(y, ad.Var)
        wx, wy = rng.normal(size=(2, Z.size))

        def loss(t):
            x, y, _ = project_heights(cam, X, Y, t["Z"])
            return ad.add(ad.sum_(ad.mul(x, wx)), ad.sum_(ad.mul(y, wy)))

        gradcheck(loss, {"Z": Z})


class TestFeaturePyramid:
    def test_strides_must_increase(self):
        with pytest.raises(ValueError):
            FeaturePyramid(((4, np.zeros((2, 8, 8))), (4, np.zeros((2, 8, 8)))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeaturePyramid(((1, np.zeros((2, 8, 8))), (2, np.zeros((3, 4, 4)))))
