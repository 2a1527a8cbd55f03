"""Core numeric kernels: frozen examples, invariants, and the
finite-difference oracle itself."""

import math

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab.autodiff import layer_norm, relu, softmax
from bevlab.tensor import LinearMap, as_tensor, linear_apply
from bevlab.verify import (bilinear_sample, finite_diff_grad, gradcheck,
                           sinusoidal_encode)


class TestAsTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            as_tensor([np.inf])

    def test_frozen(self):
        t = as_tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t[0] = 5.0


class TestLinearApply:
    def test_identity_map(self):
        m = LinearMap(np.eye(2), np.zeros(2))
        assert np.allclose(linear_apply(m, [[3.0, 4.0]]), [[3.0, 4.0]])

    def test_hand_case(self):
        m = LinearMap(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert np.allclose(linear_apply(m, [[2.0, 3.0]]), [[6.0]])

    def test_zero_weight_gives_bias(self):
        m = LinearMap(np.zeros((1, 3)), np.array([5.0]))
        assert np.allclose(linear_apply(m, [[9.0, -2.0, 7.0]]), [[5.0]])

    def test_batched(self, rng):
        m = LinearMap(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        out = linear_apply(m, x)
        for i in range(5):
            assert np.allclose(out[i], m.weight @ x[i] + m.bias)

    def test_dimension_mismatch(self):
        m = LinearMap(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            linear_apply(m, [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            linear_apply(m, [1.0, 2.0])

    def test_inconsistent_map_rejected(self):
        with pytest.raises(ValueError):
            LinearMap(np.zeros((2, 2)), np.zeros(3))


class TestSoftmax:
    def test_constant_vector(self):
        assert np.allclose(softmax([3.7] * 4), [0.25] * 4, atol=1e-15)

    def test_closed_form(self):
        assert np.allclose(softmax([0.0, math.log(2.0)]), [1 / 3, 2 / 3],
                           atol=1e-12)

    def test_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] > 1.0 - 1e-12


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        assert np.allclose(layer_norm([4.0, 4.0, 4.0]), 0.0)

    def test_two_point_case(self):
        # mean 1, population std 1: output is +-1 up to the epsilon guard
        assert np.allclose(layer_norm([0.0, 2.0]), [-1.0, 1.0], atol=1e-4)

    def test_idempotent(self, rng):
        v = rng.normal(size=16) * 3
        once = layer_norm(v)
        assert np.allclose(layer_norm(once), once, atol=1e-9)


class TestRelu:
    def test_examples(self):
        assert np.allclose(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])
        assert np.allclose(relu([-3.0, -0.1]), 0.0)

    def test_idempotent(self, rng):
        v = rng.normal(size=32)
        assert np.array_equal(relu(relu(v)), relu(v))


class TestBilinearSample:
    def test_lattice_exact(self, rng):
        fmap = rng.normal(size=(3, 4, 5))
        for y in range(4):
            for x in range(5):
                out, ok = bilinear_sample(fmap, (x, y))
                assert ok
                assert np.array_equal(out, fmap[:, y, x])

    def test_center_of_2x2(self):
        fmap = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        out, ok = bilinear_sample(fmap, (0.5, 0.5))
        assert ok and np.allclose(out, 1.5)

    def test_out_of_bounds_zero_invalid(self):
        fmap = np.ones((2, 3, 3))
        out, ok = bilinear_sample(fmap, (-10.0, -10.0))
        assert not ok and np.all(out == 0)

    def test_linear_along_grid_segments(self, rng):
        fmap = rng.normal(size=(2, 5, 5))
        for _ in range(100):
            y = int(rng.integers(0, 5))
            x0 = int(rng.integers(0, 4))
            t = rng.uniform()
            out, ok = bilinear_sample(fmap, (x0 + t, y))
            expect = (1 - t) * fmap[:, y, x0] + t * fmap[:, y, x0 + 1]
            assert ok and np.allclose(out, expect, atol=1e-12)


class TestSinusoidalEncode:
    def test_zero_point(self):
        out = sinusoidal_encode((0.0, 0.0), 8)
        assert np.allclose(out[0::2], 0.0)
        assert np.allclose(out[1::2], 1.0)

    def test_axis_swap(self, rng):
        x, y = rng.uniform(size=2)
        a = sinusoidal_encode((x, y), 16)
        b = sinusoidal_encode((y, x), 16)
        assert np.allclose(a[:8], b[8:]) and np.allclose(a[8:], b[:8])

    def test_direct_formula_dim8(self):
        out = sinusoidal_encode((0.5, 0.5), 8)
        # per axis: frequencies 10000^(-2k/4) for k = 0, 1
        w0, w1 = 1.0, 10000.0 ** (-0.5)
        block = [math.sin(0.5 * w0), math.cos(0.5 * w0),
                 math.sin(0.5 * w1), math.cos(0.5 * w1)]
        assert np.allclose(out, block + block, atol=1e-15)

    def test_bounded(self, rng):
        for _ in range(20):
            out = sinusoidal_encode(rng.uniform(size=2), 32)
            assert np.all(np.abs(out) <= 1.0)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_encode((0.1, 0.2), 7)
        with pytest.raises(ValueError):
            sinusoidal_encode((0.1, 0.2), 6)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(np.sum(x ** 2)), np.array([3.0]))
        assert np.allclose(g, [6.0], atol=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.5, np.ones(4))
        assert np.all(g == 0)

    def test_linear_recovers_weights(self, rng):
        w = rng.normal(size=5)
        g = finite_diff_grad(lambda x: float(w @ x), rng.normal(size=5))
        assert np.allclose(g, w, atol=1e-8)

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            finite_diff_grad(lambda x: float(np.log(x[0])), np.array([-1.0]))

    def test_gradcheck_array_the_loss_never_reads(self, rng):
        with pytest.raises(AssertionError, match="no gradient reached b"):
            gradcheck(lambda t: ad.sum_(ad.mul(t["a"], t["a"])),
                      {"a": rng.normal(size=3), "b": rng.normal(size=2)})

    def test_gradcheck_tree_leaf_read_through_val(self, rng):
        lin = LinearMap(rng.normal(size=(2, 3)), rng.normal(size=2))

        def loss(t):
            detached = LinearMap(t["lin"].weight, ad.val(t["lin"].bias))
            return ad.sum_(ad.mul(linear_apply(detached, t["x"]), 0.5))

        with pytest.raises(AssertionError,
                           match=r"lin\.bias: gradient rel err"):
            gradcheck(loss, {"lin": lin, "x": rng.normal(size=(4, 3))})

    def test_gradcheck_probes_an_ignored_tree_leaf_once(self, rng):
        calls = []

        def loss(t):
            calls.append(None)
            return ad.sum_(ad.mul(t["x"], t["x"]))

        lin = LinearMap(rng.normal(size=(2, 3)), rng.normal(size=2))
        gradcheck(loss, {"x": rng.normal(size=4), "lin": lin})
        # the taped build, two per element of x, one per leaf of lin
        assert len(calls) == 1 + 2 * 4 + 2
