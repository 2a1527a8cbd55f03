"""Gradient checks for every tape op against central finite differences."""

import numpy as np
import pytest

from bevlab import autodiff as ad
from helpers import gradcheck, tracemalloc_peak


def test_add_mul_broadcast_grads(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    gradcheck(lambda t: ad.sum_(ad.mul(ad.add(t["a"], t["b"]), t["a"])),
              {"a": a, "b": b})


def test_div_sub_grads(rng):
    a = rng.normal(size=(5,)) + 3.0
    b = rng.normal(size=(5,)) + 3.0
    gradcheck(lambda t: ad.sum_(ad.div(ad.sub(t["a"], 1.5), t["b"])),
              {"a": a, "b": b})


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3, 4), (4, 2)),
    ((1, 4), (4, 3)),  # a vector as a [1, n] row
    ((3, 4), (4, 1)),  # a vector as an [n, 1] column
    ((2, 3, 4), (2, 4, 5)),
])
def test_matmul_grads(rng, shape_a, shape_b):
    a = rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    gradcheck(lambda t: ad.sum_(ad.mul(ad.matmul(t["a"], t["b"]), 0.7)),
              {"a": a, "b": b})


def test_matmul_rejects_unsupported_ranks(rng):
    with pytest.raises(ValueError):
        ad.matmul(ad.Var(rng.normal(size=(2, 2, 2))),
                  rng.normal(size=(2, 2)))
    with pytest.raises(ValueError):  # vectors go in as [1, n] rows
        ad.matmul(rng.normal(size=4), rng.normal(size=(4, 3)))


@pytest.mark.parametrize("fn,offset", [
    (ad.log, 3.0), (ad.tanh, 0.0),
    (ad.sigmoid, 0.0), (ad.sin, 0.0), (ad.cos, 0.0), (ad.absolute, 2.0),
])
def test_unary_grads(rng, fn, offset):
    x = rng.normal(size=(4, 3)) * 0.5 + offset
    gradcheck(lambda t: ad.sum_(fn(t["x"])), {"x": x})


def test_relu_grad_away_from_kink(rng):
    x = rng.normal(size=(20,))
    x[np.abs(x) < 0.05] = 0.1  # keep the finite difference off the kink
    gradcheck(lambda t: ad.sum_(ad.relu(t["x"])), {"x": x})


def test_power_grads(rng):
    x = rng.normal(size=(6,)) + 2.0
    gradcheck(lambda t: ad.sum_(ad.power(t["x"], 3)), {"x": x})
    gradcheck(lambda t: ad.sum_(ad.power(t["x"], 0.5)), {"x": x})


def test_clip_grad_inside_only():
    v = ad.Var(np.array([-2.0, 0.5, 2.0]))
    out = ad.sum_(ad.clip(v, -1.0, 1.0))
    out.backward()
    assert np.allclose(v.grad, [0.0, 1.0, 0.0])


def test_where_mask_grads(rng):
    a = rng.normal(size=(6,))
    b = rng.normal(size=(6,))
    m = np.array([True, False, True, True, False, False])
    gradcheck(lambda t: ad.sum_(ad.mul(ad.where_mask(m, t["a"], t["b"]), 2.0)),
              {"a": a, "b": b})


def test_sum_mean_axis_grads(rng):
    x = rng.normal(size=(3, 4, 2))
    gradcheck(lambda t: ad.sum_(ad.mul(ad.sum_(t["x"], axis=1), 0.3)), {"x": x})
    gradcheck(lambda t: ad.mean(t["x"]), {"x": x})


def test_reshape_transpose_grads(rng):
    x = rng.normal(size=(2, 3, 4))
    gradcheck(lambda t: ad.sum_(
        ad.mul(ad.transpose(ad.reshape(t["x"], (6, 4)), (1, 0)),
               np.arange(24.0).reshape(4, 6))), {"x": x})


def test_concat_stack_grads(rng):
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 5))
    gradcheck(lambda t: ad.sum_(ad.mul(ad.concat([t["a"], t["b"]], axis=1),
                                       np.arange(21.0).reshape(3, 7))),
              {"a": a, "b": b})
    c = rng.normal(size=(4,))
    d = rng.normal(size=(4,))
    gradcheck(lambda t: ad.sum_(ad.mul(ad.stack([t["c"], t["d"]], axis=1),
                                       np.arange(8.0).reshape(4, 2))),
              {"c": c, "d": d})


def test_getitem_grads(rng):
    x = rng.normal(size=(5, 4))
    idx = np.array([0, 2, 2, 4])  # repeated index exercises scatter-add
    gradcheck(lambda t: ad.sum_(ad.mul(ad.getitem(t["x"], (idx,)),
                                       np.arange(16.0).reshape(4, 4))),
              {"x": x})
    gradcheck(lambda t: ad.sum_(ad.getitem(t["x"], (slice(None), 1))), {"x": x})


def test_softmax_grad_and_rows(rng):
    x = rng.normal(size=(4, 6)) * 3
    gradcheck(lambda t: ad.sum_(ad.mul(ad.softmax(t["x"]),
                                       np.arange(24.0).reshape(4, 6))),
              {"x": x})
    y = ad.softmax(x)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_memory_is_bounded_by_its_blocks(rng):
    # the dense [2, 256, 20000] float64 scores alone would take 82 MB, and a
    # block holds at most the budget; the [8, 300, 300] scores of a 300-query
    # self-attention take 5.8 MB, and a block holds one head's 0.7 MB. Past
    # the budget the op copies one head's k and v at a time, as [kᵀ ; 1] and
    # [v | 1], also from the transposed views that `_mha` passes: at
    # [8, 128, 20000], contiguous copies of all heads would add 10 MB
    for h, nq, nk, block, strided in (
            (2, 256, 20000, ad._BLOCK_BYTES, False),
            (8, 300, 300, 8 * 300 * 300, False),
            (8, 128, 20000, ad._BLOCK_BYTES, True)):
        dh = 4
        q = rng.normal(size=(h, nq, dh))
        if strided:
            k, v = (rng.normal(size=(nk, h * dh)).reshape(nk, h, dh)
                    .transpose(1, 0, 2) for _ in range(2))
        else:
            k, v = (rng.normal(size=(h, nk, dh)) for _ in range(2))
        copies = 2 * 8 * nk * (dh + 1)
        io_bytes = q.nbytes + k.nbytes + v.nbytes + q.nbytes
        dense = 8 * h * nq * nk
        with tracemalloc_peak() as forward:
            ad.attention(q, k, v)
        qv, kv, vv = (ad.Var(x) for x in (q, k, v))
        out = ad.attention(qv, kv, vv)
        with tracemalloc_peak() as backward:
            out._vjp(np.ones(out.data.shape))
        # besides a block and one head's copies, the forward holds its
        # output, each row's shift and sum, and a block's [rows, dh + 1]
        # products
        assert forward.peak < block + copies + 4 * q.nbytes < dense / 5
        # the vjp holds a block of probabilities, one of their gradients
        # and, while it takes their row sums, one of their products; it
        # builds gradients as large as the inputs
        assert backward.peak < 3 * block + 2 * io_bytes < dense / 2


def test_attention_in_one_block_is_the_dense_softmax_bit_for_bit(rng):
    # a 300-query model's self-attention, one head per block, with all
    # heads' scores within the budget: fitting it must follow the same
    # trajectory as the dense path, forward and backward
    h, n, dh = 8, 300, 4
    assert 8 * h * n * n <= ad._BLOCK_BYTES
    base = [rng.normal(size=(n, h * dh)).reshape(n, h, dh).transpose(1, 0, 2)
            for _ in range(3)]
    w = rng.normal(size=(h, n, dh))
    results = []
    for blocked in (True, False):
        q, k, v = (ad.Var(x) for x in base)
        qs = ad.mul(q, 0.5)
        if blocked:
            out = ad.attention(qs, k, v)
        else:
            scores = ad.matmul(qs, ad.transpose(k, (0, 2, 1)))
            out = ad.matmul(ad.softmax(scores), v)
        ad.sum_(ad.mul(out, w)).backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def _attention_and_grads(base, w, dense=False):
    """Output and q, k, v gradients of sum(attention(q, k, v) * w), by
    ``ad.attention`` or by the dense composition softmax(q kᵀ) v."""
    q, k, v = (ad.Var(x) for x in base)
    if dense:
        scores = ad.matmul(q, ad.transpose(k, (0, 2, 1)))
        out = ad.matmul(ad.softmax(scores), v)
    else:
        out = ad.attention(q, k, v)
    ad.sum_(ad.mul(out, w)).backward()
    return [out.data, q.grad, k.grad, v.grad]


def test_attention_in_row_blocks_is_the_dense_softmax(rng, monkeypatch):
    # per head, 40 query rows over 600 keys in blocks of 15 (15 + 15 + 10),
    # each block shifted by its rows' score bounds and divided by the sums
    # that its value product carries
    h, nq, nk, dh = 2, 40, 600, 4
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * nk * 15)
    blocks = ad._attention_blocks(h, nq, nk)
    assert len(blocks) == 6 and nq % blocks[0][1].stop
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    w = rng.normal(size=(h, nq, dh))
    for a, b in zip(_attention_and_grads(base, w),
                    _attention_and_grads(base, w, dense=True)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_attention_past_the_shift_limit_is_the_dense_softmax(rng,
                                                             monkeypatch):
    # the same plan with q and k scaled so that every block has a row whose
    # score bound passes the shift limit: each block shifts by its exact
    # row maxes, forward and backward (shifted by their bounds, some rows
    # would underflow to 0 / 0)
    h, nq, nk, dh = 2, 40, 600, 4
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * nk * 15)
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    base[0] *= 30.0
    base[1] *= 30.0
    bounds = (np.linalg.norm(base[0], axis=2, keepdims=True)
              * np.linalg.norm(base[1], axis=2).max(axis=1)[:, None, None])
    assert all(bounds[hs, b].max() > ad._SHIFT_LIMIT
               for hs, b in ad._attention_blocks(h, nq, nk))
    w = rng.normal(size=(h, nq, dh))
    for a, b in zip(_attention_and_grads(base, w),
                    _attention_and_grads(base, w, dense=True)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_attention_block_plans_of_the_default_model():
    # past the budget, the default 900-query self-attention runs one head's
    # 900 rows per block, and the [8, 300, 32,400] cross-attention of
    # `standard` mode one head's 32 rows (9 x 32 + 12)
    assert ad._attention_blocks(8, 900, 900) == [
        (slice(i, i + 1), slice(0, 900)) for i in range(8)]
    assert ad._attention_blocks(8, 300, 32400) == [
        (slice(i, i + 1), slice(lo, min(lo + 32, 300)))
        for i in range(8) for lo in range(0, 300, 32)]


def test_attention_plan_of_a_300_query_self_attention():
    assert ad._attention_blocks(8, 300, 300) == [
        (slice(i, i + 1), slice(0, 300)) for i in range(8)]


@pytest.mark.parametrize("h, nq, nk, rows", [
    (8, 300, 300, None), (8, 900, 900, None), (8, 300, 32400, None),
    (3, 7, 11, 3), (2, 40, 600, 15), (1, 5, 10**7, None)])
def test_attention_plan_covers_each_head_and_row_once(monkeypatch, h, nq, nk,
                                                      rows):
    if rows is not None:
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * nk * rows)
    seen = np.zeros((h, nq), dtype=int)
    for hs, b in ad._attention_blocks(h, nq, nk):
        assert hs.stop - hs.start == 1
        # one head's scores fit the budget, unless one row alone does not
        assert b.stop - b.start == 1 or 8 * (b.stop - b.start) * nk <= (
            ad._BLOCK_BYTES)
        seen[hs, b] += 1
    assert (seen == 1).all()


def test_attention_heads_agree_across_the_block_regimes(rng):
    # each head of an 8-head 900x900 call (past the budget: each block
    # shifted by its rows' score bounds, with the sums in its value
    # product) against its 1-head call (within the budget: the dense
    # softmax's max and division)
    h, n, dh = 8, 900, 4
    assert 8 * n * n <= ad._BLOCK_BYTES < 8 * h * n * n
    base = [rng.normal(size=(h, n, dh)) for _ in range(3)]
    w = rng.normal(size=(h, n, dh))
    whole = _attention_and_grads(base, w)
    for i in range(h):
        one = _attention_and_grads([x[i:i + 1] for x in base], w[i:i + 1])
        for a, b in zip(whole, one):
            assert np.max(np.abs(a[i:i + 1] - b)) < 1e-12


@pytest.mark.parametrize("rows", [None, 3], ids=["one-block", "row-blocks"])
def test_attention_heads_are_independent_bit_for_bit(rng, monkeypatch, rows):
    # each head of a 3-head call against a 1-head call on its slices: with
    # all heads' scores within the budget, and past it in blocks of 3 rows
    # (3 + 3 + 1)
    h, nq, nk, dh = 3, 7, 11, 4
    if rows is not None:
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * nk * rows)
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    w = rng.normal(size=(h, nq, dh))

    def run(head):
        q, k, v = (ad.Var(x[head]) for x in base)
        out = ad.attention(q, k, v)
        ad.sum_(ad.mul(out, w[head])).backward()
        return [out.data, q.grad, k.grad, v.grad]

    whole = run(slice(None))
    for i in range(h):
        for a, b in zip(whole, run(slice(i, i + 1))):
            assert np.array_equal(a[i:i + 1], b)


def test_dynamic_filter_grads(rng, monkeypatch):
    # 5 rows in blocks of 2 as 2 + 3 (the one-row tail joins the block
    # before it); generator inputs narrower than C
    n, c, d = 5, 3, 2
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * c * c * 2)
    w = rng.normal(size=(n, c))
    gradcheck(lambda t: ad.sum_(ad.mul(
        ad.dynamic_filter(t["x"], t["z"], t["w"], t["b"]), w)),
              {"x": rng.normal(size=(n, c)), "z": rng.normal(size=(n, d)),
               "w": rng.normal(size=(c * c, d)), "b": rng.normal(size=c * c)})


def test_dynamic_filter_memory_is_bounded_by_its_blocks(rng):
    # adaptive projection at the default grid: the dense [32400, 1024]
    # kernels take 265 MB, twice over (the product, then the bias added),
    # and so does their gradient d(K)
    n, c = 32400, 32
    x, z = rng.normal(size=(2, n, c))
    w, b = rng.normal(size=(c * c, c)), rng.normal(size=c * c)
    dense = 2 * 8 * n * c * c
    with tracemalloc_peak() as forward:
        ad.dynamic_filter(x, z, w, b)
    # one block of kernels and the output
    assert forward.peak < ad._BLOCK_BYTES + 2 * x.nbytes < dense / 20
    # the generator's gradients, as in a fit (whose LiDAR rows are plain):
    # one block of d(K) columns at a time
    out = ad.dynamic_filter(x, z, ad.Var(w), ad.Var(b))
    g = np.ones(out.data.shape)
    with tracemalloc_peak() as backward:
        out._vjp(g)
    assert backward.peak < ad._BLOCK_BYTES + x.nbytes < dense / 20


def test_layer_norm_grad(rng):
    x = rng.normal(size=(3, 8)) * 2
    gradcheck(lambda t: ad.sum_(ad.mul(ad.layer_norm(t["x"]),
                                       np.arange(24.0).reshape(3, 8))),
              {"x": x})


def test_bilinear_gather_matches_scalar_and_grads(rng):
    from bevlab.verify import bilinear_sample

    fmap = rng.normal(size=(3, 6, 7))
    xs = rng.uniform(0.2, 5.8, size=10)
    ys = rng.uniform(0.2, 4.8, size=10)
    out, valid = ad.bilinear_gather(fmap, xs, ys)
    assert valid.all()
    for i in range(10):
        ref, ok = bilinear_sample(fmap, (xs[i], ys[i]))
        assert ok
        assert np.allclose(out[i], ref, atol=1e-15)

    g = np.arange(30.0).reshape(10, 3)

    def loss(t):
        s, _ = ad.bilinear_gather(t["fmap"], t["xs"], t["ys"])
        return ad.sum_(ad.mul(s, g))

    gradcheck(loss, {"fmap": fmap, "xs": xs, "ys": ys})


def test_bilinear_gather_out_of_bounds_zero():
    fmap = np.ones((2, 4, 4))
    out, valid = ad.bilinear_gather(fmap, np.array([-1.0, 2.0, 5.0]),
                                    np.array([1.0, 1.0, 1.0]))
    assert not valid[0] and valid[1] and not valid[2]
    assert np.all(out[0] == 0) and np.all(out[2] == 0)


def test_bilinear_gather_nan_point_zero():
    # a NaN point (from features that overflowed) is outside every image
    out, valid = ad.bilinear_gather(np.ones((2, 4, 4)),
                                    np.array([np.nan, 2.0, 1.0]),
                                    np.array([1.0, np.nan, 1.0]))
    assert valid.tolist() == [False, False, True]
    assert np.all(out[:2] == 0) and np.all(out[2] == 1)


def _corner_formula(fmap, xs, ys, g):
    """Bilinear samples of fmap at (xs, ys) and the gradients of
    sum(samples * g) for fmap, xs and ys, from the four corner gathers."""
    C, H, W = fmap.shape
    valid = (xs >= 0) & (xs <= W - 1) & (ys >= 0) & (ys <= H - 1)
    xc = np.clip(np.nan_to_num(xs), 0.0, W - 1.0)
    yc = np.clip(np.nan_to_num(ys), 0.0, H - 1.0)
    x0 = np.minimum(np.floor(xc), W - 2).astype(np.intp)
    y0 = np.minimum(np.floor(yc), H - 2).astype(np.intp)
    x1, y1 = x0 + 1, y0 + 1
    fx, fy = xc - x0, yc - y0
    v00, v01 = fmap[:, y0, x0], fmap[:, y0, x1]
    v10, v11 = fmap[:, y1, x0], fmap[:, y1, x1]
    out = (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
           + v10 * (1 - fx) * fy + v11 * fx * fy)
    gv = g * valid[:, None]
    acc = np.zeros((H * W, C))
    np.add.at(acc, y0 * W + x0, gv * ((1 - fx) * (1 - fy))[:, None])
    np.add.at(acc, y0 * W + x1, gv * (fx * (1 - fy))[:, None])
    np.add.at(acc, y1 * W + x0, gv * ((1 - fx) * fy)[:, None])
    np.add.at(acc, y1 * W + x1, gv * (fx * fy)[:, None])
    ddx = (v01 - v00) * (1 - fy) + (v11 - v10) * fy
    ddy = (v10 - v00) * (1 - fx) + (v11 - v01) * fx
    return {"out": (out * valid).T, "fmap": acc.T.reshape(C, H, W),
            "xs": (gv * ddx.T).sum(axis=1), "ys": (gv * ddy.T).sum(axis=1)}


@pytest.mark.parametrize("traced", [("fmap", "xs", "ys"), ("xs", "ys"),
                                    ("ys",), ("fmap",)])
def test_bilinear_gather_keeps_only_corner_differences(rng, traced):
    # 3,000 points on a [16, 12, 10] map. Of the last eight, four lie just
    # outside the box, one past each side, two are NaN, and two sit on its
    # far and near corners
    c, m = 16, 3000
    inputs = {"fmap": rng.normal(size=(c, 12, 10)),
              "xs": rng.uniform(0.0, 9.0, size=m),
              "ys": rng.uniform(0.0, 11.0, size=m)}
    inputs["xs"][-8:] = [-0.5, 9.5, 4.0, 4.0, np.nan, 2.0, 9.0, 0.0]
    inputs["ys"][-8:] = [5.0, 5.0, -1.0, 11.0001, 3.0, np.nan, 11.0, 0.0]
    g = rng.normal(size=(m, c))
    ref = _corner_formula(**inputs, g=g)
    args = {k: ad.Var(v) if k in traced else v
            for k, v in inputs.items()}
    with tracemalloc_peak() as mem:
        out, valid = ad.bilinear_gather(args["fmap"], args["xs"], args["ys"])
    # the output, one [C, M] difference per traced coordinate array, and
    # the per-point corner indices, weights and mask (seven of ≤ 8 bytes)
    n_diffs = len({"xs", "ys"} & set(traced))
    assert mem.retained <= out.data.nbytes + n_diffs * 8 * c * m + 8 * 8 * m
    assert valid.tolist()[-8:] == [False] * 6 + [True] * 2
    assert np.array_equal(out.data, ref["out"])
    ad.sum_(ad.mul(out, g)).backward()
    for name in traced:
        assert np.array_equal(args[name].grad, ref[name]), name


def test_backward_frees_each_inner_gradient(rng):
    # a chain of K tanh over [N, C]: the tape is K outputs, and the reverse
    # pass adds only the gradients it has yet to pass on and the vjps'
    # temporaries, not one gradient per node
    k, n, c = 16, 1000, 32
    x = ad.Var(rng.normal(size=(n, c)))
    with tracemalloc_peak() as mem:
        nodes = [x]
        for _ in range(k):
            nodes.append(ad.tanh(nodes[-1]))
        ad.sum_(nodes[-1]).backward()
    tape = k * x.data.nbytes
    assert mem.peak < tape + 5 * x.data.nbytes
    assert all(node.grad is None for node in nodes[1:])
    expected = np.ones((n, c))
    for node in reversed(nodes[1:]):
        expected = expected * (1.0 - node.data * node.data)
    assert np.array_equal(x.grad, expected)


def test_backward_requires_scalar(rng):
    v = ad.Var(rng.normal(size=(3,)))
    with pytest.raises(ValueError):
        ad.add(v, 1.0).backward()


def test_plain_arrays_stay_plain(rng):
    a = rng.normal(size=(3, 3))
    out = ad.add(ad.matmul(a, a), 1.0)
    assert isinstance(out, np.ndarray)


def test_grad_accumulates_over_reuse(rng):
    v = ad.Var(np.array([2.0]))
    out = ad.sum_(ad.add(ad.mul(v, 3.0), ad.mul(v, v)))
    out.backward()
    assert np.allclose(v.grad, 3.0 + 2 * 2.0)


def test_repeated_backward_resets_grads():
    v = ad.Var(np.array([1.0, 2.0]))
    for _ in range(3):
        out = ad.sum_(ad.mul(v, v))
        out.backward()
    assert np.allclose(v.grad, 2 * v.data)


def test_lift_unlift_roundtrip_and_sgd():
    from bevlab.tensor import LinearMap

    m = LinearMap(np.ones((2, 3)), np.zeros(2))
    lifted, train_vars = ad.lift_tree(m)
    assert len(train_vars) == 2
    out = ad.sum_(ad.matmul(np.ones((1, 3)), ad.transpose(lifted.weight)))
    out.backward()
    ad.sgd_step(train_vars, lr=0.5)
    back = ad.unlift_tree(lifted)
    assert np.allclose(back.weight, 1.0 - 0.5 * 1.0)
    assert all(v.grad is None for v in train_vars)
