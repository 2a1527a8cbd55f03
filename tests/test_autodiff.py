"""Gradient checks for every tape op against central finite differences."""

import contextlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bevlab import autodiff as ad
from bevlab.tensor import LinearMap, linear_apply
from bevlab.verify import block_bytes, gradcheck
from bevlab.view_transform import VtParams, fuse_bev
from helpers import tracemalloc_peak


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


def _operands(k, v):
    """``ad.attention``'s operands [kᵀ ; 1], [v | 1] and largest key norms
    for the keys and values k, v [h, Nk, dh] of each head (Vars or arrays),
    differentiable in both."""
    vk = ad.val(k)
    h, nk, _ = vk.shape
    return (ad.concat([ad.transpose(k, (0, 2, 1)), np.ones((h, 1, nk))],
                      axis=1),
            ad.concat([v, np.ones((h, nk, 1))], axis=2),
            np.sqrt((vk * vk).sum(axis=-1).max(axis=-1)))


def test_attention_memory_is_bounded_by_its_blocks(rng):
    # the dense [2, 256, 20000] float64 scores alone would take 82 MB, and
    # past the budget a tile holds at most the tile budget (0.5 MiB); the
    # [8, 300, 300] scores of a 300-query self-attention take 5.8 MB, within
    # the budget, and a tile holds one head's 0.7 MB. Past the budget the
    # op reads [kᵀ ; 1] and [v | 1] in place, also as `attention_keys`
    # projects them from rows: at [8, 128, 20000], one head's copies of
    # them would add 1.6 MB, all heads' 13 MB; within it, it makes
    # contiguous copies of all heads' k and v
    for h, nq, nk, rows in ((2, 256, 20000, False), (8, 300, 300, False),
                            (8, 128, 20000, True)):
        dh = 4
        q = rng.normal(size=(h, nq, dh))
        if rows:
            x = rng.normal(size=(nk, h * dh))
            w = [rng.normal(size=(h * dh, h * dh)) for _ in range(2)]
            b_v = rng.normal(size=h * dh)

            def operands(lift):
                return ad.attention_keys(x, lift(w[0]), lift(w[1]), b_v, h)
        else:
            k, v = (rng.normal(size=(h, nk, dh)) for _ in range(2))

            def operands(lift):
                return _operands(lift(k), lift(v))
        kt, va, k_norm = operands(np.asarray)
        dense = 8 * h * nq * nk
        copies = 2 * 8 * h * nk * dh if dense <= ad._BLOCK_BYTES else 0
        io_bytes = q.nbytes + kt.nbytes + va.nbytes + q.nbytes
        # the vjp holds a tile of probabilities and one of their gradients,
        # and within the budget also their product while it takes its row
        # sums
        if dense <= ad._BLOCK_BYTES:
            tile, held = dense // h, 3
        else:
            tile, held = ad._TILE_BYTES, 2
        _, row_blocks, keys = ad._attention_blocks(h, nq, nk)
        tiles = h * len(row_blocks) * len(keys)
        with tracemalloc_peak() as forward:
            ad.attention(q, kt, va, k_norm)
        qv = ad.Var(q)
        out = ad.attention(qv, *operands(ad.Var))
        with tracemalloc_peak() as backward:
            out.node.vjp(np.ones(out.data.shape))
        # besides a tile (and within the budget the copies), the forward
        # holds its output, each row's shift and sum, a block's
        # [rows, dh + 1] products, and the plan (under 512 bytes a tile);
        # within the budget a tile is a whole head, an eighth of the scores
        assert (forward.peak < tile + copies + 4 * q.nbytes + 512 * tiles
                < dense / 4)
        # the vjp builds gradients as large as the inputs
        assert backward.peak < held * tile + 2 * io_bytes < dense / 2


def test_attention_keys_hold_no_whole_projection(rng):
    # the keys and values of the default grid's 32,400 cells: each [Nk, C]
    # projection takes 8.3 MB, and the op holds beside its operands only a
    # block of rows of the two and the squares of the keys (3 x 0.5 MiB)
    n, c, h = 32400, 32, 8
    x = rng.normal(size=(c, n)).T  # column-major rows, as `chw_to_cells`
    w_k, w_v = rng.normal(size=(2, c, c))
    b_v = rng.normal(size=c)
    with tracemalloc_peak() as mem:
        kt, v, k_norm = ad.attention_keys(x, w_k, w_v, b_v, h)
    operands = kt.nbytes + v.nbytes
    assert mem.peak < operands + 4 * ad._TILE_BYTES < operands + 8 * n * c
    # the projections' bits, with the ones set once
    k = (x @ w_k.T).reshape(n, h, c // h)
    assert np.array_equal(kt[:, :-1], k.transpose(1, 2, 0))
    assert np.array_equal(v[..., :-1], (x @ w_v.T + b_v).reshape(
        n, h, c // h).transpose(1, 0, 2))
    assert (kt[:, -1] == 1).all() and (v[..., -1] == 1).all()
    assert np.array_equal(k_norm, np.sqrt(np.max(
        (k * k).sum(axis=-1), axis=0)))


@pytest.mark.parametrize("budget", [None, 8 * 8 * 8], ids=["dense", "tiled"])
def test_attention_ignores_a_vector_added_to_every_key(rng, budget):
    # why no attention block has a key bias: one vector b added to every key
    # adds q_i · b to every score of row i, which softmax undoes. On the
    # dense plan, and on a tiled one of 8 + 8 + 4 rows x 8 + 8 + 8 + 6 keys
    # per head, whose row shifts are bounds that b moves
    h, nq, nk, dh = 2, 20, 30, 4
    q = rng.normal(size=(h, nq, dh))
    k, v = (rng.normal(size=(h, nk, dh)) for _ in range(2))
    b = rng.normal(size=(h, 1, dh))
    with block_bytes(budget) if budget else contextlib.nullcontext():
        dense, rows, keys = ad._attention_blocks(h, nq, nk)
        assert dense == (budget is None)
        assert dense or (len(rows), len(keys)) == (3, 4)
        base, moved = (ad.val(ad.attention(q, *_operands(keys_in, v)))
                       for keys_in in (k, k + b))
    assert np.max(np.abs(moved - base)) <= 1e-12


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
            out = ad.attention(qs, *_operands(k, v))
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
        out = ad.attention(q, *_operands(k, v))
    ad.sum_(ad.mul(out, w)).backward()
    return [out.data, q.grad, k.grad, v.grad]


def _patch_budgets(monkeypatch, block, tile):
    monkeypatch.setattr(ad, "_BLOCK_BYTES", block)
    monkeypatch.setattr(ad, "_TILE_BYTES", tile)


def test_attention_in_row_blocks_is_the_dense_softmax(rng, monkeypatch):
    # per head, 40 query rows over 600 keys in tiles of 16 x 16: rows
    # 16 + 16 + 8, keys 37 x 16 + 8, each block of rows shifted by its
    # rows' score bounds and divided by the sums that its value products
    # carry over the tiles
    h, nq, nk, dh = 2, 40, 600, 4
    _patch_budgets(monkeypatch, 8 * nk * 15, 8 * 16 * 16)
    _, rows, keys = ad._attention_blocks(h, nq, nk)
    assert (len(rows), len(keys)) == (3, 38)
    assert rows[-1] == slice(32, 40) and keys[-1] == slice(592, 600)
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    w = rng.normal(size=(h, nq, dh))
    for a, b in zip(_attention_and_grads(base, w),
                    _attention_and_grads(base, w, dense=True)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_attention_past_the_shift_limit_is_the_dense_softmax(rng,
                                                             monkeypatch):
    # the same plan with q and k scaled so that every block of rows has a
    # row whose score bound passes the shift limit: each block shifts by
    # its exact row maxes, taken over its key tiles, forward and backward
    # (shifted by their bounds, some rows would underflow to 0 / 0)
    h, nq, nk, dh = 2, 40, 600, 4
    _patch_budgets(monkeypatch, 8 * nk * 15, 8 * 16 * 16)
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    base[0] *= 30.0
    base[1] *= 30.0
    bounds = (np.linalg.norm(base[0], axis=2, keepdims=True)
              * np.linalg.norm(base[1], axis=2).max(axis=1)[:, None, None])
    assert all(bounds[i, b].max() > ad._SHIFT_LIMIT
               for i in range(h) for b in ad._attention_blocks(h, nq, nk)[1])
    w = rng.normal(size=(h, nq, dh))
    for a, b in zip(_attention_and_grads(base, w),
                    _attention_and_grads(base, w, dense=True)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_attention_block_plans_of_the_default_model():
    # past the budget, the default 900-query self-attention runs each head
    # in 256 x 256 tiles (rows and keys 3 x 256 + 132), and the
    # [8, 300, 32,400] cross-attention of `standard` mode in tiles of 256
    # rows (256 + 44) x 256 keys (126 x 256 + 144)
    def grid(nq, nk):
        return (False,
                [slice(r, min(r + 256, nq)) for r in range(0, nq, 256)],
                [slice(c, min(c + 256, nk)) for c in range(0, nk, 256)])

    assert ad._TILE_BYTES == 8 * 256 * 256
    assert ad._attention_blocks(8, 900, 900) == grid(900, 900)
    assert [len(x) for x in grid(900, 900)[1:]] == [4, 4]
    assert ad._attention_blocks(8, 300, 32400) == grid(300, 32400)
    assert [len(x) for x in grid(300, 32400)[1:]] == [2, 127]


def test_attention_plan_of_a_300_query_self_attention():
    # within the budget, a tile is one whole head
    assert ad._attention_blocks(8, 300, 300) == (
        True, [slice(0, 300)], [slice(0, 300)])


@pytest.mark.parametrize("h, nq, nk, rows", [
    (8, 300, 300, None), (8, 900, 900, None), (8, 300, 32400, None),
    (3, 7, 11, 3), (2, 40, 600, 15), (1, 5, 10**7, None)])
def test_attention_plan_covers_each_row_and_each_key_once(monkeypatch, h,
                                                          nq, nk, rows):
    # the blocks of rows and the tiles of keys, which every head walks,
    # each cover their axis in order, each row and each key once; a tile's
    # scores fit the tile budget past the block budget, or are one whole
    # head within it; `rows` patches both budgets, the tiles to rows x rows
    if rows is not None:
        _patch_budgets(monkeypatch, 8 * nk * rows, 8 * rows * rows)
    dense, row_blocks, key_tiles = ad._attention_blocks(h, nq, nk)
    assert dense == (8 * h * nq * nk <= ad._BLOCK_BYTES)
    for blocks, n in ((row_blocks, nq), (key_tiles, nk)):
        assert all(s.start < s.stop and s.step is None for s in blocks)
        assert [s.start for s in blocks] == [0] + [s.stop
                                                   for s in blocks[:-1]]
        assert blocks[-1].stop == n
    if dense:
        assert (row_blocks, key_tiles) == ([slice(0, nq)], [slice(0, nk)])
    else:
        assert all(8 * (b.stop - b.start) * (c.stop - c.start)
                   <= ad._TILE_BYTES for b in row_blocks for c in key_tiles)


def test_attention_heads_agree_across_the_block_regimes(rng):
    # each head of an 8-head 900x900 call (past the budget: in tiles, each
    # block of rows shifted by its rows' score bounds, with the sums in its
    # value products) against its 1-head call (within the budget: the
    # dense softmax's max and division)
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
    # all heads' scores within the budget, and past it in tiles of 3 x 3
    # (rows 3 + 3 + 1, keys 3 + 3 + 3 + 2)
    h, nq, nk, dh = 3, 7, 11, 4
    if rows is not None:
        _patch_budgets(monkeypatch, 8 * nk * rows, 8 * rows * rows)
    base = [rng.normal(size=(h, n, dh)) for n in (nq, nk, nk)]
    w = rng.normal(size=(h, nq, dh))

    def run(head):
        q, k, v = (ad.Var(x[head]) for x in base)
        out = ad.attention(q, *_operands(k, v))
        ad.sum_(ad.mul(out, w[head])).backward()
        return [out.data, q.grad, k.grad, v.grad]

    whole = run(slice(None))
    for i in range(h):
        for a, b in zip(whole, run(slice(i, i + 1))):
            assert np.array_equal(a[i:i + 1], b)


_THREADS_CHILD = """
import sys
import numpy as np
from bevlab import autodiff as ad
from bevlab.decoder import run_decoder
from bevlab.geometry import BevGrid
from bevlab.verify import _tiny_decoder_params

rng = np.random.default_rng(11)
arrays = {}
for nq, nk in ((900, 900), (300, 5000)):
    q = ad.Var(rng.normal(size=(8, nq, 4)) * 0.5)
    x = ad.Var(rng.normal(size=(32, nk)).T)
    w_k, w_v = (rng.normal(size=(32, 32)) * 0.2 for _ in range(2))
    out = ad.attention(q, *ad.attention_keys(x, w_k, w_v, rng.normal(size=32),
                                             8))
    ad.sum_(ad.mul(out, rng.normal(size=out.data.shape))).backward()
    for name, a in (("out", out.data), ("dq", q.grad), ("dx", x.grad)):
        arrays[f"{name}_{nq}x{nk}"] = a

# a `standard` decoder over a 72 x 72 map: its keys projected in row blocks
# of 2,048 cells (2,048 + 2,048 + 1,088), its cross-attention past the
# budget
grid = BevGrid((-36.0, 36.0), (-36.0, 36.0), (-3.0, 3.0), (72, 72))
params = _tiny_decoder_params(rng, C=32, n_layers=2, n_heads=8)
bev = ad.Var(rng.normal(size=(32, 72, 72)))
layers = run_decoder(rng.normal(size=(100, 32)), rng.uniform(0, 72, (100, 2)),
                     bev, params, grid, mode="standard")
loss = ad.sum_(ad.mul(layers[-1]["enc"], 0.2))
for i, layer in enumerate(layers):
    arrays[f"enc_{i}"] = layer["enc"].data
    arrays[f"cls_{i}"] = layer["cls"].data
    loss = ad.add(loss, ad.sum_(ad.mul(layer["cls"], 0.1)))
loss.backward()
arrays["d_bev"] = bev.grad
np.savez(sys.argv[1], **arrays)
"""


def test_attention_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the default 900-query self-attention and a cross-attention over 20
    # key tiles, both past the budget, over keys and values that
    # `attention_keys` projects from column-major rows, as `_mha` passes
    # the BEV cells; and a `standard` decoder whose cross-attention is past
    # the budget, its keys projected in blocks of 2,048 x 32 @ 32 x 32,
    # large enough for OpenBLAS to split: outputs and the gradients of the
    # queries and the rows are equal bit for bit under one and two
    # OpenBLAS threads (whole-row value products, whose inner dimension is
    # every key, differed in most outputs; so does a weight's gradient
    # xᵀ G, summed over every row, as in `linear_apply`)
    assert 8 * 8 * 300 * 5000 > ad._BLOCK_BYTES < 8 * 8 * 100 * 72 * 72
    assert len(ad._attention_blocks(8, 300, 5000)[2]) == 20
    assert ad._gemm_row_blocks(72 * 72, ad._TILE_BYTES // (8 * 32)) == [
        slice(0, 2048), slice(2048, 4096), slice(4096, 5184)]
    src = str(pathlib.Path(ad.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads_{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _THREADS_CHILD, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as z:
            results.append({name: z[name] for name in z.files})
    one, two = results
    assert sorted(one) == sorted(two) and len(one) == 6 + 2 * 2 + 1
    for name in one:
        assert np.array_equal(one[name], two[name]), name


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
    # the generator's gradients alone: one kernel row of d(K) at a time
    out = ad.dynamic_filter(x, z, ad.Var(w), ad.Var(b))
    g = np.ones(out.data.shape)
    with tracemalloc_peak() as backward:
        out.node.vjp(g)
    assert backward.peak < ad._BLOCK_BYTES + x.nbytes < dense / 20
    # at the 96 x 96 grid of perfbench's fit, traced as a fit traces it
    # (the rows x too) and with g column-major, as `chw_to_cells` passes
    # it: the vjp holds d(x), g's row-major copy and one kernel row of
    # d(K), [N, C] each, and one block of the kernels that d(x) generates
    # again. A block of the forward's 1,024 rows of kernels alone takes
    # 8.4 MB, more than that bound
    n = 96 * 96
    x, z = x[:n], z[:n]
    out = ad.dynamic_filter(ad.Var(x), z, ad.Var(w), ad.Var(b))
    g = np.ones((c, n)).T
    with tracemalloc_peak() as backward:
        out.node.vjp(g)
    bound = 3 * x.nbytes + 2 * ad._TILE_BYTES
    assert backward.peak < bound < 8 * 1024 * c * c


def _concat_linear_and_grads(base, w, b, g, fused, plain_part=None):
    """Output and the gradients of both parts, the weight and the bias of
    sum(yᵀ * g) for y = [p_1 | p_2] wᵀ + b, by ``ad.concat_linear`` or by
    ``ad.concat`` and `linear_apply`. The part numbered plain_part is a
    plain array, whose gradient is None. Backward reaches y through a
    transpose, as `tensor.cells_to_chw` does in `fuse_bev`."""
    p1, p2 = (x if i == plain_part else ad.Var(x) for i, x in enumerate(base))
    wv, bv = ad.Var(w), ad.Var(b)
    if fused:
        y = ad.concat_linear([p1, p2], wv, bv)
    else:
        y = linear_apply(LinearMap(wv, bv), ad.concat([p1, p2], axis=1))
    ad.sum_(ad.mul(ad.transpose(y, (1, 0)), g)).backward()
    return [y.data] + [x.grad if isinstance(x, ad.Var) else None
                       for x in (p1, p2, wv, bv)]


@pytest.mark.parametrize(
    "n, blocks, plain_part",
    [(14, [4, 4, 4, 2], None), (13, [4, 4, 5], None), (14, [4, 4, 4, 2], 1)],
    ids=["ragged-last-block", "one-row-tail-joined", "second-part-plain"])
def test_concat_linear_is_concat_then_linear_bit_for_bit(rng, n, blocks,
                                                         plain_part):
    # parts of 3 and 5 columns: 64 bytes a row, so a 256-byte budget makes
    # blocks of 4 rows; the parts are column-major, as `chw_to_cells` makes
    # them. A plain second part is the fusion's LiDAR rows in a fit: the
    # vjp then makes only the first part's columns of g w
    base = [rng.normal(size=(d, n)).T for d in (3, 5)]
    w, b = rng.normal(size=(6, 8)), rng.normal(size=6)
    g = rng.normal(size=(6, n))
    with block_bytes(256):
        assert [r.stop - r.start for r in ad._gemm_row_blocks(n, 4)] == blocks
        fused = _concat_linear_and_grads(base, w, b, g, True, plain_part)
        plain = ad.concat_linear(base, w, b)
    composed = _concat_linear_and_grads(base, w, b, g, False, plain_part)
    assert isinstance(plain, np.ndarray)
    assert np.array_equal(plain, composed[0])
    for name, a, c in zip(("y", "p1", "p2", "w", "b"), fused, composed):
        if plain_part is not None and name == f"p{plain_part + 1}":
            assert a is None and c is None, name
        else:
            assert np.array_equal(a, c), name


def test_concat_linear_rejects_mismatched_shapes(rng):
    parts = [rng.normal(size=(4, 3)), rng.normal(size=(5, 2))]
    with pytest.raises(ValueError, match="do not agree"):
        ad.concat_linear(parts, rng.normal(size=(2, 5)), np.zeros(2))
    with pytest.raises(ValueError, match="do not agree"):
        ad.concat_linear(parts[:1], rng.normal(size=(2, 5)), np.zeros(2))


def test_fuse_bev_holds_no_whole_concatenation(rng):
    # fusion at the default grid: the [32400, 64] concatenation of the
    # camera and LiDAR cells takes 16.6 MB, the product and its bias sum
    # 8.3 MB each; the op holds beside its output one block of the
    # concatenation (the budget's 0.5 MiB)
    n, c = 32400, 32
    params = VtParams(*(LinearMap(np.zeros((o, c)), np.zeros(o))
                        for o in (1, 1, c * c)),
                      fuse=LinearMap(rng.normal(size=(c, 2 * c)),
                                     rng.normal(size=c)))
    camera, lidar = rng.normal(size=(2, c, 180, 180))
    with tracemalloc_peak() as mem:
        fused = fuse_bev(params, camera, lidar)
    assert mem.peak < fused.nbytes + 2 * ad._TILE_BYTES < 8 * n * 2 * c


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
    out = ad.bilinear_gather(fmap, xs, ys)
    for i in range(10):
        ref, ok = bilinear_sample(fmap, (xs[i], ys[i]))
        assert ok
        assert np.allclose(out[i], ref, atol=1e-15)

    g = np.arange(30.0).reshape(10, 3)

    def loss(t):
        return ad.sum_(ad.mul(ad.bilinear_gather(t["fmap"], t["xs"], t["ys"]),
                              g))

    gradcheck(loss, {"fmap": fmap, "xs": xs, "ys": ys})


def test_bilinear_gather_out_of_bounds_zero():
    fmap = np.ones((2, 4, 4))
    out = ad.bilinear_gather(fmap, np.array([-1.0, 2.0, 5.0]),
                             np.array([1.0, 1.0, 1.0]))
    assert out.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]


def test_bilinear_gather_nan_point_zero():
    # a NaN point (from features that overflowed) is outside every image
    out = ad.bilinear_gather(np.ones((2, 4, 4)),
                             np.array([np.nan, 2.0, 1.0]),
                             np.array([1.0, np.nan, 1.0]))
    assert out.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]


def _corner_formula(fmap, xs, ys, g):
    """Bilinear samples of fmap at (xs, ys) and the gradients of
    sum(samples * g) for fmap, xs and ys, from the four corner gathers at
    (x0, y0) and (x1, y1) = (min(x0 + 1, W - 1), min(y0 + 1, H - 1)), x0
    and y0 clamped to W - 2 and H - 2 but not below 0: a map one column
    (row) wide takes its one column (row) as both corners."""
    C, H, W = fmap.shape
    valid = (xs >= 0) & (xs <= W - 1) & (ys >= 0) & (ys <= H - 1)
    xc = np.clip(np.nan_to_num(xs), 0.0, W - 1.0)
    yc = np.clip(np.nan_to_num(ys), 0.0, H - 1.0)
    x0 = np.minimum(np.floor(xc), max(W - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(yc), max(H - 2, 0)).astype(np.intp)
    x1, y1 = np.minimum(x0 + 1, W - 1), np.minimum(y0 + 1, H - 1)
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
        out = ad.bilinear_gather(args["fmap"], args["xs"], args["ys"])
    # the output, one [C, M] difference per traced coordinate array, and
    # the per-point corner indices, weights and mask (seven of ≤ 8 bytes)
    n_diffs = len({"xs", "ys"} & set(traced))
    assert mem.retained <= out.data.nbytes + n_diffs * 8 * c * m + 8 * 8 * m
    assert not ad.val(out)[-8:-2].any() and ad.val(out)[-2:].all()
    assert np.array_equal(out.data, ref["out"])
    ad.sum_(ad.mul(out, g)).backward()
    for name in traced:
        assert np.array_equal(args[name].grad, ref[name]), name


@pytest.mark.parametrize("h, w", [(1, 6), (5, 1), (1, 1)],
                         ids=["one-row", "one-column", "one-cell"])
def test_bilinear_gather_on_a_map_one_cell_wide(rng, h, w):
    # a map one row (column) wide steps 0 rows to its lower (right)
    # corners. 40 points on the map's segment, the last four just off it,
    # one past each side: samples and every gradient equal the corner
    # formula's bit for bit, and central differences in the map and in
    # the coordinate that has room to move
    c, m = 3, 40
    fmap = rng.normal(size=(c, h, w))
    xs = rng.uniform(0.0, w - 1.0, size=m)
    ys = rng.uniform(0.0, h - 1.0, size=m)
    xs[-4:-2] = [-0.25, w - 0.75]
    ys[-2:] = [-0.25, h - 0.75]
    g = rng.normal(size=(m, c))
    ref = _corner_formula(fmap, xs, ys, g)
    leaves = {"fmap": ad.Var(fmap), "xs": ad.Var(xs), "ys": ad.Var(ys)}
    out = ad.bilinear_gather(leaves["fmap"], leaves["xs"], leaves["ys"])
    assert not out.data[-4:].any() and out.data[:-4].all()
    assert np.array_equal(out.data, ref["out"])
    ad.sum_(ad.mul(out, g)).backward()
    for name, leaf in leaves.items():
        assert np.array_equal(leaf.grad, ref[name]), name
    smooth = {"fmap": fmap, **({"xs": xs} if w > 1 else {}),
              **({"ys": ys} if h > 1 else {})}
    gradcheck(lambda t: ad.sum_(ad.mul(ad.bilinear_gather(
        t["fmap"], t.get("xs", xs), t.get("ys", ys)), g)), smooth)


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


def test_tape_holds_only_what_backward_reads(rng):
    # K blocks relu(h W_iᵀ + b_i) over [N, C] rows, each W_i traced. Once
    # the interior handles are gone, the tape holds each block's input and
    # its relu's bool mask: the first input is x, made before tracing, and
    # the sum reads only the last output's shape. A tape that also keeps
    # each block's product, its sum and the relu's float input holds about
    # three times as much
    from bevlab.tensor import LinearMap, linear_apply

    k, n, c = 8, 1000, 32
    x = rng.normal(size=(n, c))
    ws = [rng.normal(size=(c, c)) / np.sqrt(c) for _ in range(k)]
    bs = [rng.normal(size=c) for _ in range(k)]
    maps = [LinearMap(ad.Var(w), b) for w, b in zip(ws, bs)]
    with tracemalloc_peak() as mem:
        h = x
        for m in maps:
            h = ad.relu(linear_apply(m, h))
        loss = ad.sum_(h)
        del h
    # K - 1 [N, C] float64 inputs and K [N, C] masks, plus 64 KiB for the
    # nodes, the closures and the transposed weights' views (25 KB here)
    assert mem.retained < (k - 1) * 8 * n * c + k * n * c + 2**16
    loss.backward()
    # the same chain written out, in the vjps' order
    hs, masks = [x], []
    for w, b in zip(ws, bs):
        pre = hs[-1] @ w.T + b
        masks.append(pre > 0)
        hs.append(np.maximum(pre, 0.0))
    g = np.ones((n, c))
    for i in reversed(range(k)):
        g = g * masks[i]
        assert np.array_equal(maps[i].weight.grad, (hs[i].T @ g).T)
        g = g @ ws[i]


def test_backward_requires_scalar(rng):
    v = ad.Var(rng.normal(size=(3,)))
    with pytest.raises(ValueError):
        ad.add(v, 1.0).backward()


# every op whose tape node `_unary` or `_binary` builds, on two plain
# [3, 3] arrays with entries in [0.5, 2)
HELPER_OPS = {
    "add": lambda a, b: ad.add(a, 1.0),
    "sub": lambda a, b: ad.sub(1.0, b),
    "mul": ad.mul,
    "div": ad.div,
    "where_mask": lambda a, b: ad.where_mask(a > b, a, b),
    "matmul": ad.matmul,
    "power": lambda a, b: ad.power(a, 1.5),
    "log": lambda a, b: ad.log(a),
    "tanh": lambda a, b: ad.tanh(a),
    "sigmoid": lambda a, b: ad.sigmoid(a),
    "relu": lambda a, b: ad.relu(a),
    "absolute": lambda a, b: ad.absolute(a),
    "sin": lambda a, b: ad.sin(a),
    "cos": lambda a, b: ad.cos(a),
    "clip": lambda a, b: ad.clip(a, 0.8, 1.2),
    "sum_": lambda a, b: ad.sum_(a, axis=1),
    "reshape": lambda a, b: ad.reshape(a, (9,)),
    "transpose": lambda a, b: ad.transpose(a, (1, 0)),
    "getitem": lambda a, b: ad.getitem(a, (slice(None), 1)),
    "softmax": lambda a, b: ad.softmax(a),
    "layer_norm": lambda a, b: ad.layer_norm(a),
}


@pytest.mark.parametrize("name", HELPER_OPS)
def test_plain_arrays_stay_plain(rng, name):
    a, b = rng.uniform(0.5, 2.0, size=(2, 3, 3))
    assert isinstance(HELPER_OPS[name](a, b), np.ndarray)


def test_gradients_keep_their_operation_order(rng):
    """Traced gradients equal their expressions written out in the vjp's
    order, bit for bit; a regrouped expression differs in the last bits."""
    x, b = rng.uniform(0.5, 2.0, size=(2, 5, 10))
    g = rng.normal(size=(5, 10))

    def grads(op, *args):
        vs = [ad.Var(v) for v in args]
        ad.sum_(ad.mul(op(*vs), g)).backward()
        return [v.grad for v in vs]

    (dx,) = grads(lambda v: ad.power(v, 2.5), x)
    assert np.array_equal(dx, g * 2.5 * x ** (2.5 - 1))
    assert not np.array_equal(dx, g * (2.5 * x ** (2.5 - 1)))

    da, db = grads(ad.div, x, b)
    assert np.array_equal(da, g / b)
    assert np.array_equal(db, -g * x / (b * b))

    y = ad.sigmoid(x)
    (dx,) = grads(ad.sigmoid, x)
    assert np.array_equal(dx, g * y * (1.0 - y))

    xc = x - x.mean(axis=-1, keepdims=True)
    s = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    y = xc / s
    (dx,) = grads(ad.layer_norm, x)
    assert np.array_equal(dx, (g - g.mean(axis=-1, keepdims=True)
                               - y * (g * y).mean(axis=-1, keepdims=True)) / s)


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
