"""Minimal reverse-mode differentiation over numpy arrays.

Only the operations the BEV pipeline actually composes are implemented; this
is deliberately not a general autodiff framework (no broadcasting-complete op
set, no graph optimization). Every op accepts plain numpy arrays or scalars
and returns a plain array when no ``Var`` is involved, so the same forward
code serves both the fast inference path and the differentiable path used by
the gradient suite and the fitting routine.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Var", "val", "is_traced",
    "add", "sub", "mul", "div", "power", "log",
    "tanh", "sigmoid", "relu", "absolute", "sin", "cos", "clip",
    "matmul", "sum_", "mean", "reshape", "transpose", "concat", "stack",
    "getitem", "where_mask", "softmax", "attention", "dynamic_filter",
    "layer_norm", "bilinear_gather", "sample_pool",
    "lift_tree", "unlift_tree", "sgd_step",
]


def val(x):
    """Underlying ndarray (or scalar) of a Var or plain value."""
    return x.data if isinstance(x, Var) else x


def is_traced(*xs):
    return any(isinstance(x, Var) for x in xs)


class Var:
    """A node in the backward tape wrapping a float64 ndarray. Every Var is
    traced: a leaf (from `lift_tree`, or built by hand) receives a .grad
    from backward(), and an op builds a Var only when one of its inputs is
    a Var."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._vjp = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Only leaves keep a .grad afterwards: each inner node's gradient is
        dropped as soon as its vjp has passed it on, so the reverse pass
        holds the tape plus the gradients still to be consumed. The tape
        itself stays, and a repeated backward() starts again from zero.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


def _node(data, parents, vjp):
    """Build a tape node; collapse to a plain array when no parent is a
    Var."""
    live = tuple(p for p in parents if isinstance(p, Var))
    if not live:
        return np.asarray(data)
    out = Var(data)
    out._parents = live
    out._vjp = vjp
    return out


def _accum(p, g):
    if isinstance(p, Var):
        p.grad = g if p.grad is None else p.grad + g


def _unbroadcast(g, shape):
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    va, vb = val(a), val(b)
    y = va + vb

    def vjp(g):
        _accum(a, _unbroadcast(g, np.shape(va)))
        _accum(b, _unbroadcast(g, np.shape(vb)))

    return _node(y, (a, b), vjp)


def sub(a, b):
    va, vb = val(a), val(b)
    y = va - vb

    def vjp(g):
        _accum(a, _unbroadcast(g, np.shape(va)))
        _accum(b, _unbroadcast(-g, np.shape(vb)))

    return _node(y, (a, b), vjp)


def mul(a, b):
    va, vb = val(a), val(b)
    y = va * vb

    def vjp(g):
        _accum(a, _unbroadcast(g * vb, np.shape(va)))
        _accum(b, _unbroadcast(g * va, np.shape(vb)))

    return _node(y, (a, b), vjp)


def div(a, b):
    va, vb = val(a), val(b)
    y = va / vb

    def vjp(g):
        _accum(a, _unbroadcast(g / vb, np.shape(va)))
        _accum(b, _unbroadcast(-g * va / (vb * vb), np.shape(vb)))

    return _node(y, (a, b), vjp)


def power(a, p):
    """a ** p for a constant, nonzero exponent p."""
    va = val(a)
    y = va ** p

    def vjp(g):
        _accum(a, g * p * va ** (p - 1))

    return _node(y, (a,), vjp)


def log(a):
    va = val(a)

    def vjp(g):
        _accum(a, g / va)

    return _node(np.log(va), (a,), vjp)


def tanh(a):
    y = np.tanh(val(a))

    def vjp(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), vjp)


def sigmoid(a):
    va = val(a)
    e = np.exp(-np.abs(va))
    y = np.where(va >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), vjp)


def relu(a):
    va = val(a)
    y = np.maximum(va, 0.0)

    def vjp(g):
        _accum(a, g * (va > 0))

    return _node(y, (a,), vjp)


def absolute(a):
    va = val(a)

    def vjp(g):
        _accum(a, g * np.sign(va))

    return _node(np.abs(va), (a,), vjp)


def sin(a):
    va = val(a)

    def vjp(g):
        _accum(a, g * np.cos(va))

    return _node(np.sin(va), (a,), vjp)


def cos(a):
    va = val(a)

    def vjp(g):
        _accum(a, -g * np.sin(va))

    return _node(np.cos(va), (a,), vjp)


def clip(a, lo, hi):
    """Clamp with zero gradient outside (lo, hi)."""
    va = val(a)
    inside = (va > lo) & (va < hi)

    def vjp(g):
        _accum(a, g * inside)

    return _node(np.clip(va, lo, hi), (a,), vjp)


def where_mask(mask, a, b):
    """Elementwise select by a constant boolean mask (gradient splits)."""
    m = np.asarray(mask, dtype=bool)
    va, vb = val(a), val(b)
    y = np.where(m, va, vb)

    def vjp(g):
        _accum(a, _unbroadcast(g * m, np.shape(va)))
        _accum(b, _unbroadcast(g * ~m, np.shape(vb)))

    return _node(y, (a, b), vjp)


# ---------------------------------------------------------------------------
# linear algebra / shape ops


def matmul(a, b):
    """2D@2D and batched 3D@3D; the only shapes the pipeline needs."""
    va, vb = val(a), val(b)
    na, nb = np.ndim(va), np.ndim(vb)
    y = np.matmul(va, vb)

    if na == 2 and nb == 2:
        def vjp(g):
            _accum(a, g @ vb.T)
            _accum(b, va.T @ g)
    elif na == 3 and nb == 3:
        def vjp(g):
            _accum(a, np.matmul(g, vb.swapaxes(-1, -2)))
            _accum(b, np.matmul(va.swapaxes(-1, -2), g))
    else:
        raise ValueError(f"unsupported matmul ranks: {na} @ {nb}")

    return _node(y, (a, b), vjp)


def sum_(a, axis=None):
    va = np.asarray(val(a))
    y = va.sum(axis=axis)

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, va.shape).copy())

    return _node(y, (a,), vjp)


def mean(a):
    """Mean of all entries."""
    return div(sum_(a), float(np.size(val(a))))


def reshape(a, shape):
    va = np.asarray(val(a))

    def vjp(g):
        _accum(a, g.reshape(va.shape))

    return _node(va.reshape(shape), (a,), vjp)


def transpose(a, axes=None):
    va = val(a)
    y = np.transpose(va, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def vjp(g):
        _accum(a, np.transpose(g, inv))

    return _node(y, (a,), vjp)


def concat(parts, axis=0):
    vs = [val(p) for p in parts]
    y = np.concatenate(vs, axis=axis)
    sizes = [v.shape[axis] for v in vs]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _node(y, tuple(parts), vjp)


def stack(parts, axis=0):
    vs = [val(p) for p in parts]
    y = np.stack(vs, axis=axis)

    def vjp(g):
        for i, p in enumerate(parts):
            _accum(p, np.take(g, i, axis=axis))

    return _node(y, tuple(parts), vjp)


def getitem(a, idx):
    va = val(a)
    y = va[idx]

    def vjp(g):
        ga = np.zeros_like(va)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _node(y, (a,), vjp)


def softmax(a):
    """Numerically stable softmax along the last axis."""
    va = np.asarray(val(a))
    shifted = va - va.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    return _node(y, (a,), vjp)


# bytes of one block of float64 intermediates in the blocked ops: the scores
# of `attention`, and the generated kernels of `dynamic_filter` (a block of
# cells) and the columns of its kernel gradient (a block of kernel rows).
# 8 MiB keeps the [8, 300, 300] self-attention of a 300-query model in one
# block, where values and gradients equal the dense softmax's bit for bit,
# so fits follow the same trajectory (a last-bit change can flip a top-k
# query choice a few steps later). Past one block, `attention` works one
# head at a time, so a block rereads only that head's keys and values: 2 MB
# at 32,400 keys and dh = 4, where all 8 heads' take 17 MB. For that
# [8, 300, 32,400] cross-attention on a 2-vCPU host (2 MiB of L2 per core),
# with each block's [rows, dh] product divided by its row sums, per-head
# budgets of 1 to 4 MiB made the forward 1.07-1.36x as slow as 8 MiB and
# 256 KiB 2.0-2.3x; 16 MiB made it 0.97-1.10x and its vjp 1.57-1.62x.
# `dynamic_filter` runs as fast in blocks of 128 to 2,048 rows.
_BLOCK_BYTES = 8 * 2**20


def _attention_blocks(h, nq, nk):
    """Block plan of ``attention`` for h heads, nq query rows and nk keys:
    a list of (head slice, row slice) pairs covering every (head, row) once.
    One block over all heads and rows when their scores fit in the budget;
    otherwise one head times budget // (8 nk) query rows per block."""
    if 8 * h * nq * nk <= _BLOCK_BYTES:
        return [(slice(0, h), slice(0, nq))]
    step = max(1, _BLOCK_BYTES // (8 * nk))
    return [(slice(i, i + 1), slice(lo, min(lo + step, nq)))
            for i in range(h) for lo in range(0, nq, step)]


def attention(q, k, v):
    """Softmax attention softmax(q kᵀ) v without the [h, Nq, Nk] scores.

    q: [h, Nq, dh], already scaled by 1/sqrt(dh); k, v: [h, Nk, dh].
    Returns [h, Nq, dh]. Each row's softmax is independent, so the forward
    finishes one block of `_attention_blocks` before it starts the next,
    and keeps only each row's max and sum. The plan has two regimes. When
    all heads' scores fit in the budget, one block covers every head and
    row and takes e = exp(s - max), then (e / sum) @ v, so values and
    gradients equal the dense softmax's bit for bit. Otherwise a block is
    one head's budget // (8 Nk) query rows, so it reads only that head's k
    and v, which then stay in cache from block to block; it takes
    (e @ v) / sum, dividing the [rows, dh] product instead of the
    [rows, Nk] block (as FlashAttention does; Dao et al., arXiv
    2205.14135), and its values differ from the dense softmax's in the
    last bits.

    So the heads of one call are independent bit for bit only within one
    regime: a head of a many-head call in row blocks may differ in the last
    bits from the same head called alone in one block. The vjp is the same
    in both regimes: it walks the plan, recomputes each block's
    probabilities from the kept max and sum, writes that block's dq and
    adds its share to that head's dk and dv, holding at most three blocks
    at a time.
    """
    vq = val(q)
    h, nq, _ = vq.shape
    nk = val(k).shape[1]
    # contiguous [h, Nk, dh] copies: a strided k makes the q kᵀ products up
    # to twice as slow when a block holds few rows. A [h, dh, Nk] copy is
    # faster still, but its products differ from the dense ones in the
    # last bits.
    kk = np.ascontiguousarray(val(k))
    vv = np.ascontiguousarray(val(v))
    kt = np.swapaxes(kk, 1, 2)
    dtype = np.result_type(vq, kk, vv)
    out = np.empty((h, nq, vv.shape[2]), dtype=dtype)
    row_max = np.empty((h, nq, 1), dtype=dtype)
    row_sum = np.empty((h, nq, 1), dtype=dtype)
    blocks = _attention_blocks(h, nq, nk)
    dense = len(blocks) == 1
    for hs, b in blocks:
        s = np.matmul(vq[hs, b], kt[hs])
        row_max[hs, b] = s.max(axis=-1, keepdims=True)
        s -= row_max[hs, b]
        np.exp(s, out=s)
        row_sum[hs, b] = s.sum(axis=-1, keepdims=True)
        if dense:  # the dense softmax's probabilities, then times v
            s /= row_sum[hs, b]
            out[hs, b] = np.matmul(s, vv[hs])
        else:  # divide the [rows, dh] product, not the [rows, Nk] block
            out[hs, b] = np.matmul(s, vv[hs]) / row_sum[hs, b]
        del s  # before the next block's scores are made

    def vjp(g):
        # dS = P ∘ (dP - rowsum(dP ∘ P)) with dP = g vᵀ
        vt = np.swapaxes(vv, 1, 2)
        qt = np.swapaxes(vq, 1, 2)
        dq = np.empty(vq.shape, dtype=dtype)
        dkt = np.zeros(kt.shape, dtype=dtype)
        dv = np.zeros(vv.shape, dtype=dtype)
        for hs, b in blocks:
            p = np.matmul(vq[hs, b], kt[hs])
            p -= row_max[hs, b]
            np.exp(p, out=p)
            p /= row_sum[hs, b]
            dv[hs] += np.matmul(np.swapaxes(p, 1, 2), g[hs, b])
            ds = np.matmul(g[hs, b], vt[hs])
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            del p
            dq[hs, b] = np.matmul(ds, kk[hs])
            dkt[hs] += np.matmul(qt[hs, :, b], ds)
            del ds
        _accum(q, dq)
        _accum(k, np.swapaxes(dkt, 1, 2))
        _accum(v, dv)

    return _node(out, (q, k, v), vjp)


def _kernel_row_blocks(n, c):
    """Block plan of ``dynamic_filter``'s d(K) for n rows and C channels:
    slices of kernel rows, budget // (8 n C) per block, whose [n, rows C]
    columns of d(K) fit in the budget (at least one kernel row)."""
    step = max(1, _BLOCK_BYTES // (8 * n * c))
    return [slice(i, min(i + step, c)) for i in range(0, c, step)]


def dynamic_filter(x, z, w, b):
    """Row times its own generated kernel: out[n] = x[n] @ K[n] with
    K[n] = reshape(z[n] @ wᵀ + b, (C, C)), a dynamic filter (Jia et al.,
    arXiv 1605.09673) without the [N, C²] kernels.

    x: [N, C] rows; z: [N, D] generator inputs; w: [C², D]; b: [C²].
    Returns [N, C]. Each row's kernel is used by that row only, so the
    forward generates and applies the kernels of a block of budget // (8 C²)
    rows before it starts the next. Every row's product equals the dense
    composition's bit for bit.

    The vjp regenerates each block's kernels for that block's d(x). It
    never holds the [N, C²] d(K), whose column i C + j is x[:, i] g[:, j]:
    it makes the columns of one block of `_kernel_row_blocks` at a time and
    reduces them into d(b) and the matching rows of d(w), each summing all
    N rows in one product. So d(x) and d(b) equal the dense composition's
    bit for bit, and d(w) does wherever BLAS gives a block's rows the values
    of those rows of the whole product. OpenBLAS does, for blocks of 4 to
    640 columns, when the block is taken as d(K)ᵀ @ z; taken as zᵀ @ d(K),
    its small-matrix kernel gave a 4-column block other last bits (~4e-15).
    d(z) adds up the blocks' products, so it differs from the dense
    d(K) @ w in the last bits.
    """
    vx = np.ascontiguousarray(val(x))
    vz, vw, vb = val(z), val(w), val(b)
    n, c = vx.shape
    if vw.shape[0] != c * c or np.shape(vz) != (n, vw.shape[1]):
        raise ValueError(
            f"dynamic_filter: rows {vx.shape}, generator inputs "
            f"{np.shape(vz)} and weight {vw.shape} do not agree")
    wt = vw.T
    step = max(2, _BLOCK_BYTES // (8 * c * c))
    starts = list(range(0, n, step))
    # numpy takes a one-row product through gemv, which sums in another
    # order than gemm: a last block of one row joins the block before it
    if n > 1 and n % step == 1:
        starts.pop()
    row_blocks = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]

    def kernels(rows):
        k = vz[rows] @ wt
        k += vb
        return k.reshape(-1, c, c)

    out = np.empty((n, c), dtype=np.result_type(vx, vz, vw, vb))
    for r in row_blocks:
        out[r] = np.matmul(vx[r, None], kernels(r))[:, 0]

    def vjp(g):
        g3 = np.ascontiguousarray(g).reshape(n, 1, c)
        if is_traced(x):
            dx = np.empty_like(out)
            for r in row_blocks:
                dx[r] = np.matmul(g3[r], kernels(r).swapaxes(-1, -2))[:, 0]
            _accum(x, dx)
        if not is_traced(z, w, b):
            return
        db = np.empty(c * c, dtype=out.dtype)
        dw = np.empty(vw.shape, dtype=out.dtype)
        dz = np.zeros(np.shape(vz), dtype=out.dtype) if is_traced(z) else None
        for rows in _kernel_row_blocks(n, c):
            cols = slice(rows.start * c, rows.stop * c)
            # the [N, 1] x [1, C] products that the dense d(K) holds, exactly
            dkb = (vx[:, rows, None] * g3).reshape(n, -1)
            if is_traced(b):
                db[cols] = dkb.sum(axis=0)
            if is_traced(w):
                dw[cols] = dkb.T @ vz
            if dz is not None:
                dz += dkb @ vw[cols]
            del dkb  # before the next block's columns are made
        _accum(b, db)
        _accum(w, dw)
        _accum(z, dz)

    return _node(out, (x, z, w, b), vjp)


LAYER_NORM_EPS = 1e-5  # added to the variance, so a constant row maps to 0


def layer_norm(a):
    """Normalize the last axis to zero mean and unit variance (no affine)."""
    va = np.asarray(val(a))
    mu = va.mean(axis=-1, keepdims=True)
    xc = va - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + LAYER_NORM_EPS)
    y = xc / s

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        _accum(a, (g - gm - y * gy) / s)

    return _node(y, (a,), vjp)


def _bilinear(vf, vx, vy, d_map, d_x, d_y):
    """Bilinear samples of the plain [C, H, W] map vf at N points (vx, vy),
    and the vjp of the inputs whose flag is set.

    Returns (samples [N, C], valid [N], back). back(g) returns the gradients
    (map, xs, ys), None where the flag is off. It keeps the corner indices
    and weights, the mask, and the [C, N] corner difference d/dx (when d_x)
    and d/dy (when d_y), not the four [C, N] corner gathers.
    """
    C, H, W = vf.shape
    valid = (vx >= 0) & (vx <= W - 1) & (vy >= 0) & (vy <= H - 1)

    xc = np.clip(np.nan_to_num(vx), 0.0, W - 1.0)
    yc = np.clip(np.nan_to_num(vy), 0.0, H - 1.0)
    x0 = np.minimum(np.floor(xc), max(W - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(yc), max(H - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    fx = xc - x0
    fy = yc - y0
    gx = 1 - fx
    gy = 1 - fy

    v00 = vf[:, y0, x0]  # [C, N]
    v01 = vf[:, y0, x1]
    v10 = vf[:, y1, x0]
    v11 = vf[:, y1, x1]
    # (v00 gx) gy + (v01 fx) gy + (v10 gx) fy + (v11 fx) fy, added left to
    # right, each corner term made in one scratch array
    out = np.multiply(v00, gx)
    out *= gy
    term = np.empty_like(out)
    for v, wx, wy in ((v01, fx, gy), (v10, gx, fy), (v11, fx, fy)):
        np.multiply(v, wx, out=term)
        term *= wy
        out += term
    out *= valid
    out = out.T  # [N, C]
    ddx = ddy = None
    if d_x:  # (v01 - v00) gy + (v11 - v10) fy
        ddx = np.subtract(v01, v00)
        ddx *= gy
        np.subtract(v11, v10, out=term)
        term *= fy
        ddx += term
    if d_y:  # (v10 - v00) gx + (v11 - v01) fx
        ddy = np.subtract(v10, v00)
        ddy *= gx
        np.subtract(v11, v01, out=term)
        term *= fx
        ddy += term

    def back(g):
        gv = g * valid[:, None]  # [N, C]
        gmap = None
        if d_map:
            acc = np.zeros((H * W, C))
            np.add.at(acc, y0 * W + x0, gv * ((1 - fx) * (1 - fy))[:, None])
            np.add.at(acc, y0 * W + x1, gv * (fx * (1 - fy))[:, None])
            np.add.at(acc, y1 * W + x0, gv * ((1 - fx) * fy)[:, None])
            np.add.at(acc, y1 * W + x1, gv * (fx * fy)[:, None])
            gmap = acc.T.reshape(C, H, W)
        return (gmap,
                None if ddx is None else (gv * ddx.T).sum(axis=1),
                None if ddy is None else (gv * ddy.T).sum(axis=1))

    return out, valid, back


def bilinear_gather(fmap, xs, ys):
    """Bilinear samples of a [C, H, W] map at N continuous (x, y) points.

    x indexes columns (width), y indexes rows (height). Points outside the
    closed box [0, W-1] x [0, H-1], and NaN points, yield a zero row and
    valid=False. Differentiable in the map and in both coordinate arrays: a
    traced call's tape keeps the output and the state of `_bilinear`'s vjp,
    and an untraced call computes no corner difference.

    Returns (samples [N, C], valid [N] plain bool array).
    """
    out, valid, back = _bilinear(val(fmap), val(xs), val(ys),
                                 isinstance(fmap, Var), is_traced(xs),
                                 is_traced(ys))

    def vjp(g):
        for p, d in zip((fmap, xs, ys), back(g)):
            _accum(p, d)

    return _node(out, (fmap, xs, ys), vjp), valid


def sample_pool(levels, lanes, weights):
    """Multi-scale bilinear samples from every camera, pooled with per-cell
    weights: the sample-weight-sum of multi-scale deformable attention (Zhu
    et al., arXiv 2010.04159) as one tape node.

    levels[k]: camera k's (stride, [C, h, w] map) per scale j. lanes[i][k]:
    (idx, x, y), the M cells where camera k sees height i and their pixel
    coordinates. weights: [N, n_s n_h], column j n_h + i. For each scale j,
    then height i, the cameras' samples at (x, y) / stride are added into
    their cells, camera by camera; that camera sum, over the cell's count
    of valid samples (at least 1), times the weight column, is added to
    the output. Returns (out [N, C], valid [N] plain count of valid
    samples over all terms).

    Differentiable in the maps, the coordinates and the weights. An
    untraced call keeps nothing from one term to the next; a traced call
    keeps each term's camera sum and denominator and each camera's
    `_bilinear` vjp, and recomputes the mean for d(weights). Values and
    gradients are those of the same expressions as separate nodes.
    """
    vw = val(weights)
    n = vw.shape[0]
    n_h, n_cams, n_s = len(lanes), len(levels), len(levels[0])
    maps = [fmap for cam in levels for _, fmap in cam]
    coords = [c for row in lanes for _, x, y in row for c in (x, y)]
    traced = is_traced(*maps, *coords, weights)
    c = np.shape(val(maps[0]))[0]
    out = None
    valid = np.zeros(n)
    terms = []
    for j in range(n_s):
        for i in range(n_h):
            feat_sum = np.zeros((n, c))
            count = np.zeros(n)
            backs = []
            for k in range(n_cams):
                idx, x, y = lanes[i][k]
                stride, fmap = levels[k][j]
                rows, ok, back = _bilinear(
                    val(fmap), val(x) / float(stride), val(y) / float(stride),
                    isinstance(fmap, Var), isinstance(x, Var),
                    isinstance(y, Var))
                feat_sum[idx] += rows
                count[idx] += ok
                if traced:
                    backs.append(back)
            valid += count
            denom = np.maximum(count, 1.0)[:, None]
            term = feat_sum / denom * vw[:, j * n_h + i].reshape(n, 1)
            out = term if out is None else out + term
            if traced:
                terms.append((j, i, feat_sum, denom, backs))

    def vjp(g):
        dw = np.zeros_like(vw) if isinstance(weights, Var) else None
        for j, i, feat_sum, denom, backs in terms:
            col = j * n_h + i
            if dw is not None:
                dw[:, col] += (g * (feat_sum / denom)).sum(axis=1)
            g_sum = g * vw[:, col].reshape(n, 1) / denom
            for k, back in enumerate(backs):
                idx, x, y = lanes[i][k]
                stride, fmap = levels[k][j]
                dmap, dx, dy = back(g_sum[idx])
                _accum(fmap, dmap)
                if dx is not None:
                    _accum(x, dx / float(stride))
                if dy is not None:
                    _accum(y, dy / float(stride))
        _accum(weights, dw)

    # backward's depth-first walk takes the last parent first: the weights,
    # then the coordinates from the last height and camera back. The
    # separate gather, divide, scatter and multiply nodes were reached in
    # that order too, so the gradients passed upstream add up alike
    return _node(out, (*maps, *coords, weights), vjp), valid


# ---------------------------------------------------------------------------
# parameter-tree utilities for the fitting routine


def lift_tree(obj, out=None):
    """Deep-copy a parameter tree, replacing every ndarray leaf by a
    trainable Var. Returns (lifted, ordered list of Vars)."""
    if out is None:
        out = []
        lifted = lift_tree(obj, out)
        return lifted, out
    if isinstance(obj, Var):
        out.append(obj)
        return obj
    if isinstance(obj, np.ndarray):
        v = Var(obj.copy())
        out.append(v)
        return v
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        kw = {f.name: lift_tree(getattr(obj, f.name), out)
              for f in dataclasses.fields(obj)}
        return type(obj)(**kw)
    if isinstance(obj, (list, tuple)):
        return type(obj)(lift_tree(x, out) for x in obj)
    return obj


def unlift_tree(obj):
    """Inverse of lift_tree: Var leaves back to plain ndarrays."""
    if isinstance(obj, Var):
        return obj.data.copy()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        kw = {f.name: unlift_tree(getattr(obj, f.name))
              for f in dataclasses.fields(obj)}
        return type(obj)(**kw)
    if isinstance(obj, (list, tuple)):
        return type(obj)(unlift_tree(x) for x in obj)
    return obj


def sgd_step(params, lr):
    """In-place gradient-descent update; consumes and clears .grad."""
    for v in params:
        if v.grad is not None:
            v.data = v.data - lr * v.grad
            v.grad = None
