"""Minimal reverse-mode differentiation over numpy arrays.

Only the operations the BEV pipeline actually composes are implemented; this
is deliberately not a general autodiff framework (no broadcasting-complete op
set, no graph optimization). Every op accepts plain numpy arrays or scalars
and returns a plain array when no ``Var`` is involved, so the same forward
code serves both the fast inference path and the differentiable path used by
the gradient suite and the fitting routine.

The tape holds nodes, not values. A ``Var`` is a handle: its array and its
`_Node`. A node holds its parents' nodes, its vjp and the gradient it is
accumulating. A vjp captures parent nodes, the arrays it reads, and shapes;
never a ``Var``. So a value that no vjp reads, such as a linear map's product
before its bias, is freed in the forward pass when its last handle goes.
An operand that is an exact function of arrays the tape holds anyway may be
rebuilt instead (`matmul`'s rebuild_a and rebuild_b, `concat_linear`'s
concatenation): the vjp then runs the forward's own numpy expressions on
those arrays, and the operand is freed like a value no vjp reads. Rebuilt
bit for bit, it leaves every gradient's bits as they were.

Most ops build their tape node with `_unary` or `_binary`, passing the
output and the gradient of each input as a function of the output gradient
g. That function is lazy: it runs only in backward, never in an untraced
call. Each one keeps its expression's operation order, so gradients keep
their bits (``g * p * va ** (p - 1)`` is not ``g * (p * va ** (p - 1))``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "Var", "val", "is_traced",
    "add", "sub", "mul", "div", "power", "log",
    "tanh", "sigmoid", "relu", "absolute", "sin", "cos", "clip",
    "matmul", "sum_", "mean", "reshape", "transpose", "concat", "stack",
    "getitem", "where_mask", "softmax", "concat_linear", "attention_keys",
    "attention", "dynamic_filter",
    "layer_norm", "bilinear_gather", "sample_pool",
    "map_tree", "tree_leaves", "lift_tree", "unlift_tree", "sgd_step",
]


def val(x):
    """Underlying ndarray (or scalar) of a Var or plain value."""
    return x.data if isinstance(x, Var) else x


def is_traced(*xs):
    return any(isinstance(x, Var) for x in xs)


class _Node:
    """An entry of the backward tape: the nodes of the op's traced inputs,
    its vjp (None for a leaf), and the gradient being accumulated into it."""

    __slots__ = ("parents", "vjp", "grad")

    def __init__(self):
        self.parents = ()
        self.vjp = None
        self.grad = None


class Var:
    """A float64 ndarray and its node on the backward tape. Every Var is
    traced: a leaf (from `lift_tree`, or built by hand) receives a .grad
    from backward(), and an op builds a Var only when one of its inputs is
    a Var. The tape does not hold the Var: its array lives as long as a
    handle or a vjp that reads it."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = _Node()

    @property
    def grad(self):
        """The gradient accumulated into this Var's node (a leaf's, after
        backward())."""
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Only leaves keep a .grad afterwards: each inner node's gradient is
        dropped as soon as its vjp has passed it on, so the reverse pass
        holds the tape plus the gradients still to be consumed. The tape
        (each node's vjp and the arrays it reads) stays, and a repeated
        backward() starts again from zero.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        seen = set()
        stack = [(self.node, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.vjp is not None and node.grad is not None:
                node.vjp(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


def _node_of(x):
    """The tape node of a Var, None for a plain value."""
    return x.node if isinstance(x, Var) else None


def _node(data, inputs, vjp):
    """A Var of data whose node has vjp and, as parents, the nodes of the
    Vars among the op's inputs; a plain array when no input is a Var."""
    parents = tuple(p.node for p in inputs if isinstance(p, Var))
    if not parents:
        return np.asarray(data)
    out = Var(data)
    out.node.parents = parents
    out.node.vjp = vjp
    return out


def _accum(node, g):
    """Add g into the gradient of node (nothing for None, a plain input)."""
    if node is not None:
        node.grad = g if node.grad is None else node.grad + g


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


def _unary(a, y, grad):
    """Tape node of the output y of a one-input op on a: its vjp adds
    grad(g) into a's node. grad may capture the arrays it reads and
    shapes, never a Var."""
    node = _node_of(a)
    return _node(y, (a,), lambda g: _accum(node, grad(g)))


def _binary(a, b, y, grad_a, grad_b):
    """Tape node of the output y of a two-input op on a and b, which numpy
    may have broadcast: its vjp adds grad_a(g), summed back to a's shape,
    into a's node, then grad_b(g), summed back to b's, into b's. It keeps
    only a traced side's gradient function, so what grad_a or grad_b
    captures (arrays and shapes, never a Var) is held only for a gradient
    that backward takes."""
    sides = [(x.node, x.data.shape, grad)
             for x, grad in ((a, grad_a), (b, grad_b)) if isinstance(x, Var)]

    def vjp(g):
        for node, shape, grad in sides:
            _accum(node, _unbroadcast(grad(g), shape))

    return _node(y, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    return _binary(a, b, val(a) + val(b), lambda g: g, lambda g: g)


def sub(a, b):
    return _binary(a, b, val(a) - val(b), lambda g: g, lambda g: -g)


def mul(a, b):
    va, vb = val(a), val(b)
    return _binary(a, b, va * vb, lambda g: g * vb, lambda g: g * va)


def div(a, b):
    va, vb = val(a), val(b)
    return _binary(a, b, va / vb, lambda g: g / vb,
                   lambda g: -g * va / (vb * vb))


def power(a, p):
    """a ** p for a constant, nonzero exponent p."""
    va = val(a)
    return _unary(a, va ** p, lambda g: g * p * va ** (p - 1))


def log(a):
    va = val(a)
    return _unary(a, np.log(va), lambda g: g / va)


def tanh(a):
    y = np.tanh(val(a))
    return _unary(a, y, lambda g: g * (1.0 - y * y))


def sigmoid(a):
    va = val(a)
    e = np.exp(-np.abs(va))
    y = np.where(va >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _unary(a, y, lambda g: g * y * (1.0 - y))


def relu(a):
    va = val(a)
    mask = va > 0 if isinstance(a, Var) else None
    return _unary(a, np.maximum(va, 0.0), lambda g: g * mask)


def absolute(a):
    va = val(a)
    return _unary(a, np.abs(va), lambda g: g * np.sign(va))


def sin(a):
    va = val(a)
    return _unary(a, np.sin(va), lambda g: g * np.cos(va))


def cos(a):
    va = val(a)
    return _unary(a, np.cos(va), lambda g: -g * np.sin(va))


def clip(a, lo, hi):
    """Clamp with zero gradient outside (lo, hi)."""
    va = val(a)
    inside = (va > lo) & (va < hi)
    return _unary(a, np.clip(va, lo, hi), lambda g: g * inside)


def where_mask(mask, a, b):
    """Elementwise select by a constant boolean mask (gradient splits)."""
    m = np.asarray(mask, dtype=bool)
    va, vb = val(a), val(b)
    return _binary(a, b, np.where(m, va, vb), lambda g: g * m,
                   lambda g: g * ~m)


# ---------------------------------------------------------------------------
# linear algebra / shape ops


def matmul(a, b, rebuild_a=None, rebuild_b=None):
    """2D@2D and batched 3D@3D; the only shapes the pipeline needs.

    rebuild_a (rebuild_b): a function of no arguments that returns a's
    (b's) value again, bit for bit. When it is given, the vjp calls it for
    that operand instead of holding the array."""
    va, vb = val(a), val(b)
    na, nb = np.ndim(va), np.ndim(vb)
    if na != nb or na not in (2, 3):
        raise ValueError(f"unsupported matmul ranks: {na} @ {nb}")
    value_a = rebuild_a or (lambda: va)
    value_b = rebuild_b or (lambda: vb)
    return _binary(a, b, np.matmul(va, vb),
                   lambda g: np.matmul(g, value_b().swapaxes(-1, -2)),
                   lambda g: np.matmul(value_a().swapaxes(-1, -2), g))


def sum_(a, axis=None):
    va = np.asarray(val(a))
    shape = va.shape

    def grad(g):
        gg = np.asarray(g)
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, shape).copy()

    return _unary(a, va.sum(axis=axis), grad)


def mean(a):
    """Mean of all entries."""
    return div(sum_(a), float(np.size(val(a))))


def reshape(a, shape):
    va = np.asarray(val(a))
    shape_in = va.shape
    return _unary(a, va.reshape(shape), lambda g: g.reshape(shape_in))


def transpose(a, axes=None):
    inv = None if axes is None else np.argsort(axes)
    return _unary(a, np.transpose(val(a), axes), lambda g: np.transpose(g, inv))


def concat(parts, axis=0):
    vs = [val(p) for p in parts]
    y = np.concatenate(vs, axis=axis)
    sizes = [v.shape[axis] for v in vs]
    offsets = np.cumsum([0] + sizes)
    nodes = [_node_of(p) for p in parts]

    def vjp(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(node, g[tuple(sl)])

    return _node(y, parts, vjp)


def stack(parts, axis=0):
    vs = [val(p) for p in parts]
    y = np.stack(vs, axis=axis)
    nodes = [_node_of(p) for p in parts]

    def vjp(g):
        for i, node in enumerate(nodes):
            _accum(node, np.take(g, i, axis=axis))

    return _node(y, parts, vjp)


def getitem(a, idx):
    va = val(a)
    shape, dtype = np.shape(va), np.result_type(va)

    def grad(g):
        ga = np.zeros(shape, dtype=dtype)
        np.add.at(ga, idx, g)
        return ga

    return _unary(a, va[idx], grad)


def softmax(a):
    """Numerically stable softmax along the last axis."""
    va = np.asarray(val(a))
    shifted = va - va.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)

    return _unary(a, y, grad)


# bytes of one block of float64 intermediates in the blocked ops: the scores
# of `attention` when all its heads' fit (past that, `_TILE_BYTES` sets its
# tiles), and the generated kernels of `dynamic_filter` (a block of cells)
# and the columns of its kernel gradient (a block of kernel rows). 8 MiB
# holds the [8, 300, 300] scores of a 300-query model's self-attention,
# which then keeps the dense softmax's bits, so fits follow the same
# trajectory (a last-bit change can flip a top-k query choice a few steps
# later). `dynamic_filter` runs as fast in blocks of 128 to 2,048 rows.
_BLOCK_BYTES = 8 * 2**20

# bytes of one tile of `attention`'s scores past `_BLOCK_BYTES`: 256 rows x
# 256 keys of one head; also of a block of rows of each projection that
# `attention_keys` makes (2,048 rows at C = 32), and of the concatenated
# rows of a block of `concat_linear` (1,024 cells of the fusion's camera
# and LiDAR channels at C = 32). A tile's scores, keys and
# values stay in L2 over its two products. Timed on a 2-vCPU host (2 MiB of
# L2 per core), medians of 5 calls: the [8, 300, 32,400] forward of
# `standard` cross-attention, when each call still copied every head's
# strided k and v into its operands, took 0.32, 0.27, 0.24, 0.21,
# 0.19 and 0.21 s in tiles of 64 KiB to 2 MiB (doubling), against 0.25 s
# for blocks of one head's 32 rows over all keys; its vjp 0.48, 0.47, 0.53
# and 0.53 s at 256 KiB to 2 MiB (1.08 s in those blocks); the 900-query
# self-attention 0.017, 0.016, 0.017 and 0.021 s (0.023 s). Tiles of 32 x
# 2,048, 64 x 1,024 and 128 x 512 keys ran within 4% of 256 x 256. A
# tile's products, up to [256, 256] @ [256, 5], give the same bits under
# one and two OpenBLAS threads, as did each product tried of up to 2.6
# million multiply-adds; [32, 32,400] @ [32,400, 5] (5.2 million) and
# [900, 900] @ [900, 5] did not. So did the [2,048, 32] @ [32, 32] products
# of `attention_keys`' blocks (2.1 million).
_TILE_BYTES = 2**19

# Largest row bound ||q_i|| max_j ||k_j|| that `attention` takes as a row's
# softmax shift past the budget. Every score of the row lies within the
# bound (Cauchy-Schwarz), so its largest exp(s - bound) is at least
# exp(-2 bound) >= exp(-600), a normal double; past exp(-708) a whole row
# could underflow to 0 and its output be 0 / 0. At the default config the
# bounds stay near 4 in self-attention and 0.2 in `standard`
# cross-attention (4.3 and 0.22 on scene seed 1000).
_SHIFT_LIMIT = 300.0


def _spans(n, step):
    """Slices of `step` indices covering range(n), the last maybe fewer."""
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _attention_blocks(h, nq, nk):
    """Tile plan of ``attention`` for h heads, nq query rows and nk keys:
    (dense, row_blocks, key_tiles), which every head walks, each block of
    rows over every key tile. When all heads' scores fit `_BLOCK_BYTES`
    (dense), there is one tile, the whole head. Otherwise a tile's scores
    fit `_TILE_BYTES`: isqrt(`_TILE_BYTES` / 8) keys (all of them if fewer)
    and as many query rows as fit with them, 256 x 256 at the default; the
    last block of rows and the last of keys may be smaller."""
    dense = 8 * h * nq * nk <= _BLOCK_BYTES
    if dense:
        rows, keys = nq, nk
    else:
        keys = min(nk, max(1, math.isqrt(_TILE_BYTES // 8)))
        rows = max(1, _TILE_BYTES // (8 * keys))
    return dense, _spans(nq, rows), _spans(nk, keys)


def _gemm_row_blocks(n, step):
    """Slices of `step` >= 2 rows covering range(n), the last maybe fewer.
    numpy takes a one-row product through gemv, which sums in another order
    than gemm: a last one-row block joins the one before."""
    blocks = _spans(n, step)
    if n > 1 and n % step == 1:
        blocks[-2:] = [slice(n - step - 1, n)]
    return blocks


def concat_linear(parts, w, b):
    """The affine map [p_1 | … | p_m] wᵀ + b of the column concatenation of
    the [N, d_i] rows parts, without the [N, Σ d_i] concatenation: the
    concatenate-then-convolve fuser of BEVFusion (Liu et al., arXiv
    2205.13542) on per-cell rows. w: [C, Σ d_i]; b: [C]. Returns [N, C].

    The forward concatenates, multiplies and biases `_TILE_BYTES` //
    (8 Σ d_i) rows at a time (`_gemm_row_blocks`), straight into the
    output, so every value has the bits of ``concat`` followed by
    `tensor.linear_apply`. The vjp takes that composition's gradients
    whole: d(b) is g summed back to b's shape, d(w) is (Xᵀ g)ᵀ for the
    concatenation X, made again for it instead of held on the tape, and
    each part's gradient is its columns of g w. So gradients keep the bits
    of the composition too.
    """
    vs = [val(p) for p in parts]
    vw, vb = val(w), val(b)
    n = np.shape(vs[0])[0]
    offsets = np.cumsum([0] + [np.shape(v)[1] for v in vs])
    if any(np.shape(v)[0] != n for v in vs) or vw.shape[1] != offsets[-1]:
        raise ValueError(
            f"concat_linear: parts {[np.shape(v) for v in vs]} and weight "
            f"{vw.shape} do not agree")
    out = np.empty((n, vw.shape[0]), dtype=np.result_type(*vs, vw, vb))
    for r in _gemm_row_blocks(n, max(2, _TILE_BYTES // (8 * offsets[-1]))):
        np.matmul(np.concatenate([v[r] for v in vs], axis=1), vw.T,
                  out=out[r])
        out[r] += vb
    nodes = [_node_of(p) for p in parts]
    w_node, b_node = _node_of(w), _node_of(b)

    def vjp(g):
        if b_node is not None:
            _accum(b_node, _unbroadcast(g, vb.shape))
        if w_node is not None:
            _accum(w_node, np.transpose(np.matmul(
                np.concatenate(vs, axis=1).T, g)))
        if any(node is not None for node in nodes):
            d_both = np.matmul(g, vw)
            for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
                _accum(node, d_both[:, lo:hi])

    return _node(out, (*parts, w, b), vjp)


def attention_keys(x, w_k, w_v, b_v, n_heads):
    """The operands of ``attention`` for the keys k = x w_kᵀ (no bias: it
    would shift each row's scores alike) and the values v = x w_vᵀ + b_v of
    the rows x [Nk, C], split into n_heads heads (channel i dh + j of a row
    is channel j of head i).

    Returns (kt, v, k_norm): kt = [kᵀ ; 1] [h, dh + 1, Nk], v = [v | 1]
    [h, Nk, dv + 1], and k_norm [h], each head's largest key norm. The two
    products are made `_TILE_BYTES` // (8 C) rows at a time
    (`_gemm_row_blocks`) and written straight into kt and v, whose ones are
    set once: no [Nk, C] projection exists, and every value has the bits
    of the whole product (plus its bias), as `linear_apply` makes them.
    ``attention`` reads these arrays in every call, so a caller that
    attends to the same rows again (the decoder's layers, to the BEV cells)
    builds them once.

    kt and v are one tape node each, whose gradient has their shape (the
    ones get none). Each vjp takes the [Nk, C] rows G of that gradient
    through the projection as `linear_apply`'s nodes would, adding G w to
    d(x), (xᵀ G)ᵀ to d(w) and, for v, G's column sums to d(b_v), so
    gradients keep the bits of that composition.
    """
    vx, vwk, vwv, vbv = map(val, (x, w_k, w_v, b_v))
    n, c = vx.shape
    dk, dv = vwk.shape[0] // n_heads, vwv.shape[0] // n_heads
    dtype = np.result_type(vx, vwk, vwv, vbv)
    kt = np.ones((n_heads, dk + 1, n), dtype=dtype)
    v = np.ones((n_heads, n, dv + 1), dtype=dtype)
    k_max = np.full(n_heads, -np.inf, dtype=dtype)
    step = max(2, _TILE_BYTES // (8 * c))
    for r in _gemm_row_blocks(n, step):
        k = (vx[r] @ vwk.T).reshape(-1, n_heads, dk)
        kt[:, :dk, r] = k.transpose(1, 2, 0)
        np.maximum(k_max, (k * k).sum(axis=-1).max(axis=0), out=k_max)
        vb = vx[r] @ vwv.T
        vb += vbv
        v[:, r, :dv] = vb.reshape(-1, n_heads, dv).transpose(1, 0, 2)
    x_node = _node_of(x)

    def back(w, w_node, b_node, rows_of):
        def vjp(g):
            rows = rows_of(g)  # [Nk, C]
            if x_node is not None:
                _accum(x_node, np.matmul(rows, w))
            if w_node is not None:
                _accum(w_node, np.transpose(np.matmul(vx.swapaxes(-1, -2),
                                                      rows)))
            if b_node is not None:
                _accum(b_node, rows.sum(axis=0))
        return vjp

    # G's layout decides the bits of its column sums and products: the k
    # rows are a column-major view of a contiguous [h, dh, Nk] and the v
    # rows a row-major copy, as `linear_apply` split into heads has them
    kt = _node(kt, (x, w_k), back(
        vwk, _node_of(w_k), None,
        lambda g: np.ascontiguousarray(g[:, :dk]).transpose(2, 0, 1).reshape(
            n, -1)))
    v = _node(v, (x, w_v, b_v), back(
        vwv, _node_of(w_v), _node_of(b_v),
        lambda g: g[..., :dv].transpose(1, 0, 2).reshape(n, -1)))
    return kt, v, np.sqrt(k_max)


def attention(q, kt, v, k_norm):
    """Softmax attention softmax(q kᵀ) v without the [h, Nq, Nk] scores.

    q: [h, Nq, dh], already scaled by 1/sqrt(dh); kt = [kᵀ ; 1]
    [h, dh + 1, Nk], v = [v | 1] [h, Nk, dv + 1] and k_norm [h], each
    head's largest key norm, as `attention_keys` makes them. Returns
    [h, Nq, dv]. `_attention_blocks` gives one plan of blocks of query rows
    and tiles of keys, and the forward and the vjp walk every head through
    it, one head's block of rows times one tile of keys at a time, keeping
    only each row's shift and sum between them. ``np.matmul`` on a stack of
    heads runs the same product per head, so splitting by head changes no
    bit.

    When all heads' scores fit in `_BLOCK_BYTES`, a tile is one whole head:
    e = exp(s - max), then (e / sum) @ v, so values and gradients equal the
    dense softmax's bit for bit. Otherwise a tile's scores fit
    `_TILE_BYTES` and are made once per pass. Softmax is unchanged by a
    constant shift of a row (as in the online softmax of Milakov and
    Gimelshein, arXiv 1805.02867), so row i is shifted by the bound
    ||q_i|| max_j ||k_j|| on its scores, fixed before its first tile, and
    no tile rescales the ones before it (a block of rows whose bound passes
    `_SHIFT_LIMIT` takes its exact row maxes, tile by tile). The shift and
    the sum ride in the two products, as FlashAttention fuses the softmax's
    passes (Dao et al., arXiv 2205.14135): per tile, s = [q | -shift] @
    [kᵀ ; 1], exp in place, and p += s @ [v | 1], whose last column divides
    the rest after the row's last tile. Both are read in place: no call
    copies kt or v. The values differ from the dense softmax's in the last
    bits, but not with the number of OpenBLAS threads: a tile's products
    are small enough to give the same bits under one and two (see
    `_TILE_BYTES`).

    So the heads of one call are independent bit for bit only on one side
    of the budget: a head of a many-head call past it may differ in the
    last bits from the same head called alone within it. The vjp recomputes
    each tile's probabilities from the kept shift and sum, and takes
    dS = P ∘ (dP - D) with dP = g vᵀ. Within the budget D = rowsum(dP ∘ P);
    past it, as in FlashAttention-2 (Dao, arXiv 2307.08691), the equal
    D_i = g_i · out_i, so no whole row of scores is held: per tile,
    dv += pᵀ g, ds = p ∘ (g vᵀ - D), dq += ds k and dk += dsᵀ q.
    """
    vq, vk, vv = val(q), val(kt), val(v)
    q_node, k_node, v_node = map(_node_of, (q, kt, v))
    h, nq, dh = vq.shape
    nk, dv = vv.shape[1], vv.shape[2] - 1
    dtype = np.result_type(vq, vk, vv)
    out = np.empty((h, nq, dv), dtype=dtype)
    shift = np.empty((h, nq, 1), dtype=dtype)
    row_sum = np.empty((h, nq, 1), dtype=dtype)
    dense, row_blocks, key_tiles = _attention_blocks(h, nq, nk)
    heads = [slice(i, i + 1) for i in range(h)]
    if dense:
        # contiguous [h, Nk, dh] keys and [h, Nk, dv] values: a strided k
        # makes the q kᵀ products up to twice as slow when a block holds
        # few rows, and kt's own [h, dh, Nk] layout gives other last bits
        vk = np.swapaxes(np.ascontiguousarray(np.swapaxes(vk[:, :dh], 1, 2)),
                         1, 2)
        vv = np.ascontiguousarray(vv[..., :dv])

        def query_operand(hs, b):
            return vq[hs, b]

        def exp_scores(a, kt_c, hs, b):
            s = np.matmul(a, kt_c)
            s -= shift[hs, b]
            return np.exp(s, out=s)
    else:
        # each row's bound on its scores
        shift[...] = np.sqrt((vq * vq).sum(axis=-1, keepdims=True))
        shift *= k_norm[:, None, None]

        def query_operand(hs, b):
            """[q | -shift] [1, rows, dh + 1] of the block of rows b."""
            qa = np.empty((1, b.stop - b.start, dh + 1), dtype=dtype)
            qa[..., :dh] = vq[hs, b]
            qa[..., dh:] = -shift[hs, b]
            return qa

        def exp_scores(a, kt_c, hs, b):
            s = np.matmul(a, kt_c)
            return np.exp(s, out=s)

    for hs in heads:
        kt_h, v_h = vk[hs], vv[hs]
        for b in row_blocks:
            if dense:  # the dense softmax's probabilities, then times v
                s = np.matmul(vq[hs, b], kt_h)
                shift[hs, b] = s.max(axis=-1, keepdims=True)
                s -= shift[hs, b]
                np.exp(s, out=s)
                row_sum[hs, b] = s.sum(axis=-1, keepdims=True)
                s /= row_sum[hs, b]
                out[hs, b] = np.matmul(s, v_h)
                del s  # before the next block's scores are made
                continue
            # past the limit, exp(s - bound) could underflow a whole row:
            # the block takes its exact row maxes, tile by tile, instead
            # (also when a bound is inf or NaN)
            if not shift[hs, b].max() <= _SHIFT_LIMIT:
                m = shift[hs, b]
                m[...] = -np.inf
                for c in key_tiles:
                    np.maximum(m, np.matmul(vq[hs, b], kt_h[:, :dh, c]).max(
                        axis=-1, keepdims=True), out=m)
            qa = query_operand(hs, b)
            p = sum(np.matmul(exp_scores(qa, kt_h[..., c], hs, b), v_h[:, c])
                    for c in key_tiles)
            row_sum[hs, b] = p[..., dv:]
            out[hs, b] = p[..., :dv] / row_sum[hs, b]

    def vjp(g):
        qt = np.swapaxes(vq, 1, 2)
        dq = np.zeros(vq.shape, dtype=dtype)
        dkt = np.zeros((h, dh + 1, nk), dtype=dtype)
        dvv = np.zeros((h, nk, dv + 1), dtype=dtype)
        for hs in heads:
            kt_h, v_h = vk[hs], vv[hs]
            for b in row_blocks:
                a = query_operand(hs, b)
                gb = g[hs, b]
                if not dense:
                    d = (gb * out[hs, b]).sum(axis=-1, keepdims=True)
                for c in key_tiles:
                    p = exp_scores(a, kt_h[..., c], hs, b)
                    p /= row_sum[hs, b]
                    dvv[hs, c, :dv] += np.matmul(np.swapaxes(p, 1, 2), gb)
                    ds = np.matmul(gb, np.swapaxes(v_h[:, c, :dv], 1, 2))
                    ds -= (ds * p).sum(axis=-1, keepdims=True) if dense else d
                    ds *= p
                    del p
                    dq[hs, b] += np.matmul(
                        ds, np.swapaxes(kt_h[:, :dh, c], 1, 2))
                    dkt[hs, :dh, c] += np.matmul(qt[hs, :, b], ds)
                    del ds
        _accum(q_node, dq)
        _accum(k_node, dkt)
        _accum(v_node, dvv)

    return _node(out, (q, kt, v), vjp)


def _kernel_row_blocks(n, c):
    """Block plan of ``dynamic_filter``'s d(K) for n rows and C channels:
    slices of kernel rows, budget // (8 n C) per block, whose [n, rows C]
    columns of d(K) fit in the budget (at least one kernel row)."""
    return _spans(c, max(1, _BLOCK_BYTES // (8 * n * c)))


def _filter_row_blocks(n, c):
    """Row blocks of ``dynamic_filter``'s forward, budget // (8 C²) rows
    (at least two, `_gemm_row_blocks`)."""
    return _gemm_row_blocks(n, max(2, _BLOCK_BYTES // (8 * c * c)))


def dynamic_filter(x, z, w, b):
    """Row times its own generated kernel: out[n] = x[n] @ K[n] with
    K[n] = reshape(z[n] @ wᵀ + b, (C, C)), a dynamic filter (Jia et al.,
    arXiv 1605.09673) without the [N, C²] kernels.

    x: [N, C] rows; z: [N, D] generator inputs; w: [C², D]; b: [C²].
    Returns [N, C]. Each row's kernel is used by that row only, so the
    forward generates and applies the kernels of a block of budget // (8 C²)
    rows before it starts the next. A block's kernels are one product
    [z_r | 1] @ [wᵀ ; b], whose bias row is built once per call, so no pass
    over the block adds the bias. OpenBLAS (0.3.31) gave that product the
    bits of z_r @ wᵀ + b for 1 to 32,400 rows and C = D of 4 to 32, under
    one and two threads, and every row's product equals the dense
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
    x_node, z_node, w_node, b_node = map(_node_of, (x, z, w, b))
    n, c = vx.shape
    if vw.shape[0] != c * c or np.shape(vz) != (n, vw.shape[1]):
        raise ValueError(
            f"dynamic_filter: rows {vx.shape}, generator inputs "
            f"{np.shape(vz)} and weight {vw.shape} do not agree")
    d = vw.shape[1]
    dtype = np.result_type(vx, vz, vw, vb)
    # [w | b], so that a block's kernels are the one product
    # [z_r | 1] @ [wᵀ ; b], whose last multiply-add adds the bias
    wb = np.empty((c * c, d + 1), dtype=dtype)
    wb[:, :d] = vw
    wb[:, d] = vb
    row_blocks = _filter_row_blocks(n, c)

    def kernels(rows):
        zb = np.empty((rows.stop - rows.start, d + 1), dtype=dtype)
        zb[:, :d] = vz[rows]
        zb[:, d] = 1.0
        return (zb @ wb.T).reshape(-1, c, c)

    out = np.empty((n, c), dtype=dtype)
    for r in row_blocks:
        out[r] = np.matmul(vx[r, None], kernels(r))[:, 0]

    def vjp(g):
        g3 = np.ascontiguousarray(g).reshape(n, 1, c)
        if x_node is not None:
            dx = np.empty_like(out)
            for r in row_blocks:
                dx[r] = np.matmul(g3[r], kernels(r).swapaxes(-1, -2))[:, 0]
            _accum(x_node, dx)
        if z_node is None and w_node is None and b_node is None:
            return
        db = np.empty(c * c, dtype=out.dtype)
        dw = np.empty(vw.shape, dtype=out.dtype)
        dz = None if z_node is None else np.zeros(np.shape(vz), out.dtype)
        for rows in _kernel_row_blocks(n, c):
            cols = slice(rows.start * c, rows.stop * c)
            # the [N, 1] x [1, C] products that the dense d(K) holds, exactly
            dkb = (vx[:, rows, None] * g3).reshape(n, -1)
            if b_node is not None:
                db[cols] = dkb.sum(axis=0)
            if w_node is not None:
                dw[cols] = dkb.T @ vz
            if dz is not None:
                dz += dkb @ vw[cols]
            del dkb  # before the next block's columns are made
        _accum(b_node, db)
        _accum(w_node, dw)
        _accum(z_node, dz)

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

    def grad(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        return (g - gm - y * gy) / s

    return _unary(a, y, grad)


def _bilinear(rows, H, W, vx, vy, d_map, d_x, d_y):
    """Bilinear samples at N points (vx, vy) of the plain map whose cells
    are the [H*W, C] rows `rows`, in `tensor.chw_to_cells` order, and the
    vjp of the inputs whose flag is set.

    Returns (samples [N, C], valid [N], back). back(g) returns the gradients
    (map [C, H, W], xs, ys), None where the flag is off. It keeps the corner
    indices and weights, the mask, and the [N, C] corner difference d/dx
    (when d_x) and d/dy (when d_y), not the four [N, C] corner gathers,
    whose memory the output's terms reuse.
    """
    C = rows.shape[1]
    valid = (vx >= 0) & (vx <= W - 1) & (vy >= 0) & (vy <= H - 1)

    xc = np.clip(np.nan_to_num(vx), 0.0, W - 1.0)
    yc = np.clip(np.nan_to_num(vy), 0.0, H - 1.0)
    x0 = np.minimum(np.floor(xc), max(W - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(yc), max(H - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    fx = (xc - x0)[:, None]  # [N, 1] weight columns
    fy = (yc - y0)[:, None]
    gx = 1 - fx
    gy = 1 - fy
    corners = (y0 * W + x0, y0 * W + x1, y1 * W + x0, y1 * W + x1)

    v00, v01, v10, v11 = (rows[r] for r in corners)  # [N, C]
    ddx = ddy = None
    if d_x:  # (v01 - v00) gy + (v11 - v10) fy
        ddx = np.subtract(v01, v00)
        ddx *= gy
        term = np.subtract(v11, v10)
        term *= fy
        ddx += term
    if d_y:  # (v10 - v00) gx + (v11 - v01) fx
        ddy = np.subtract(v10, v00)
        ddy *= gx
        term = np.subtract(v11, v01)
        term *= fx
        ddy += term
    # (v00 gx) gy + (v01 fx) gy + (v10 gx) fy + (v11 fx) fy, added left to
    # right, each corner weighted in place
    out = v00
    out *= gx
    out *= gy
    for v, wx, wy in ((v01, fx, gy), (v10, gx, fy), (v11, fx, fy)):
        v *= wx
        v *= wy
        out += v
    out *= valid[:, None]

    def back(g):
        gv = g * valid[:, None]  # [N, C]
        gmap = None
        if d_map:
            # one flat scatter per corner, at element r C + c of the rows
            acc = np.zeros(H * W * C)
            chans = np.arange(C)
            for r, w in zip(corners, ((1 - fx) * (1 - fy), fx * (1 - fy),
                                      (1 - fx) * fy, fx * fy)):
                np.add.at(acc, (r[:, None] * C + chans).ravel(),
                          (gv * w).ravel())
            gmap = acc.reshape(H * W, C).T.reshape(C, H, W)
        return (gmap,
                None if ddx is None else (gv * ddx).sum(axis=1),
                None if ddy is None else (gv * ddy).sum(axis=1))

    return out, valid, back


def _cell_rows(vf):
    """The [C, H, W] map vf as [H*W, C] rows (a view when vf is one)."""
    C, H, W = vf.shape
    return np.ascontiguousarray(np.transpose(vf, (1, 2, 0))).reshape(H * W, C)


def bilinear_gather(fmap, xs, ys):
    """Bilinear samples of a [C, H, W] map at N continuous (x, y) points.

    x indexes columns (width), y indexes rows (height). Points outside the
    closed box [0, W-1] x [0, H-1], and NaN points, yield a zero row.
    Differentiable in the map and in both coordinate arrays: a traced
    call's tape keeps only the state of `_bilinear`'s vjp, and an untraced
    call computes no corner difference.

    The map's cells are gathered as rows of `_cell_rows(fmap)`: a copy of
    a plain [C, H, W] map, free for one that is a view of cell rows, as
    `tensor.cells_to_chw` makes.

    Returns the samples [N, C].
    """
    vf = val(fmap)
    _, H, W = vf.shape
    out, _, back = _bilinear(_cell_rows(vf), H, W, val(xs), val(ys),
                             isinstance(fmap, Var), is_traced(xs),
                             is_traced(ys))

    nodes = [_node_of(p) for p in (fmap, xs, ys)]

    def vjp(g):
        for node, d in zip(nodes, back(g)):
            _accum(node, d)

    return _node(out, (fmap, xs, ys), vjp)


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

    Each scale's levels are copied to cell rows once, before its heights.
    The first term is pooled in the output itself and every later one in
    one [N, C] scratch array, divided (into a new array, the kept mean, in
    a traced call) and weighted in place.

    Differentiable in the maps, the coordinates and the weights. A traced
    call keeps each term's camera mean and denominator and, per camera, its
    `_bilinear` vjp, its lanes and the nodes of its map and coordinates.
    Values and gradients are those of the same expressions as separate
    nodes.
    """
    vw = val(weights)
    n = vw.shape[0]
    n_h, n_cams, n_s = len(lanes), len(levels), len(levels[0])
    maps = [fmap for cam in levels for _, fmap in cam]
    coords = [c for row in lanes for _, x, y in row for c in (x, y)]
    traced = is_traced(*maps, *coords, weights)
    w_node = _node_of(weights)
    c = np.shape(val(maps[0]))[0]
    out = np.zeros((n, c))
    scratch = np.empty((n, c))
    valid = np.zeros(n)
    terms = []
    for j in range(n_s):
        cells = [_cell_rows(val(levels[k][j][1])) for k in range(n_cams)]
        for i in range(n_h):
            feat_sum = out if j == i == 0 else scratch
            feat_sum.fill(0.0)
            count = np.zeros(n)
            backs = []
            for k in range(n_cams):
                idx, x, y = lanes[i][k]
                stride, fmap = levels[k][j]
                _, h, w = np.shape(val(fmap))
                rows, ok, back = _bilinear(
                    cells[k], h, w, val(x) / float(stride),
                    val(y) / float(stride), isinstance(fmap, Var),
                    isinstance(x, Var), isinstance(y, Var))
                feat_sum[idx] += rows
                count[idx] += ok
                if traced:
                    backs.append((back, idx, float(stride), _node_of(fmap),
                                  _node_of(x), _node_of(y)))
            valid += count
            denom = np.maximum(count, 1.0)[:, None]
            weight = vw[:, j * n_h + i].reshape(n, 1)
            # a traced call keeps the camera mean as its own array
            mean = np.divide(feat_sum, denom, out=None if traced else feat_sum)
            if traced:
                terms.append((j, i, mean, denom, backs))
            np.multiply(mean, weight, out=feat_sum)
            if feat_sum is not out:
                out += feat_sum

    def vjp(g):
        dw = np.zeros_like(vw) if w_node is not None else None
        for j, i, mean, denom, backs in terms:
            col = j * n_h + i
            if dw is not None:
                dw[:, col] += (g * mean).sum(axis=1)
            g_sum = g * vw[:, col].reshape(n, 1) / denom
            for back, idx, stride, map_node, x_node, y_node in backs:
                dmap, dx, dy = back(g_sum[idx])
                _accum(map_node, dmap)
                if dx is not None:
                    _accum(x_node, dx / stride)
                if dy is not None:
                    _accum(y_node, dy / stride)
        _accum(w_node, dw)

    # backward's depth-first walk takes the last parent first: the weights,
    # then the coordinates from the last height and camera back. The
    # separate gather, divide, scatter and multiply nodes were reached in
    # that order too, so the gradients passed upstream add up alike
    return _node(out, (*maps, *coords, weights), vjp), valid


# ---------------------------------------------------------------------------
# parameter-tree utilities for the fitting routine


def map_tree(fn, obj, path=""):
    """Rebuild a tree of dataclasses, lists and tuples, visiting fields and
    items in order, with each other node x replaced by fn(path, x). x's
    path extends the root's by ".field" per field and "[i]" per item."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{
            f.name: map_tree(fn, getattr(obj, f.name),
                             f"{path}.{f.name}" if path else f.name)
            for f in dataclasses.fields(obj)})
    if isinstance(obj, (list, tuple)):
        return type(obj)(map_tree(fn, x, f"{path}[{i}]")
                         for i, x in enumerate(obj))
    return fn(path, obj)


def tree_leaves(obj, path=""):
    """[(path, x)] for the nodes `map_tree` passes to fn, in its order."""
    leaves = []

    def visit(p, x):
        leaves.append((p, x))
        return x

    map_tree(visit, obj, path)
    return leaves


def lift_tree(obj):
    """Deep-copy a parameter tree, replacing every ndarray leaf by a
    trainable Var. Returns (lifted, ordered list of Vars)."""
    lifted = map_tree(
        lambda _, x: Var(x.copy()) if isinstance(x, np.ndarray) else x, obj)
    return lifted, [x for _, x in tree_leaves(lifted) if isinstance(x, Var)]


def unlift_tree(obj):
    """Inverse of lift_tree: Var leaves back to plain ndarrays."""
    return map_tree(
        lambda _, x: x.data.copy() if isinstance(x, Var) else x, obj)


def sgd_step(params, lr):
    """In-place gradient-descent update; consumes and clears .grad."""
    for v in params:
        if v.grad is not None:
            v.data = v.data - lr * v.grad
            v.grad = None
