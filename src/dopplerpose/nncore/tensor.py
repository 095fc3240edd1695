"""Reverse-mode automatic differentiation over numpy arrays.

Small on purpose: dense tensors, the op set needed by the conv/recurrent
models in this package, and a topological-order backward pass. The ops are
elementwise arithmetic and activations, reductions, reshape/transpose/
indexing/concat, 2-D matmul, channel-last (B, W, C) `conv1d`,
`batch_norm_relu` (batch normalization of the last axis and the ReLU after
it) as one node with the closed-form backward, and `lstm_layer`: a whole
(bi)LSTM layer as one node whose directions step together, with a
hand-written backpropagation-through-time backward. Float32 by default;
gradient-check tests run the same graphs in float64.

What each training node keeps for its backward, besides its parents and its
output:
- `conv1d` (unpadded, always with a bias): nothing. Its im2col columns,
  tap major, (K, C_in) per output position (K. Chellapilla et al., "High
  Performance Convolutional Neural Networks for Document Processing", 2006),
  live only for the forward GEMM. Backward takes the weight gradient one tap
  at a time from the input, its parent, and col2im is K strided adds, one
  product each, so neither the columns nor their gradient is ever held whole
  (storing less and recomputing the rest: T. Chen et al., "Training Deep
  Nets with Sublinear Memory Cost", 2016).
- `batch_norm_relu`: the F-long mean and 1/std. Backward recomputes the
  normalised input from the input with the forward's ops, and masks the
  incoming gradient with its output, so no pre-ReLU copy is kept.
- `lstm_layer`: the gates, cells and tanh(cells) of every step; the hidden
  states the weight gradient pairs with dz are read from its output. Its step
  loop works in place in preallocated buffers, and each direction's bias is
  added to its contiguous input projection, which one direction steps through
  in place and two copy into one step-ordered buffer. The loop walks zipped
  per-step rows of those buffers, so a step indexes no array: without a graph
  to record, the one kept row of gates and cells is repeated for every step.
  Backward walks the same rows back and computes each step's derivative
  factors from them, so it builds no whole-sequence derivative array.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain, repeat

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the context (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array plus an optional gradient buffer and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def _accumulate(self, g):
        # `add` passes its gradient on to both parents, and `reshape`,
        # `transpose` and `concat` pass views of it: a stored gradient may be
        # shared, so it is never written in place.
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def backward(self):
        """Reverse-mode accumulation from a scalar root; it consumes the graph.

        Leaves keep their gradients. The pass pops each node off the
        topological list as it runs it, and an interior node drops its
        gradient, its backward closure and its parent links as soon as that
        closure has run. Its consumers have all run by then, so a node the
        caller does not hold is freed, with its array and what its closure
        saved, before the next node runs; one the caller holds keeps its
        `.data`. A second backward from the same root does nothing.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.data.shape}")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, None, ()

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    out._parents = tuple(parents) if needs else ()
    out._backward = backward_fn if needs else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise ------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b, like=a)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b):
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(a.data / b.data, (a, b), backward)


def power(a, p: float):
    a = as_tensor(a)

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1))

    return _make(a.data ** p, (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def absolute(a):
    a = as_tensor(a)

    def backward(g):
        a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def relu(a):
    a = as_tensor(a)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _make(np.maximum(a.data, 0), (a,), backward)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


# -- reductions / shape -----------------------------------------------------

def tsum(a, axis=None):
    a = as_tensor(a)

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape))

    return _make(a.data.sum(axis=axis), (a,), backward)


def tmean(a, axis=None):
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)])

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(gg / count, a.data.shape))

    return _make(a.data.mean(axis=axis), (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = as_tensor(a)
    inv = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


def getitem(a, idx):
    """Basic indexing only: ints, slices, None and Ellipsis."""
    items = idx if isinstance(idx, tuple) else (idx,)
    if not all(isinstance(i, (int, np.integer, slice, type(None), type(Ellipsis)))
               and not isinstance(i, bool) for i in items):
        raise ValueError(f"getitem supports basic indices (ints, slices, None, ...), "
                         f"got {idx!r}")
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] += g
        a._accumulate(full)

    return _make(a.data[idx], (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


# -- normalization ----------------------------------------------------------

def batch_norm_relu(x, gamma, beta, eps: float):
    """Training-mode batch normalization of x (..., F), then ReLU -> (out, mean, var), one node.

    Statistics are per feature (last axis) over the N rows of x as (N, F), for a
    (B, W, C) conv activation over batch and width; `mean` and `var` are (F,).
    Everything is computed in x's dtype, with the numpy calls of the mean /
    centre / square / mean / add eps / sqrt / divide / scale / shift composite
    and then `relu` in the same order, so the output is bit-identical to
    relu(composite). The ReLU works in place on the output, so no pre-ReLU copy
    is ever held. Backward masks the incoming gradient with out > 0, which
    holds exactly where the pre-ReLU value is positive, as `relu` does; then
    the closed form of Ioffe & Szegedy (ICML 2015),
    dx = inv/N (N g' - sum g' - xhat sum(g' xhat)) with g' = g gamma, here as
    gamma inv/N (N g - dbeta - xhat dgamma). Besides its output, the node keeps
    only the F-long mean and 1/std: backward recomputes xhat from the input
    with the forward's ops, so bit for bit, and works in that buffer and one
    more.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    x2 = x.data.reshape(-1, x.data.shape[-1])
    n = len(x2)
    mean = x2.mean(axis=0)
    out = x2 - mean
    var = (out * out).mean(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    out *= inv
    out *= gamma.data
    out += beta.data
    np.maximum(out, 0, out=out)

    def backward(g):
        g = g.reshape(x2.shape) * (out > 0)
        dbeta = g.sum(axis=0)
        xhat = x2 - mean
        xhat *= inv
        gx = g * xhat
        dgamma = gx.sum(axis=0)
        gamma._accumulate(dgamma)
        beta._accumulate(dbeta)
        if x.requires_grad:
            dx = np.multiply(g, n, out=gx)
            dx -= dbeta
            xhat *= dgamma
            dx -= xhat
            dx *= gamma.data * inv / n
            x._accumulate(dx.reshape(x.data.shape))

    return _make(out.reshape(x.data.shape), (x, gamma, beta), backward), mean, var


# -- recurrence -------------------------------------------------------------

def _steps(a, reverse: bool):
    """A (T, B, ...) view of a (B, T, ...) array in step order: reversed runs from t = T-1 down."""
    a = a.swapaxes(0, 1)
    return a[::-1] if reverse else a


def lstm_layer(x, directions):
    """One (bi)LSTM layer over x (B, T, F) -> hidden states (B, T, D*H), one graph node.

    `directions` holds D = 1 or 2 (w_ih (F, 4H), w_hh (H, 4H), b (4H,)) triples,
    gates i, f, g, o in that column order; the second runs reversed in time, and
    each starts from a zero state. The input projections, one GEMM a direction,
    are stored step-ordered, so one loop of T steps advances all directions with
    one stacked (D, B, H) @ (D, H, 4H) matmul, one sigmoid over the 4H gate
    columns (i, f and o are read from it) and one tanh over the g columns. The
    loop walks zipped per-step rows and indexes no array, since at B=1 indexing
    costs more than the arithmetic. Each value is the one a per-direction,
    per-step composite computes, so the output is bit-identical to one. Backward
    is backpropagation through time (Hochreiter & Schmidhuber 1997; Graves 2012,
    "Supervised Sequence Labelling with RNNs", ch. 4) back up the same zipped
    rows: each step's derivative factors come from that step's stored gates and
    cells, and its dz is copied into one time-ordered (B, T, D*4H) buffer. Then
    one GEMM gives every direction's W_ih gradient, split by columns, one
    against the stacked W_ih the input gradient, summed over directions inside
    the GEMM, and a GEMM a direction the W_hh gradient, pairing dz with the
    output shifted by one step, zero before each direction's first.
    """
    x = as_tensor(x)
    directions = [tuple(as_tensor(t) for t in d) for d in directions]
    parents = (x,) + tuple(w for d in directions for w in d)
    if len(directions) not in (1, 2):
        raise ValueError(f"lstm_layer takes 1 or 2 directions, got {len(directions)}")
    dtype = x.data.dtype
    for w in parents[1:]:
        if w.data.dtype != dtype:
            raise ValueError(f"lstm_layer input is {dtype} but its weights are {w.data.dtype}")
    bsz, t_len, in_f = x.data.shape
    n_dir = len(directions)
    h_dim = directions[0][1].data.shape[0]
    x2 = x.data.reshape(bsz * t_len, in_f)

    def projection(d):
        """Direction d's input projection plus its bias, a (T, B, 4H) view in step order."""
        w_ih, _, b = directions[d]
        proj = x2 @ w_ih.data
        proj += b.data
        return _steps(proj.reshape(bsz, t_len, 4 * h_dim), d == 1)

    # one direction steps through its projection in place; two through a
    # stacked copy, made one projection at a time
    if n_dir == 1:
        pre = projection(0)[:, None]
    else:
        pre = np.empty((t_len, n_dir, bsz, 4 * h_dim), dtype=dtype)
        for d in range(n_dir):
            pre[:, d] = projection(d)
    w_hh = directions[0][1].data[None] if n_dir == 1 else np.stack([d[1].data for d in directions])
    # per step: sigmoid(i, f, o) with tanh(g) in its place, c, tanh(c) and h;
    # without a graph to record, one step's gates and cells are kept at a time
    kept = t_len if _GRAD_ENABLED and any(t.requires_grad for t in parents) else 1
    gates = np.empty((kept, n_dir, bsz, 4 * h_dim), dtype=dtype)
    cells, tanh_cells = np.empty((2, kept, n_dir, bsz, h_dim), dtype=dtype)
    hs = np.empty((t_len, n_dir, bsz, h_dim), dtype=dtype)
    h = np.zeros((n_dir, bsz, h_dim), dtype=dtype)
    c = np.zeros_like(h)
    z = np.empty((n_dir, bsz, 4 * h_dim), dtype=dtype)
    z_g = z[..., 2 * h_dim:3 * h_dim]
    ig = np.empty_like(h)
    i, f, g, o = (gates[..., j * h_dim:(j + 1) * h_dim] for j in range(4))
    # each step's rows of the kept buffers: its own when recording, else the one row
    rows = zip(gates, i, f, g, o, cells, tanh_cells)
    rows = rows if kept == t_len else repeat(next(rows))
    matmul, add, negative, exp, divide, tanh, multiply = (
        np.matmul, np.add, np.negative, np.exp, np.divide, np.tanh, np.multiply)
    one = np.ones((), dtype)  # a 0-d array: no scalar conversion per call
    # in place, outputs passed positionally and nothing indexed: at B=1 a step
    # is a dozen small ufunc calls
    for pre_s, hs_s, (a, i_s, f_s, g_s, o_s, c_s, tc_s) in zip(pre, hs, rows):
        matmul(h, w_hh, out=z)
        add(z, pre_s, z)
        negative(z, a)  # sigmoid: 1 / (1 + exp(-z))
        exp(a, a)
        add(a, one, a)
        divide(one, a, a)
        tanh(z_g, g_s)
        multiply(i_s, g_s, ig)
        c = multiply(f_s, c, c_s)
        add(c, ig, c)
        h = multiply(o_s, tanh(c, tc_s), hs_s)
    out = np.empty((bsz, t_len, n_dir * h_dim), dtype=dtype)
    for d in range(n_dir):
        _steps(out[:, :, d * h_dim:(d + 1) * h_dim], d == 1)[...] = hs[:, d]

    def backward(gout):
        gh = np.empty((t_len, n_dir, bsz, h_dim), dtype=dtype)  # gout in step order
        for d in range(n_dir):
            gh[:, d] = _steps(gout[:, :, d * h_dim:(d + 1) * h_dim], d == 1)
        # dz in time order, rows (b, t) as the input's, the directions side by
        # side; the loop works out each step's dz in one (D, B, 4H) buffer and
        # copies it into that step's rows, a direction each
        dz_t = np.empty((bsz, t_len, n_dir, 4 * h_dim), dtype=dtype)
        dz = np.empty((n_dir, bsz, 4 * h_dim), dtype=dtype)
        dz_i, dz_f, dz_g, dz_o = (dz[..., j * h_dim:(j + 1) * h_dim] for j in range(4))
        dh_next = np.zeros((n_dir, bsz, h_dim), dtype=dtype)
        dc_next = np.zeros_like(dh_next)
        dc = np.empty_like(dh_next)
        w_hh_t = w_hh.transpose(0, 2, 1)
        # walking back, each step's rows and the cell it started from (zero at
        # the first step): its derivative factors come from those rows
        c_prev = chain(cells[-2::-1], [np.zeros_like(dh_next)])
        dz_rows = zip(*(_steps(dz_t[:, :, d], d == 1)[::-1] for d in range(n_dir)))
        back = (a[::-1] for a in (gh, gates, i, f, g, o, tanh_cells))
        for gh_s, a, i_s, f_s, g_s, o_s, tc_s, cp_s, rows_s in zip(*back, c_prev, dz_rows):
            dh = gh_s + dh_next
            np.multiply(tc_s, tc_s, dc)  # dc = dh o (1 - tanh(c)^2) + dc_next
            np.subtract(one, dc, dc)
            dc *= o_s
            dc *= dh
            dc += dc_next
            # dz_i, dz_f, dz_g, dz_o = dc g, dc c_prev, dc i, dh tanh(c) times
            # their gate's derivative: a (1 - a) for the sigmoids, 1 - g^2 for g
            np.subtract(one, a, dz)
            dz *= a
            np.multiply(g_s, g_s, dz_g)
            np.subtract(one, dz_g, dz_g)
            dz_i *= g_s
            dz_i *= dc
            dz_f *= cp_s
            dz_f *= dc
            dz_g *= i_s
            dz_g *= dc
            dz_o *= tc_s
            dz_o *= dh
            for row, dz_d in zip(rows_s, dz):
                row[...] = dz_d
            dc_next = dc * f_s
            dh_next = dz @ w_hh_t
        # one GEMM gives every direction's W_ih gradient, and one against the
        # stacked W_ih the input gradient, summed over directions
        dz2 = dz_t.reshape(bsz * t_len, n_dir * 4 * h_dim)
        gw_ih, gb = x2.T @ dz2, dz2.sum(axis=0)
        if x.requires_grad:
            w_ih_all = np.concatenate([w_ih.data for w_ih, _, _ in directions], axis=1)
            x._accumulate((dz2 @ w_ih_all.T).reshape(bsz, t_len, in_f))
        # W_hh pairs each step's dz with the hidden state of the step before,
        # zero at the first: with dz zeroed there, each (b, t) row of dz meets
        # the output row one step earlier in time (later, reversed)
        out2 = out.reshape(bsz * t_len, n_dir * h_dim)
        for d, (w_ih, w_hh_d, b) in enumerate(directions):
            cols = slice(d * 4 * h_dim, (d + 1) * 4 * h_dim)
            w_ih._accumulate(gw_ih[:, cols])
            b._accumulate(gb[cols])
            _steps(dz_t[:, :, d], d == 1)[0] = 0
            h_rows, z_rows = (out2[:-1], dz2[1:]) if d == 0 else (out2[1:], dz2[:-1])
            w_hh_d._accumulate(h_rows[:, d * h_dim:(d + 1) * h_dim].T @ z_rows[:, cols])

    return _make(out, parents, backward)


# -- convolution ------------------------------------------------------------

def conv1d(x, w, b, stride: int = 1):
    """Channel-last cross-correlation: x (B, W, C_in), w (C_out, C_in, K) -> (B, W_out, C_out)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    bsz, width, c_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match kernel channels {c_in_w}")
    w_out = (width - k) // stride + 1
    if w_out < 1:
        raise ValueError(f"kernel {k} with stride {stride} does not fit input width {width}")

    # (B, W_out, K, C_in) windows: im2col columns in (tap, channel) order, so
    # the copy moves C_in-long runs; the weights are viewed the same way
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)[:, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(bsz * w_out, k * c_in)
    out2 = cols @ w.data.transpose(0, 2, 1).reshape(c_out, k * c_in).T
    out2 += b.data

    # tap j of output o reads input row o * stride + j: (B, W_out, C_in) a tap
    span = stride * (w_out - 1) + 1

    def backward(g):
        g2 = g.reshape(bsz * w_out, c_out)
        # the weight gradient one tap at a time, from the input the node keeps
        gw = np.empty((c_out, k, c_in), dtype=g2.dtype)
        for j in range(k):
            gw[:, j] = g2.T @ x.data[:, j: j + span: stride].reshape(bsz * w_out, c_in)
        w._accumulate(gw.transpose(0, 2, 1))
        b._accumulate(g2.sum(axis=0))
        if not x.requires_grad:
            return
        # col2im, one tap at a time: each tap's column gradients are one
        # (C_in wide) product
        gx = np.zeros_like(x.data)
        w2 = w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
        for j in range(k):
            gcol = g2 @ w2[:, j * c_in:(j + 1) * c_in]
            gx[:, j: j + span: stride] += gcol.reshape(bsz, w_out, c_in)
        x._accumulate(gx)

    return _make(out2.reshape(bsz, w_out, c_out), (x, w, b), backward)
