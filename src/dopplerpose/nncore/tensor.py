"""Reverse-mode automatic differentiation over numpy arrays.

Small on purpose: dense tensors, the op set needed by the conv/recurrent
models in this package, and a topological-order backward pass. The ops are
elementwise arithmetic and activations, reductions, reshape/transpose/
indexing/concat, 2-D matmul, channel-last (B, W, C) `conv1d`, `batch_norm`
of the last axis as one node with the closed-form backward, and `lstm_layer`:
a whole (bi)LSTM layer as one node whose directions step together, with a
hand-written backpropagation-through-time backward. Float32 by default;
gradient-check tests run the same graphs in float64.

What each training node keeps for its backward, besides its parents:
- `conv1d`: nothing unpadded, the padded input with `padding` > 0. Its
  im2col columns, tap major, (K, C_in) per output position (K. Chellapilla
  et al., "High Performance Convolutional Neural Networks for Document
  Processing", 2006), live only for the forward GEMM. Backward takes the
  weight gradient one tap at a time from the (padded) input, and col2im is
  K strided adds, one product each, so neither the columns nor their
  gradient is ever held whole (storing less and recomputing the rest:
  T. Chen et al., "Training Deep Nets with Sublinear Memory Cost", 2016).
- `batch_norm`: the F-long mean and 1/std. Backward recomputes the
  normalised input from the input with the forward's ops.
- `lstm_layer`: the gates, cells, tanh(cells) and hidden states of every
  step. Its step loop works in place in preallocated buffers, and each
  direction's bias is added to its contiguous input projection before the
  copy into step order.
"""

from __future__ import annotations

from contextlib import contextmanager

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

        Leaves keep their gradients. An interior node drops its gradient, its
        backward closure and its parent links as soon as that closure has
        run, so what the closure saved is freed during the pass; a second
        backward from the same root does nothing.
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
        for node in reversed(topo):
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

def batch_norm(x, gamma, beta, eps: float):
    """Training-mode batch normalization of x (..., F) -> (out, mean, var), one graph node.

    Statistics are per feature (last axis) over the N rows of x as (N, F), for a
    (B, W, C) conv activation over batch and width; `mean` and `var` are (F,).
    Everything is computed in x's dtype, with the numpy calls of the mean /
    centre / square / mean / add eps / sqrt / divide / scale / shift composite
    in the same order, so the output is bit-identical to one. Backward is the
    closed form of Ioffe & Szegedy (ICML 2015),
    dx = inv/N (N g' - sum g' - xhat sum(g' xhat)) with g' = g gamma, here as
    gamma inv/N (N g - dbeta - xhat dgamma). The node keeps only the F-long
    mean and 1/std: backward recomputes xhat from the input with the forward's
    ops, so bit for bit, and works in that buffer and one more.
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

    def backward(g):
        g = g.reshape(x2.shape)
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
    columns (i, f and o are read from it) and one tanh over the g columns. Each
    value is the one a per-direction, per-step composite computes, so the output
    is bit-identical to one. Backward is backpropagation through time (Hochreiter
    & Schmidhuber 1997; Graves 2012, "Supervised Sequence Labelling with RNNs",
    ch. 4) down the same loop; each direction's weight, bias and input gradients
    then take one matmul or sum each.
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
    pre = np.empty((t_len, n_dir, bsz, 4 * h_dim), dtype=dtype)
    for d, (w_ih, _, b) in enumerate(directions):
        proj = x2 @ w_ih.data
        proj += b.data
        pre[:, d] = _steps(proj.reshape(bsz, t_len, 4 * h_dim), d == 1)
    w_hh = np.stack([w_hh.data for _, w_hh, _ in directions])
    # per step: sigmoid(i, f, o) with tanh(g) in its place, c, tanh(c) and h;
    # without a graph to record, one step's gates and cells are kept at a time
    kept = t_len if _GRAD_ENABLED and any(t.requires_grad for t in parents) else 1
    gates = np.empty((kept, n_dir, bsz, 4 * h_dim), dtype=dtype)
    cells, tanh_cells = np.empty((2, kept, n_dir, bsz, h_dim), dtype=dtype)
    hs = np.empty((t_len, n_dir, bsz, h_dim), dtype=dtype)
    h = np.zeros((n_dir, bsz, h_dim), dtype=dtype)
    c = np.zeros_like(h)
    z = np.empty((n_dir, bsz, 4 * h_dim), dtype=dtype)
    ig = np.empty_like(h)
    i, f, g, o = (gates[..., j * h_dim:(j + 1) * h_dim] for j in range(4))
    # in place, outputs passed positionally: at B=1 a step is a dozen small ufunc calls
    for s in range(t_len):
        k = s % kept
        a = gates[k]
        np.matmul(h, w_hh, out=z)
        np.add(z, pre[s], z)
        np.negative(z, a)  # sigmoid: 1 / (1 + exp(-z))
        np.exp(a, a)
        np.add(a, 1.0, a)
        np.divide(1.0, a, a)
        np.tanh(z[..., 2 * h_dim:3 * h_dim], g[k])
        np.multiply(i[k], g[k], ig)
        c = np.multiply(f[k], c, cells[k])
        np.add(c, ig, c)
        h = np.multiply(o[k], np.tanh(c, tanh_cells[k]), hs[s])
    out = np.empty((bsz, t_len, n_dir * h_dim), dtype=dtype)
    for d in range(n_dir):
        _steps(out[:, :, d * h_dim:(d + 1) * h_dim], d == 1)[...] = hs[:, d]

    def backward(gout):
        # The state each step started from: the previous step's, zero at the first.
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cells)
        h_prev[1:], c_prev[1:] = hs[:-1], cells[:-1]
        # dz_{i,f,g} = dc * k_{i,f,g}, dz_o = dh * k_o, dc gets dh * dc_dh
        k_cell = np.concatenate((g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)),
                                axis=-1).reshape(t_len, n_dir, bsz, 3, h_dim)
        k_o = tanh_cells * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_cells * tanh_cells)
        gh = np.empty_like(hs)
        for d in range(n_dir):
            gh[:, d] = _steps(gout[:, :, d * h_dim:(d + 1) * h_dim], d == 1)
        dz = np.empty_like(gates)
        dz5 = dz.reshape(t_len, n_dir, bsz, 4, h_dim)
        dh_next = np.zeros((n_dir, bsz, h_dim), dtype=dz.dtype)
        dc_next = np.zeros_like(dh_next)
        w_hh_t = w_hh.transpose(0, 2, 1)
        for s in range(t_len - 1, -1, -1):
            dh = gh[s] + dh_next
            dc = dh * dc_dh[s] + dc_next
            dz5[s, :, :, 0:3] = k_cell[s] * dc[:, :, None, :]
            dz5[s, :, :, 3] = dh * k_o[s]
            dc_next = dc * f[s]
            dh_next = dz[s] @ w_hh_t
        # weight gradients in time order, rows (b, t) as the input's
        dz_t = np.empty((bsz, t_len, 4 * h_dim), dtype=dz.dtype)
        hp_t = np.empty((bsz, t_len, h_dim), dtype=dz.dtype)
        for d, (w_ih, w_hh_d, b) in enumerate(directions):
            _steps(dz_t, d == 1)[...] = dz[:, d]
            _steps(hp_t, d == 1)[...] = h_prev[:, d]
            dz2 = dz_t.reshape(bsz * t_len, 4 * h_dim)
            w_ih._accumulate(x2.T @ dz2)
            w_hh_d._accumulate(hp_t.reshape(bsz * t_len, h_dim).T @ dz2)
            b._accumulate(dz2.sum(axis=0))
            if x.requires_grad:
                x._accumulate((dz2 @ w_ih.data.T).reshape(bsz, t_len, in_f))

    return _make(out, parents, backward)


# -- convolution ------------------------------------------------------------

def conv1d(x, w, b=None, stride: int = 1, padding: int = 0):
    """Channel-last cross-correlation: x (B, W, C_in), w (C_out, C_in, K) -> (B, W_out, C_out)."""
    x, w = as_tensor(x), as_tensor(w)
    if b is not None:
        b = as_tensor(b)
    bsz, width, c_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match kernel channels {c_in_w}")
    w_out = (width + 2 * padding - k) // stride + 1
    if w_out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride} and padding {padding} does not fit "
            f"input width {width}")

    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0))) if padding else x.data
    # (B, W_out, K, C_in) windows: im2col columns in (tap, channel) order, so
    # the copy moves C_in-long runs; the weights are viewed the same way
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(bsz * w_out, k * c_in)
    out2 = cols @ w.data.transpose(0, 2, 1).reshape(c_out, k * c_in).T
    if b is not None:
        out2 += b.data

    parents = (x, w) if b is None else (x, w, b)
    # tap j of output o reads input row o * stride + j: (B, W_out, C_in) a tap
    span = stride * (w_out - 1) + 1

    def backward(g):
        g2 = g.reshape(bsz * w_out, c_out)
        # the weight gradient one tap at a time, from the input the node keeps
        gw = np.empty((c_out, k, c_in), dtype=g2.dtype)
        for j in range(k):
            gw[:, j] = g2.T @ xp[:, j: j + span: stride].reshape(bsz * w_out, c_in)
        w._accumulate(gw.transpose(0, 2, 1))
        if b is not None:
            b._accumulate(g2.sum(axis=0))
        if not x.requires_grad:
            return
        # col2im, one tap at a time: each tap's column gradients are one
        # (C_in wide) product
        gxp = np.zeros_like(xp)
        w2 = w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
        for j in range(k):
            gcol = g2 @ w2[:, j * c_in:(j + 1) * c_in]
            gxp[:, j: j + span: stride] += gcol.reshape(bsz, w_out, c_in)
        x._accumulate(gxp[:, padding: padding + width] if padding else gxp)

    return _make(out2.reshape(bsz, w_out, c_out), parents, backward)
