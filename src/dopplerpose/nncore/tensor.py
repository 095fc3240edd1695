"""Reverse-mode automatic differentiation over numpy arrays.

Small on purpose: dense tensors, the op set needed by the conv/recurrent
models in this package, and a topological-order backward pass. The ops are
elementwise arithmetic and activations, reductions, reshape/transpose/
indexing/concat, 2-D matmul, `conv1d`, and `lstm_sequence`: a whole LSTM
direction as one node with a hand-written backpropagation-through-time
backward. Float32 by default; gradient-check tests run the same graphs in
float64.
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
        """Reverse-mode accumulation from a scalar root.

        Leaves keep their gradients; an interior node's is dropped as soon as
        its own backward has passed it on.
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

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


def sigmoid(a):
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

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


# -- recurrence -------------------------------------------------------------

def lstm_sequence(x, w_ih, w_hh, b, reverse: bool = False):
    """One LSTM direction over x (B, T, F) -> hidden states (B, T, H), one graph node.

    w_ih (F, 4H), w_hh (H, 4H) and b (4H,) hold the i, f, g, o gates in that
    column order; the state starts at zero and runs from t = T-1 down when
    `reverse`. The forward makes the numpy calls of a per-step matmul /
    sigmoid / tanh composite in the same order, so its output is bit-identical
    to one. Backward is backpropagation through time (Hochreiter & Schmidhuber
    1997; Graves 2012, "Supervised Sequence Labelling with RNNs", ch. 4): one
    reverse loop fills the pre-activation gradient of every step, then the
    weight, bias and input gradients take one matmul or sum each.
    """
    x, w_ih, w_hh, b = (as_tensor(t) for t in (x, w_ih, w_hh, b))
    bsz, t_len, in_f = x.data.shape
    h_dim = w_hh.data.shape[0]
    dtype = x.data.dtype
    pre = (x.data.reshape(bsz * t_len, in_f) @ w_ih.data).reshape(bsz, t_len, 4 * h_dim)
    pre = pre + b.data
    out = np.empty((bsz, t_len, h_dim), dtype=pre.dtype)
    needs = _GRAD_ENABLED and any(t.requires_grad for t in (x, w_ih, w_hh, b))
    if needs:
        gates = np.empty((bsz, t_len, 4 * h_dim), dtype=pre.dtype)  # i, f, g, o
        cells = np.empty_like(out)
        tanh_cells = np.empty_like(out)
    h = np.zeros((bsz, h_dim), dtype=dtype)
    c = np.zeros((bsz, h_dim), dtype=dtype)
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in order:
        z = pre[:, t, :] + h @ w_hh.data
        i = 1.0 / (1.0 + np.exp(-z[:, 0:h_dim]))
        f = 1.0 / (1.0 + np.exp(-z[:, h_dim:2 * h_dim]))
        g = np.tanh(z[:, 2 * h_dim:3 * h_dim])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * h_dim:4 * h_dim]))
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        out[:, t] = h
        if needs:
            np.concatenate((i, f, g, o), axis=1, out=gates[:, t])
            cells[:, t] = c
            tanh_cells[:, t] = tanh_c

    def backward(gout):
        # The state each step started from: the neighbouring step's, zero at the start.
        h_prev, c_prev = np.zeros_like(out), np.zeros_like(out)
        earlier_later = (slice(None, -1), slice(1, None))
        src, dst = earlier_later[::-1] if reverse else earlier_later
        h_prev[:, dst], c_prev[:, dst] = out[:, src], cells[:, src]
        i, f, g, o = (gates[:, :, k * h_dim:(k + 1) * h_dim] for k in range(4))
        # dz_{i,f,g} = dc * k_{i,f,g}, dz_o = dh * k_o, dc gets dh * dc_dh
        k_cell = np.concatenate((g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)),
                                axis=2).reshape(bsz, t_len, 3, h_dim)
        k_o = tanh_cells * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty_like(gates)
        dz4 = dz.reshape(bsz, t_len, 4, h_dim)
        dh_next = np.zeros((bsz, h_dim), dtype=dz.dtype)
        dc_next = np.zeros_like(dh_next)
        w_hh_t = w_hh.data.T
        for t in reversed(order):
            dh = gout[:, t] + dh_next
            dc = dh * dc_dh[:, t] + dc_next
            dz4[:, t, 0:3] = k_cell[:, t] * dc[:, None, :]
            dz4[:, t, 3] = dh * k_o[:, t]
            dc_next = dc * f[:, t]
            dh_next = dz[:, t] @ w_hh_t
        dz2 = dz.reshape(bsz * t_len, 4 * h_dim)
        w_ih._accumulate(x.data.reshape(bsz * t_len, in_f).T @ dz2)
        w_hh._accumulate(h_prev.reshape(bsz * t_len, h_dim).T @ dz2)
        b._accumulate(dz2.sum(axis=0))
        if x.requires_grad:
            x._accumulate((dz2 @ w_ih.data.T).reshape(bsz, t_len, in_f))

    return _make(out, (x, w_ih, w_hh, b), backward)


# -- convolution ------------------------------------------------------------

def conv1d(x, w, b=None, stride: int = 1, padding: int = 0):
    """Cross-correlation along the last axis: x (B, C_in, W), w (C_out, C_in, K)."""
    x, w = as_tensor(x), as_tensor(w)
    if b is not None:
        b = as_tensor(b)
    bsz, c_in, width = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match kernel channels {c_in_w}")
    w_out = (width + 2 * padding - k) // stride + 1
    if w_out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride} and padding {padding} does not fit "
            f"input width {width}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(bsz * w_out, c_in * k)
    w2 = w.data.reshape(c_out, c_in * k)
    out2 = cols @ w2.T
    if b is not None:
        out2 = out2 + b.data
    out_data = out2.reshape(bsz, w_out, c_out).transpose(0, 2, 1)

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(bsz * w_out, c_out)
        w._accumulate((g2.T @ cols).reshape(c_out, c_in, k))
        if b is not None:
            b._accumulate(g2.sum(axis=0))
        gcols = (g2 @ w2).reshape(bsz, w_out, c_in, k)
        gxp = np.zeros_like(xp)
        for o in range(w_out):
            gxp[:, :, o * stride: o * stride + k] += gcols[:, o].reshape(bsz, c_in, k)
        x._accumulate(gxp[:, :, padding: padding + width] if padding else gxp)

    return _make(out_data, parents, backward)
