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
  states the weight gradient pairs with dz are read from its output. The
  `LstmRun` that computed them, with its input projection and step-ordered
  stack, is freed when the forward returns. Backward walks the run's
  per-step rows back and computes each step's derivative factors from them,
  so it builds no whole-sequence derivative array.

One forward, `LstmRun`, serves every LSTM recurrence: a layer run on inputs
of one (B, T) size whose step buffers and stacked W_hh are made once.
`lstm_layer` runs one a call, keeping every step's gates and cells only when
it records a graph, and the pose loop's window (`poseopt.OptWindow`) keeps
one for each recurrence of OptModel over all its predictions (Appleyard,
Kocisky and Blunsom, "Optimizing Performance of Recurrent Neural Networks on
GPUs", 2016, prepare what is fixed outside the recurrence).
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain, repeat

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Disable graph recording inside the context (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self.prev, _GRAD_ENABLED = _GRAD_ENABLED, False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self.prev


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


@functools.cache
def _scalar(value, dtype) -> np.ndarray:
    """A shared, read-only 0-d `value` in `dtype`: a ufunc operand with no scalar conversion."""
    out = np.full((), value, dtype)
    out.flags.writeable = False
    return out


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

    return _make(np.maximum(a.data, _scalar(0, a.data.dtype)), (a,), backward)


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
    for i in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(i, bool) or not isinstance(i, (int, np.integer, slice, type(None),
                                                        type(...))):
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
    offsets = list(accumulate((t.data.shape[axis] for t in tensors), initial=0))

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


class LstmRun:
    """The forward of a (bi)LSTM layer on inputs of one (B, T) size, in
    buffers it reuses: the one forward of every LSTM recurrence.

    `directions` is what `lstm_layer` takes. Calling the run with the (B*T, F)
    input rows, batch major, returns the (B, T, D*H) hidden states in a buffer
    the next call overwrites; no call leaves state that the next one reads.
    The input projections stay one GEMM a direction: one GEMM against
    [W_ih_f | W_ih_r] rounds differently from two (at B=1 in float32, and at
    several float64 sizes). They are stored step-ordered, with each
    direction's bias added, so one loop of T steps advances all directions
    with one stacked (D, B, H) @ (D, H, 4H) matmul (none at the first step,
    whose h @ W_hh is the zero state's zero), one sigmoid over the 4H gate
    columns (i, f and o are read from it) and one tanh over the g columns.
    The loop works in place, outputs passed positionally, and walks zipped
    per-step rows, indexing no array: at B=1 a step is a dozen small ufunc
    calls and indexing costs more than the arithmetic. Each value is the one
    a per-direction, per-step composite computes, so the output is
    bit-identical to one.

    Per step the loop keeps sigmoid(i, f, o) with tanh(g) in its place
    (`gates`, with `ifgo` the four gates' column views), c (`cells`) and
    tanh(c) (`tanh_cells`): `kept` steps of each, T when a backward reads
    them, else 1, which every step reuses. One direction steps through its
    own projection buffer and writes its hidden states straight into the
    output. Two are projected one at a time through a temporary, freed
    before the next, into one step-ordered stack, and copy their states out
    after the loop. The run keeps the weight arrays it was made with, and
    makes a stacked copy of the two directions' W_hh, so it is valid while
    the weights stay unchanged.
    """

    def __init__(self, directions, bsz: int, t_len: int, kept: int = 1):
        n_dir = len(directions)
        if n_dir not in (1, 2):
            raise ValueError(f"an LSTM layer has 1 or 2 directions, got {n_dir}")
        self.arrays = arrays = [tuple(w.data for w in triple) for triple in directions]
        self.dtype = dtype = arrays[0][0].dtype
        if any(w.dtype != dtype for triple in arrays for w in triple):
            raise ValueError("an LSTM layer's weights must share one dtype")
        h_dim = arrays[0][1].shape[0]
        self.size, self.kept = (bsz, t_len, n_dir, h_dim), kept
        if n_dir == 1:
            self.proj = np.empty((bsz * t_len, 4 * h_dim), dtype=dtype)
            self.pre = _steps(self.proj.reshape(bsz, t_len, 4 * h_dim), False)[:, None]
        else:
            self.proj = None  # each call's matmul makes a temporary
            self.pre = np.empty((t_len, n_dir, bsz, 4 * h_dim), dtype=dtype)
        self.out = None

    def _make_buffers(self):
        """The stacked W_hh, the output and the step buffers, made on the first
        call after the projections, in that order. No temporary is then alive
        beside them, and the order keeps a training process's peak RSS low:
        making the W_hh stack, or it and the step buffers, before the
        projections raised the `train` benchmark's by 2% and 4%."""
        bsz, t_len, n_dir, h_dim = self.size
        kept, dtype = self.kept, self.dtype
        w_hhs = [w_hh[None] for _, w_hh, _ in self.arrays]
        self.w_hh = w_hhs[0] if n_dir == 1 else np.concatenate(w_hhs)
        self.out = np.empty((bsz, t_len, n_dir * h_dim), dtype=dtype)
        self.hs = (_steps(self.out, False)[:, None] if n_dir == 1
                   else np.empty((t_len, n_dir, bsz, h_dim), dtype=dtype))
        self.copy_out = [(_steps(self.out[:, :, d * h_dim:(d + 1) * h_dim], d == 1),
                          self.hs[:, d]) for d in range(n_dir)] if n_dir == 2 else []
        self.gates = np.empty((kept, n_dir, bsz, 4 * h_dim), dtype=dtype)
        self.cells = np.empty((kept, n_dir, bsz, h_dim), dtype=dtype)
        self.tanh_cells = np.empty((kept, n_dir, bsz, h_dim), dtype=dtype)
        self.ifgo = tuple(self.gates[..., j * h_dim:(j + 1) * h_dim] for j in range(4))
        # each kept step's rows of those buffers
        self.rows = list(zip(self.gates, *self.ifgo, self.cells, self.tanh_cells))
        self.c0 = np.zeros((n_dir, bsz, h_dim), dtype=dtype)  # the zero state's cell
        self.z = np.empty((n_dir, bsz, 4 * h_dim), dtype=dtype)
        self.z_g = self.z[..., 2 * h_dim:3 * h_dim]
        self.ig = np.empty((n_dir, bsz, h_dim), dtype=dtype)
        self.one, self.zero = _scalar(1, dtype), _scalar(0, dtype)

    def __call__(self, x2: np.ndarray) -> np.ndarray:
        if x2.dtype != self.dtype:
            raise ValueError(f"LSTM input is {x2.dtype} but its weights are {self.dtype}")
        bsz, t_len, n_dir, h_dim = self.size
        for d, (w_ih, _, b) in enumerate(self.arrays):
            proj = np.matmul(x2, w_ih, out=self.proj)
            proj += b
            if n_dir == 2:
                self.pre[:, d] = _steps(proj.reshape(bsz, t_len, 4 * h_dim), d == 1)
            del proj  # before the next direction's matmul makes its own
        if self.out is None:
            self._make_buffers()
        self.step()
        for dst, src in self.copy_out:
            np.copyto(dst, src)
        return self.out

    def step(self):
        """Step through `pre` (T, D, B, 4H) from the zero state, writing each
        step's hidden states into `hs` (T, D, B, H)."""
        rows = self.rows if len(self.rows) > 1 else repeat(self.rows[0])
        w_hh, z, z_g, ig, c, one, zero = (
            self.w_hh, self.z, self.z_g, self.ig, self.c0, self.one, self.zero)
        matmul, add, negative, exp, divide, tanh, multiply = (
            np.matmul, np.add, np.negative, np.exp, np.divide, np.tanh, np.multiply)
        for s, (pre_s, hs_s, (a, i_s, f_s, g_s, o_s, c_s, tc_s)) in enumerate(
                zip(self.pre, self.hs, rows)):
            if s:
                matmul(h, w_hh, out=z)
                add(z, pre_s, z)
            else:  # h @ W_hh is the zero state's zero
                add(pre_s, zero, z)
            negative(z, a)  # sigmoid: 1 / (1 + exp(-z))
            exp(a, a)
            add(a, one, a)
            divide(one, a, a)
            tanh(z_g, g_s)
            multiply(i_s, g_s, ig)
            c = multiply(f_s, c, c_s)
            add(c, ig, c)
            h = multiply(o_s, tanh(c, tc_s), hs_s)


def lstm_layer(x, directions):
    """One (bi)LSTM layer over x (B, T, F) -> hidden states (B, T, D*H), one graph node.

    `directions` holds D = 1 or 2 (w_ih (F, 4H), w_hh (H, 4H), b (4H,)) Tensor
    triples, gates i, f, g, o in that column order; the second runs reversed in
    time, and each starts from a zero state. The forward is an `LstmRun` made
    for the call, which keeps every step's gates and cells when a graph is
    recorded and one step's otherwise; backward holds those and the output,
    not the run, so the run's projection and stack are freed on return.
    Backward is backpropagation through time (Hochreiter & Schmidhuber 1997;
    Graves 2012, "Supervised Sequence Labelling with RNNs", ch. 4) back up the
    run's zipped rows: each step's derivative factors come from that step's
    stored gates and cells, and its dz is copied into one time-ordered
    (B, T, D*4H) buffer. Then one GEMM gives every direction's W_ih gradient,
    split by columns, one against the stacked W_ih the input gradient, summed
    over directions inside the GEMM, and a GEMM a direction the W_hh gradient,
    pairing dz with the output shifted by one step, zero before each
    direction's first.
    """
    x = as_tensor(x)
    parents = (x, *chain.from_iterable(directions))
    bsz, t_len, in_f = x.data.shape
    x2 = x.data.reshape(bsz * t_len, in_f)
    kept = t_len if _GRAD_ENABLED and any(t.requires_grad for t in parents) else 1
    run = LstmRun(directions, bsz, t_len, kept)
    out = run(x2)
    gates, cells, tanh_cells, (i, f, g, o), w_hh = (
        run.gates, run.cells, run.tanh_cells, run.ifgo, run.w_hh)
    n_dir, h_dim, dtype = len(directions), w_hh.shape[1], out.dtype

    def backward(gout):
        one = _scalar(1, dtype)
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
