import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest

from dopplerpose import containers
from dopplerpose import nncore as nn
from dopplerpose.nncore import Tensor
from dopplerpose.nncore import tensor as ops
from dopplerpose.velest import VelModel
from gradcheck import check_gradients, relative_error


def sigmoid(a):
    """The logistic op of the composite LSTM oracle below (no model uses it)."""
    a = ops.as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return ops._make(out_data, (a,), backward)


def rng64(seed):
    return np.random.default_rng(seed)


def t64(rng, shape, grad=False):
    return Tensor(rng.normal(size=shape), requires_grad=grad, dtype=np.float64)


def kink_free_beta(x, gamma, eps=1e-5):
    """A batch norm shift that puts its ReLU's kink mid-way in each feature's widest gap.

    Every pre-activation is then |gamma| times half that gap from zero, so central
    differences do not cross the kink, and each feature has rows on both sides of it.
    """
    x2 = x.reshape(-1, x.shape[-1])
    xhat = np.sort((x2 - x2.mean(axis=0)) / np.sqrt(x2.var(axis=0) + eps), axis=0)
    k = np.argmax(np.diff(xhat, axis=0), axis=0)
    cols = np.arange(x2.shape[1])
    return -gamma * (xhat[k, cols] + xhat[k + 1, cols]) / 2


class TestAutogradBasics:
    def test_linear_loss_gradient_exact(self):
        rng = rng64(0)
        w = t64(rng, (4,), grad=True)
        x = t64(rng, (4,))
        loss = ops.tsum(ops.mul(w, x))
        loss.backward()
        assert np.array_equal(w.grad, x.data)

    def test_unused_parameter_gets_no_gradient(self):
        rng = rng64(1)
        w = t64(rng, (3,), grad=True)
        unused = t64(rng, (3,), grad=True)
        loss = ops.tsum(ops.mul(w, w))
        loss.backward()
        assert unused.grad is None

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ops.mul(x, 2.0).backward()

    def test_broadcast_add_gradients(self):
        rng = rng64(2)
        a = t64(rng, (5, 3), grad=True)
        b = t64(rng, (3,), grad=True)
        loss = ops.tsum(ops.add(a, b))
        loss.backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 5.0)

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        y = ops.add(ops.mul(x, x), ops.mul(x, 3.0))  # x^2 + 3x
        ops.tsum(y).backward()
        assert np.allclose(x.grad, 2 * 2.0 + 3.0)

    def test_shared_gradient_buffer_is_not_written(self):
        # `add` hands one gradient array to both parents; `a` later gets a
        # second contribution, which must not leak into `b`.
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        ops.tsum(ops.add(ops.add(a, b), a)).backward()
        assert np.array_equal(b.grad, np.ones(3))
        assert np.array_equal(a.grad, np.full(3, 2.0))

    def test_basic_index_gradient_scatters(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
        ops.tsum(x[:, -1]).backward()
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("idx", [[0, 0], np.array([1, 0]), (slice(None), [2]),
                                     np.array([True, False]), True])
    def test_advanced_index_rejected(self, idx):
        x = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="basic indices"):
            x[idx]

    def test_only_leaves_keep_gradients(self):
        rng = rng64(4)
        a, b = t64(rng, (3,), grad=True), t64(rng, (3,), grad=True)
        prod = ops.mul(a, b)
        total = ops.add(prod, a)
        loss = ops.tsum(total)
        loss.backward()
        assert prod.grad is None and total.grad is None and loss.grad is None
        assert np.array_equal(a.grad, b.data + 1.0)
        assert np.array_equal(b.grad, a.data)

    def test_backward_consumes_the_graph(self):
        # a VelModel training step: conv, batch norm, LSTM, linear and loss nodes
        model = VelModel(81, seed=2)
        x = Tensor(rng64(5).random((2, 6, 81)), dtype=np.float32)
        y = rng64(6).normal(size=(2, 6, 51))
        loss = ops.tmean(ops.absolute(ops.add(model.forward(x, training=True), -y)))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        leaves = [n for n in nodes.values() if n._backward is None]
        interior = [n for n in nodes.values() if n._backward is not None]
        assert len(interior) > 20 and loss in interior
        loss.backward()
        assert all(n._backward is None and n._parents == () for n in interior)
        params = [n for n in leaves if n.requires_grad]
        assert len(params) == len(model.params())
        assert all(n.grad is not None and np.isfinite(n.grad).all() for n in params)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            y = ops.mul(x, 2.0)
        assert y.requires_grad is False
        assert y._backward is None

    @pytest.mark.parametrize("op,dfn", [
        (ops.tanh, lambda x: 1 - np.tanh(x) ** 2),
        (sigmoid, lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
        (ops.relu, lambda x: (x > 0).astype(float)),
        (ops.absolute, lambda x: np.sign(x)),
    ])
    def test_elementwise_derivatives(self, op, dfn):
        rng = rng64(3)
        x = t64(rng, (17,), grad=True)
        ops.tsum(op(x)).backward()
        assert np.allclose(x.grad, dfn(x.data), atol=1e-12)


class TestConv1d:
    def test_impulse_shift_against_sliding_dot_oracle(self):
        x = np.zeros((1, 11, 1))
        x[0, 5, 0] = 1.0
        w = np.zeros((1, 1, 5))
        w[0, 0, 0] = 1.0
        layer_out = ops.conv1d(*(Tensor(a, dtype=np.float64) for a in (x, w, np.zeros(1)))).data
        # independent oracle: direct sliding dot product
        oracle = np.array([x[0, i:i + 5, 0] @ w[0, 0] for i in range(7)])
        assert np.allclose(layer_out[0, :, 0], oracle)
        assert layer_out[0, 5, 0] == 1.0

    def test_random_conv_matches_naive(self):
        rng = rng64(4)
        x = rng.normal(size=(2, 3, 16))
        w = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=5)
        out = ops.conv1d(Tensor(x.transpose(0, 2, 1), dtype=np.float64),
                         Tensor(w, dtype=np.float64),
                         Tensor(b, dtype=np.float64), stride=2).data
        w_out = (16 - 4) // 2 + 1
        oracle = np.zeros((2, 5, w_out))
        for n in range(2):
            for f in range(5):
                for o in range(w_out):
                    oracle[n, f, o] = np.sum(x[n, :, 2 * o: 2 * o + 4] * w[f]) + b[f]
        assert np.allclose(out, oracle.transpose(0, 2, 1))

    def test_input_without_grad_gets_none(self):
        rng = rng64(5)
        layer = nn.Conv1d(2, 3, kernel=5, stride=2, rng=rng, dtype=np.float64)
        x = t64(rng, (3, 13, 2))
        ops.tsum(layer(x)).backward()
        assert x.grad is None
        assert all(p.grad is not None for p in layer.params())

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 8, 2)))
        w, b = Tensor(np.zeros((3, 4, 3))), Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            ops.conv1d(x, w, b)
        with pytest.raises(ValueError):
            ops.conv1d(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((3, 2, 5))), b)


def channel_major_conv1d(x, w, b, stride):
    """Oracle: `conv1d` with (channel, tap) im2col columns and a col2im add per output."""
    bsz, width, c_in = x.data.shape
    c_out, _, k = w.data.shape
    w_out = (width - k) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)[:, ::stride]
    cols = np.ascontiguousarray(windows).reshape(bsz * w_out, c_in * k)
    w2 = w.data.reshape(c_out, c_in * k)
    out2 = cols @ w2.T + b.data

    def backward(g):
        g2 = g.reshape(bsz * w_out, c_out)
        w._accumulate((g2.T @ cols).reshape(c_out, c_in, k))
        b._accumulate(g2.sum(axis=0))
        gcols = (g2 @ w2).reshape(bsz, w_out, c_in, k).transpose(0, 1, 3, 2)
        gx = np.zeros_like(x.data)
        for o in range(w_out):
            gx[:, o * stride: o * stride + k] += gcols[:, o]
        x._accumulate(gx)

    return ops._make(out2.reshape(bsz, w_out, c_out), (x, w, b), backward)


# (batch, width, C_in, C_out, kernel, stride): VelModel's three convs on 81
# Doppler bins, and a stride-3 case whose last input row no tap reads
CONV_SHAPES = [(6, 81, 1, 32, 5, 2), (6, 39, 32, 64, 5, 2), (6, 18, 64, 64, 5, 2),
               (3, 11, 3, 4, 4, 3)]


class TestTapMajorConv:
    """`conv1d`'s (tap, channel) columns against the channel-major layout it replaced."""

    @staticmethod
    def _inputs(shape, seed):
        bsz, width, c_in, c_out, k, stride = shape
        rng = rng64(seed)
        layer = nn.Conv1d(c_in, c_out, k, stride=stride, rng=rng, dtype=np.float64)
        return layer, t64(rng, (bsz, width, c_in), grad=True)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_float64_forward_and_gradients_match_channel_major(self, shape):
        layer, x = self._inputs(shape, seed=sum(shape))
        params = [x, layer.weight, layer.bias]
        runs = []
        for conv in (ops.conv1d, channel_major_conv1d):
            for p in params:
                p.grad = None
            out = conv(x, layer.weight, layer.bias, layer.stride)
            ops.tsum(ops.mul(ops.tanh(out), t64(rng64(1), out.data.shape))).backward()
            runs.append((out.data, [p.grad.copy() for p in params]))
        (out, grads), (want, want_grads) = runs
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
        for got, ref in zip(grads, want_grads):
            assert got.shape == ref.shape
            assert relative_error(got, ref) <= 1e-10


def im2col_conv1d(x, w, b, stride):
    """Oracle: `conv1d` as it was when its node kept the (tap, channel) im2col
    columns for a one-GEMM weight gradient."""
    bsz, width, c_in = x.data.shape
    c_out, _, k = w.data.shape
    w_out = (width - k) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)[:, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(bsz * w_out, k * c_in)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
    out2 = cols @ w2.T
    out2 += b.data

    def backward(g):
        g2 = g.reshape(bsz * w_out, c_out)
        w._accumulate((g2.T @ cols).reshape(c_out, k, c_in).transpose(0, 2, 1))
        b._accumulate(g2.sum(axis=0))
        gx = np.zeros_like(x.data)
        span = stride * (w_out - 1) + 1
        for j in range(k):
            gcol = g2 @ w2[:, j * c_in:(j + 1) * c_in]
            gx[:, j: j + span: stride] += gcol.reshape(bsz, w_out, c_in)
        x._accumulate(gx)

    return ops._make(out2.reshape(bsz, w_out, c_out), (x, w, b), backward)


# (batch, width, C_in, C_out, kernel, stride): VelModel's conv2 and conv3 on
# 81 Doppler bins over 200 frames, and a stride-1 case
PER_TAP_SHAPES = [(200, 39, 32, 64, 5, 2), (200, 18, 64, 64, 5, 2), (5, 12, 3, 4, 3, 1)]


class TestPerTapConv:
    """`conv1d`'s per-tap weight gradient against the kept-column node it replaced."""

    @staticmethod
    def _run(conv, shape, dtype):
        bsz, width, c_in, c_out, k, stride = shape
        rng = rng64(sum(shape))
        layer = nn.Conv1d(c_in, c_out, k, stride=stride, rng=rng, dtype=dtype)
        x = Tensor(rng.normal(size=(bsz, width, c_in)).astype(dtype), requires_grad=True)
        out = conv(x, layer.weight, layer.bias, layer.stride)
        weights = Tensor(rng.normal(size=out.data.shape).astype(dtype))
        ops.tsum(ops.mul(ops.tanh(out), weights)).backward()
        return out.data, [p.grad for p in (x, layer.weight, layer.bias)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", PER_TAP_SHAPES)
    def test_bit_identical_to_im2col(self, shape, dtype):
        (out, grads), (want, want_grads) = (self._run(conv, shape, dtype)
                                            for conv in (ops.conv1d, im2col_conv1d))
        assert np.array_equal(out, want)
        for got, ref in zip(grads, want_grads):
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)

    def test_one_input_channel_within_rounding(self):
        # VelModel's conv1: at C_in = 1 a tap's product is a matrix-vector
        # product, which rounds differently from the one GEMM
        shape = (200, 81, 1, 32, 5, 2)
        (out, grads), (want, want_grads) = (self._run(conv, shape, np.float64)
                                            for conv in (ops.conv1d, im2col_conv1d))
        assert np.array_equal(out, want)
        for got, ref in zip(grads, want_grads):
            assert relative_error(got, ref) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_padded_strided_gradcheck(self, seed):
        # a caller pads by concatenating zero rows; the last tap reads the
        # right pad, and stride 3 skips rows between taps
        rng = rng64(900 + seed)
        layer = nn.Conv1d(3, 2, kernel=4, stride=3, rng=rng, dtype=np.float64)
        x = t64(rng, (2, 11, 3), grad=True)
        pad = Tensor(np.zeros((2, 1, 3)), dtype=np.float64)
        build = lambda: ops.tsum(ops.tanh(layer(ops.concat([pad, x, pad], axis=1))))
        assert check_gradients(build, layer.params() + [x]) <= 1e-4


class TestBackwardRelease:
    """`Tensor.backward` frees each node the caller does not hold once it has run."""

    def test_interior_node_freed_before_later_nodes_run(self):
        rng = rng64(21)
        x, w = t64(rng, (3, 4), grad=True), t64(rng, (3, 4), grad=True)
        alive = []

        def probe_backward(g):  # runs after every node downstream of it
            alive.append(mid_data() is not None)
            x._accumulate(g)

        probe = ops._make(x.data.copy(), (x,), probe_backward)
        mid = ops.mul(probe, w)
        mid_data = weakref.ref(mid.data)
        loss = ops.tsum(ops.tanh(mid))
        del mid  # the caller holds only the root (and the probe)
        loss.backward()
        assert alive == [False]
        assert np.allclose(w.grad, (1.0 - np.tanh(x.data * w.data) ** 2) * x.data)

    def test_held_tensor_keeps_its_data(self):
        rng = rng64(22)
        x, w = t64(rng, (3, 4), grad=True), t64(rng, (3, 4), grad=True)
        mid = ops.mul(x, w)
        want = x.data * w.data
        ops.tsum(ops.tanh(mid)).backward()
        assert np.array_equal(mid.data, want)
        assert mid._backward is None and mid.grad is None


class TestGradientChecks:
    """Every layer type against central finite differences (<= 1e-4 relative)."""

    TOL = 1e-4

    def _check(self, build, params):
        err = check_gradients(build, params)
        assert err <= self.TOL, f"gradient mismatch: {err:.2e}"

    @pytest.mark.parametrize("seed", range(10))
    def test_linear(self, seed):
        rng = rng64(seed)
        layer = nn.Linear(6, 4, rng=rng, dtype=np.float64)
        x = t64(rng, (5, 6), grad=True)
        build = lambda: ops.tsum(ops.tanh(layer(x)))
        self._check(build, layer.params() + [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_conv1d(self, seed):
        rng = rng64(100 + seed)
        layer = nn.Conv1d(2, 3, kernel=5, stride=2, rng=rng, dtype=np.float64)
        x = t64(rng, (3, 13, 2), grad=True)
        build = lambda: ops.tsum(ops.tanh(layer(x)))
        self._check(build, layer.params() + [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_batchnorm_training_mode(self, seed):
        rng = rng64(200 + seed)
        layer = nn.BatchNorm1d(4, dtype=np.float64)
        layer.gamma.data = rng.normal(size=4)
        layer.beta.data = rng.normal(size=4)
        x = t64(rng, (7, 4), grad=True)
        # the layer ends in a ReLU: keep every pre-activation away from its kink
        layer.beta.data = kink_free_beta(x.data, layer.gamma.data, layer.eps)

        def build():
            # keep running stats untouched by the repeated FD evaluations
            layer.running_mean = np.zeros(4)
            layer.running_var = np.ones(4)
            return ops.tsum(ops.mul(layer(x, training=True), t64(rng64(0), (7, 4))))

        self._check(build, layer.params() + [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_lstm_cell(self, seed):
        rng = rng64(300 + seed)
        layer = nn.LSTM(3, 4, num_layers=1, rng=rng, dtype=np.float64)
        x = t64(rng, (2, 4, 3), grad=True)
        build = lambda: ops.tsum(ops.tanh(layer(x)))
        self._check(build, layer.params() + [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_bidirectional_two_layer_lstm(self, seed):
        rng = rng64(400 + seed)
        layer = nn.LSTM(3, 3, num_layers=2, bidirectional=True, rng=rng, dtype=np.float64)
        x = t64(rng, (2, 3, 3), grad=True)
        build = lambda: ops.tsum(layer(x))
        self._check(build, layer.params() + [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_activations_via_input_grad(self, seed):
        # keep inputs away from the ReLU kink so central differences are valid
        rng = rng64(500 + seed)
        raw = rng.normal(size=(6, 5))
        x = Tensor(np.sign(raw) * (0.05 + np.abs(raw)), requires_grad=True,
                   dtype=np.float64)
        for act in (ops.relu, ops.tanh):
            self._check(lambda: ops.tsum(ops.mul(act(x), x)), [x])


class TestLayerContracts:
    def test_linear_identity(self):
        layer = nn.Linear(4, 4, rng=rng64(0))
        layer.weight.data = np.eye(4, dtype=np.float32)
        layer.bias.data = np.zeros(4, dtype=np.float32)
        x = Tensor(np.arange(8, dtype=np.float32).reshape(2, 4))
        assert np.allclose(layer(x).data, x.data)

    def test_relu_values(self):
        out = ops.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_batchnorm_inference_is_relu_of_affine(self):
        # the running statistics' affine map, then the ReLU the layer carries
        rng = rng64(7)
        layer = nn.BatchNorm1d(3)
        layer.running_mean = rng.normal(size=3).astype(np.float32)
        layer.running_var = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
        layer.gamma.data = rng.normal(size=3).astype(np.float32)
        layer.beta.data = rng.normal(size=3).astype(np.float32)
        x = rng.normal(size=(6, 3))
        affine = ((x - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
                  * layer.gamma.data + layer.beta.data)
        assert (affine < 0).any() and (affine > 0).any()
        out = layer(Tensor(x.astype(np.float32))).data
        assert np.allclose(out, np.maximum(affine, 0.0), atol=1e-5)
        assert (out[affine < 0] == 0).all()

    def test_lstm_bidirectional_output_width(self):
        rng = rng64(8)
        layer = nn.LSTM(5, 6, num_layers=2, bidirectional=True, rng=rng)
        x = Tensor(rng.normal(size=(3, 7, 5)).astype(np.float32))
        out = layer(x)
        assert out.data.shape == (3, 7, 12)

    def test_lstm_rejects_wrong_width(self):
        layer = nn.LSTM(5, 6, rng=rng64(9))
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 4, 3), dtype=np.float32)))

    def test_forward_deterministic_per_seed(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 5)).astype(np.float32))
        outs = []
        for _ in range(2):
            layer = nn.LSTM(5, 4, num_layers=2, bidirectional=True, rng=rng64(42))
            outs.append(layer(x).data)
        assert np.array_equal(outs[0], outs[1])


def composite_direction(x, w, reverse):
    """One LSTM direction built step by step from matmul/sigmoid/tanh graph ops."""
    bsz, t_len, in_f = x.data.shape
    h_dim = w["W_hh"].data.shape[0]
    dtype = x.data.dtype
    pre = ops.reshape(ops.matmul(ops.reshape(x, (bsz * t_len, in_f)), w["W_ih"]),
                      (bsz, t_len, 4 * h_dim))
    pre = ops.add(pre, w["b"])
    h = Tensor(np.zeros((bsz, h_dim), dtype=dtype))
    c = Tensor(np.zeros((bsz, h_dim), dtype=dtype))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outputs = [None] * t_len
    for t in order:
        z = ops.add(pre[:, t, :], ops.matmul(h, w["W_hh"]))
        i = sigmoid(z[:, 0:h_dim])
        f = sigmoid(z[:, h_dim:2 * h_dim])
        g = ops.tanh(z[:, 2 * h_dim:3 * h_dim])
        o = sigmoid(z[:, 3 * h_dim:4 * h_dim])
        c = ops.add(ops.mul(f, c), ops.mul(i, g))
        h = ops.mul(o, ops.tanh(c))
        outputs[t] = h
    return outputs


def stack_time(tensors):
    """Stack (B, F) tensors into (B, T, F) along a new time axis."""
    b, f = tensors[0].data.shape
    return ops.concat([ops.reshape(t, (b, 1, f)) for t in tensors], axis=1)


def composite_lstm(layer, x):
    """Oracle: `layer` run through the per-step composite (about 12 graph nodes a step)."""
    out = x
    for k in range(layer.num_layers):
        fwd = composite_direction(out, layer.weights[k * layer.dirs], reverse=False)
        if layer.bidirectional:
            bwd = composite_direction(out, layer.weights[k * layer.dirs + 1], reverse=True)
            steps = [ops.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
        else:
            steps = fwd
        out = stack_time(steps)
    return out


def graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


# (batch, time, features, hidden, layers, bidirectional): OptModel's and
# VelModel's biLSTMs at their real sizes, a unidirectional single layer, and
# OptModel's one-direction layer-2 calls of the pose loop (T=10 forward,
# one-step reverse).
LSTM_SHAPES = [(1, 50, 102, 51, 2, True), (41, 50, 320, 64, 2, True),
               (3, 17, 8, 5, 1, False), (1, 10, 102, 51, 1, False),
               (1, 1, 102, 51, 1, False)]


class TestFusedLstm:
    """The fused `lstm_layer` op against the per-step composite it replaced."""

    @staticmethod
    def _layer_and_input(shape, dtype, seed=0):
        bsz, t_len, in_f, hidden, layers, bidir = shape
        rng = rng64(seed)
        layer = nn.LSTM(in_f, hidden, num_layers=layers, bidirectional=bidir, rng=rng,
                        dtype=dtype)
        x = Tensor(rng.normal(size=(bsz, t_len, in_f)).astype(dtype), requires_grad=True)
        return layer, x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_forward_bit_identical_to_composite(self, shape, dtype):
        layer, x = self._layer_and_input(shape, dtype)
        with nn.no_grad():
            fused = layer(x).data
            oracle = composite_lstm(layer, x).data
        assert fused.dtype == oracle.dtype == dtype
        assert np.array_equal(fused, oracle)
        # recording the graph does not change the values
        assert np.array_equal(layer(x).data, oracle)

    @pytest.mark.parametrize("shape", LSTM_SHAPES)
    def test_float64_gradients_match_composite(self, shape):
        layer, x = self._layer_and_input(shape, np.float64, seed=1)
        weights = t64(rng64(2), (shape[0], shape[1], layer.hidden_size * layer.dirs))
        grads = []
        for run in (layer, lambda inp: composite_lstm(layer, inp)):
            for p in layer.params() + [x]:
                p.grad = None
            ops.tsum(ops.mul(ops.tanh(run(x)), weights)).backward()
            grads.append([p.grad.copy() for p in layer.params() + [x]])
        for fused, oracle in zip(*grads):
            assert relative_error(fused, oracle) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_reverse_direction_gradcheck(self, seed):
        # the loss reads only the reversed direction's half of the output
        rng = rng64(600 + seed)
        fwd, rev = ([t64(rng, shape, True) for shape in ((3, 16), (4, 16), (16,))]
                    for _ in range(2))
        x = t64(rng, (2, 5, 3), grad=True)
        build = lambda: ops.tsum(ops.tanh(ops.lstm_layer(x, [fwd, rev])[:, :, 4:]))
        assert check_gradients(build, rev + [x]) <= 1e-4
        assert not any(p.grad.any() for p in fwd)

    @pytest.mark.parametrize("t_len", [1, 6])
    def test_two_direction_gradcheck(self, t_len):
        rng = rng64(650 + t_len)
        directions = [[t64(rng, shape, True) for shape in ((3, 12), (3, 12), (12,))]
                      for _ in range(2)]
        x = t64(rng, (2, t_len, 3), grad=True)
        weights = t64(rng, (2, t_len, 6))
        build = lambda: ops.tsum(ops.mul(ops.tanh(ops.lstm_layer(x, directions)), weights))
        assert check_gradients(build, directions[0] + directions[1] + [x]) <= 1e-4

    def test_mixed_dtypes_rejected(self):
        layer, x = self._layer_and_input((2, 4, 3, 5, 1, True), np.float64)
        with pytest.raises(ValueError, match="float32.*float64"):
            layer(Tensor(x.data.astype(np.float32)))
        with pytest.raises(ValueError, match="1 or 2 directions"):
            ops.lstm_layer(x, [])

    def test_one_node_per_layer(self):
        # the per-direction nodes and their concat made 3 nodes a biLSTM layer
        layer, x = self._layer_and_input((2, 6, 4, 3, 2, True), np.float64)
        out = layer(x)
        leaves = 1 + len(layer.params())
        assert graph_size(out) - leaves == 2
        assert out._parents[0]._parents[0] is x

    def test_single_step_gradcheck(self):
        rng = rng64(700)
        layer = nn.LSTM(3, 4, num_layers=2, bidirectional=True, rng=rng, dtype=np.float64)
        x = t64(rng, (2, 1, 3), grad=True)
        build = lambda: ops.tsum(ops.tanh(layer(x)))
        assert check_gradients(build, layer.params() + [x]) <= 1e-4

    def test_graph_size_independent_of_length(self):
        # stands in for "backward cost per step flat in T": the composite
        # graph grows by ~12 nodes a step, the fused one not at all
        sizes, composite = [], []
        for t_len in (5, 50):
            layer, x = self._layer_and_input((2, t_len, 4, 3, 2, True), np.float64)
            sizes.append(graph_size(layer(x)))
            composite.append(graph_size(composite_lstm(layer, x)))
        assert sizes[0] == sizes[1]
        assert composite[1] > composite[0]

    def test_no_grad_forward_records_nothing(self):
        layer, x = self._layer_and_input((2, 6, 4, 3, 2, True), np.float32)
        with nn.no_grad():
            out = layer(x)
        assert out._backward is None and out._parents == ()
        assert not out.requires_grad

    def test_input_without_grad_gets_none(self):
        layer, x = self._layer_and_input((2, 6, 4, 3, 1, True), np.float64)
        x.requires_grad = False
        ops.tsum(layer(x)).backward()
        assert x.grad is None
        assert all(p.grad is not None for p in layer.params())


class TestLstmNoGradRows:
    """Without a graph to record, `lstm_layer` keeps one step's gates and cells."""

    @staticmethod
    def _peak_bytes(x, directions, grad):
        tracemalloc.start()
        try:
            if grad:
                ops.lstm_layer(x, directions)
            else:
                with nn.no_grad():
                    ops.lstm_layer(x, directions)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_dir", [1, 2])
    def test_gate_and_cell_memory_flat_in_length(self, n_dir):
        # OptModel's sizes at B=1: T=50 against T=5
        bsz, in_f, h_dim, item, grow = 1, 102, 51, 4, 45
        rng = rng64(800 + n_dir)
        directions = [[Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float32)
                       for shape in ((in_f, 4 * h_dim), (h_dim, 4 * h_dim), (4 * h_dim,))]
                      for _ in range(n_dir)]
        peaks = {}
        for grad in (False, True):
            for t_len in (5, 5 + grow):
                x = Tensor(rng.normal(size=(bsz, t_len, in_f)), dtype=np.float32)
                peaks[grad, t_len] = self._peak_bytes(x, directions, grad)
        no_grad = peaks[False, 5 + grow] - peaks[False, 5]
        # only pre, hs and out grow with T, 6H a step and direction: one
        # direction steps through its input projection itself, and two are
        # stacked into pre one projection at a time, so no more is alive then.
        # An extra step of gates, cells and tanh(cells) is 6H a direction too.
        # Allowed on top: numpy's ufunc buffer, which the broadcast bias add
        # takes up to its size.
        per_step = bsz * item * n_dir * 6 * h_dim
        bound = grow * per_step + np.getbufsize() * item
        assert no_grad <= bound
        # a recorded graph keeps every step's rows, and the bound sees it
        assert peaks[True, 5 + grow] - peaks[True, 5] > bound


class TestLstmBackwardMemory:
    """`lstm_layer`'s backward keeps no whole-sequence derivative arrays."""

    @pytest.mark.parametrize("n_dir", [1, 2])
    def test_backward_peak_grows_only_by_its_gradients(self, n_dir):
        bsz, in_f, h_dim, item, grow = 8, 40, 16, 8, 30
        rng = rng64(830 + n_dir)
        directions = [[t64(rng, shape, True) for shape in ((in_f, 4 * h_dim),
                                                           (h_dim, 4 * h_dim), (4 * h_dim,))]
                      for _ in range(n_dir)]
        peaks = {}
        for t_len in (10, 10 + grow):
            for p in (p for d in directions for p in d):
                p.grad = None
            x = t64(rng, (bsz, t_len, in_f), grad=True)
            loss = ops.tsum(ops.lstm_layer(x, directions))  # a broadcast, unallocated gout
            tracemalloc.start()
            try:
                loss.backward()
                peaks[t_len] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a step adds the output gradient in step order (H) and dz in time
        # order (4H) a direction, and the input gradient (F). The backward
        # this replaced also built whole-sequence derivative factors and
        # previous states (7H a direction) and a step-ordered dz (4H).
        per_step = bsz * item * (n_dir * 5 * h_dim + in_f)
        assert peaks[10 + grow] - peaks[10] <= grow * per_step + np.getbufsize() * item


def stored_xhat_batch_norm(x, gamma, beta, eps):
    """Oracle: `batch_norm` as it was when its node kept the normalised copy xhat."""
    x2 = x.data.reshape(-1, x.data.shape[-1])
    n = len(x2)
    mean = x2.mean(axis=0)
    xhat = x2 - mean
    var = (xhat * xhat).mean(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    def backward(g):
        g = g.reshape(x2.shape)
        dbeta = g.sum(axis=0)
        gx = g * xhat
        dgamma = gx.sum(axis=0)
        gamma._accumulate(dgamma)
        beta._accumulate(dbeta)
        dx = n * g
        dx -= dbeta
        dx -= np.multiply(xhat, dgamma, out=gx)
        dx *= gamma.data * inv / n
        x._accumulate(dx.reshape(x.data.shape))

    out = xhat * gamma.data
    out += beta.data
    return ops._make(out.reshape(x.data.shape), (x, gamma, beta), backward), mean, var


def composite_batch_norm(x, gamma, beta, eps):
    """Oracle: training-mode batch norm of x (..., F) from elementwise and reduction ops.

    The composite `BatchNorm1d` ran before the fused node, with its `1.0` taken
    in x's dtype: without `like=` it was a float64 constant, and promotion made
    every activation after the first batch norm float64. Statistics pool over
    every axis but the last.
    """
    axes = tuple(range(x.data.ndim - 1))
    mean = ops.tmean(x, axis=axes)
    centered = ops.add(x, ops.mul(mean, -1.0))
    var = ops.tmean(ops.mul(centered, centered), axis=axes)
    inv = ops.div(ops.as_tensor(1.0, like=var), ops.sqrt(ops.add(var, eps)))
    out = ops.add(ops.mul(ops.mul(centered, inv), gamma), beta)
    return out, mean.data, var.data


def with_relu(batch_norm):
    """Oracle: a batch norm node followed by the `relu` node, which `batch_norm_relu` fuses."""

    def run(x, gamma, beta, eps):
        out, mean, var = batch_norm(x, gamma, beta, eps)
        return ops.relu(out), mean, var

    return run


composite_batch_norm_relu = with_relu(composite_batch_norm)
stored_xhat_batch_norm_relu = with_relu(stored_xhat_batch_norm)

# (rows, features): VelModel's bn1 (B=41, T=50, 39 widths) and bn_fc, and a small case.
BATCH_NORM_SHAPES = [(41 * 50 * 39, 32), (41 * 50, 128), (7, 4)]


class TestFusedBatchNorm:
    """The fused `batch_norm_relu` op against the composite and `relu` it replaced."""

    @staticmethod
    def _inputs(shape, dtype, seed=0):
        rng = rng64(seed)
        x = Tensor((3.0 + 2.0 * rng.normal(size=shape)).astype(dtype), requires_grad=True)
        gamma = Tensor(rng.normal(size=shape[1]).astype(dtype), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[1]).astype(dtype), requires_grad=True)
        return x, gamma, beta

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", BATCH_NORM_SHAPES)
    def test_forward_bit_identical_to_composite(self, shape, dtype):
        x, gamma, beta = self._inputs(shape, dtype)
        out, mean, var = ops.batch_norm_relu(x, gamma, beta, nn.BatchNorm1d.eps)
        oracle = composite_batch_norm_relu(x, gamma, beta, nn.BatchNorm1d.eps)
        assert (oracle[0].data == 0).any() and (oracle[0].data > 0).any()
        for fused, ref in zip((out.data, mean, var), (oracle[0].data,) + oracle[1:]):
            assert fused.dtype == ref.dtype == dtype
            assert np.array_equal(fused, ref)

    @pytest.mark.parametrize("shape", BATCH_NORM_SHAPES[1:])
    def test_float64_gradients_match_composite(self, shape):
        x, gamma, beta = self._inputs(shape, np.float64, seed=1)
        weights = t64(rng64(2), shape)
        grads = []
        for run in (ops.batch_norm_relu, composite_batch_norm_relu):
            for p in (x, gamma, beta):
                p.grad = None
            out = run(x, gamma, beta, nn.BatchNorm1d.eps)[0]
            ops.tsum(ops.mul(ops.tanh(out), weights)).backward()
            grads.append([p.grad.copy() for p in (x, gamma, beta)])
        for fused, oracle in zip(*grads):
            assert relative_error(fused, oracle) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        # float64, with every pre-activation away from the ReLU's kink
        x, gamma, beta = self._inputs((6, 3), np.float64, seed=800 + seed)
        beta.data = kink_free_beta(x.data, gamma.data)
        weights = t64(rng64(seed), (6, 3))
        build = lambda: ops.tsum(ops.mul(
            ops.tanh(ops.batch_norm_relu(x, gamma, beta, 1e-5)[0]), weights))
        assert (build().data != 0) and check_gradients(build, [x, gamma, beta]) <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_matches_composite_on_channel_last_input(self, dtype):
        # (B, W, C) input: statistics pool over batch and width per channel
        rng = rng64(3)
        layer = nn.BatchNorm1d(5, dtype=dtype)
        x = Tensor(rng.normal(size=(4, 5, 6)).astype(dtype).transpose(0, 2, 1),
                   requires_grad=True)
        out = layer(x, training=True).data
        flat = Tensor(x.data.reshape(24, 5))
        oracle, mean, var = composite_batch_norm_relu(flat, layer.gamma, layer.beta, layer.eps)
        assert out.dtype == dtype
        assert np.array_equal(out, oracle.data.reshape(4, 6, 5))
        assert np.array_equal(layer.running_mean, 0.9 * np.zeros(5, dtype) + 0.1 * mean)
        assert np.array_equal(layer.running_var, 0.9 * np.ones(5, dtype) + 0.1 * var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7, 4), (3, 5, 4)])
    def test_training_keeps_input_dtype(self, shape, dtype):
        layer = nn.BatchNorm1d(4, dtype=dtype)
        x = Tensor(rng64(4).normal(size=shape).astype(dtype), requires_grad=True)
        out = layer(x, training=True)
        assert out.data.dtype == dtype
        ops.tsum(out).backward()
        assert x.grad.dtype == dtype

    def test_input_without_grad_gets_none(self):
        x, gamma, beta = self._inputs((7, 4), np.float64)
        x.requires_grad = False
        ops.tsum(ops.mul(ops.batch_norm_relu(x, gamma, beta, 1e-5)[0],
                         t64(rng64(5), (7, 4)))).backward()
        assert x.grad is None
        assert gamma.grad is not None and beta.grad is not None

    def test_channel_last_layer_is_one_node(self):
        layer = nn.BatchNorm1d(5, dtype=np.float64)
        x = t64(rng64(7), (4, 6, 5), grad=True)
        out = layer(x, training=True)
        assert out._parents == (x, layer.gamma, layer.beta)
        assert graph_size(out) == 4

    def test_velmodel_training_graph_size(self):
        model = VelModel(29, dtype=np.float64)
        x = Tensor(rng64(6).normal(size=(2, 5, 29)), dtype=np.float64)
        # 56 while a `relu` node followed each of the four batch norms
        assert graph_size(model.forward(x, training=True)) == 52

    def test_velmodel_training_graph_shrinks(self, monkeypatch):
        # each composite is 11 ops and 3 constants, and its `relu` one more
        # op; the fused node is one node: 14 fewer for each of VelModel's four
        # batch norms
        model = VelModel(29, dtype=np.float64)
        x = Tensor(rng64(6).normal(size=(2, 3, 29)), dtype=np.float64)
        fused = graph_size(model.forward(x, training=True))
        monkeypatch.setattr(ops, "batch_norm_relu", composite_batch_norm_relu)
        composite = graph_size(model.forward(x, training=True))
        assert composite - fused == 4 * 14


class TestRecomputedBatchNorm:
    """`batch_norm_relu`, which recomputes xhat in backward, against the node that
    stored it followed by `relu`: values and gradients bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", BATCH_NORM_SHAPES)
    def test_bit_identical_to_stored_xhat(self, shape, dtype):
        x, gamma, beta = TestFusedBatchNorm._inputs(shape, dtype, seed=3)
        weights = Tensor(rng64(4).normal(size=shape).astype(dtype))
        runs = []
        for run in (ops.batch_norm_relu, stored_xhat_batch_norm_relu):
            for p in (x, gamma, beta):
                p.grad = None
            out, mean, var = run(x, gamma, beta, nn.BatchNorm1d.eps)
            ops.tsum(ops.mul(ops.tanh(out), weights)).backward()
            runs.append([out.data, mean, var] + [p.grad for p in (x, gamma, beta)])
        for got, ref in zip(*runs):
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)


class TestTrainingGraphMemory:
    """What a VelModel training forward leaves alive for its backward."""

    @staticmethod
    def _held_bytes(model, x):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward(x, training=True)  # noqa: F841 (alive while measured)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return held

    def test_graph_keeps_no_columns_and_no_xhat(self, monkeypatch):
        # against the im2col conv node, and batch norm nodes that stored xhat
        # with a `relu` node after each, which kept the pre-ReLU output alive
        bsz, t_len, bins = 2, 10, 81
        model = VelModel(bins)
        x = Tensor(rng64(8).random((bsz, t_len, bins)), dtype=np.float32)
        item = np.dtype(np.float32).itemsize
        frames, width, cols, act = bsz * t_len, bins, 0, 0
        for conv in (model.conv1, model.conv2, model.conv3):
            c_out, c_in, k = conv.weight.shape
            width = conv.out_width(width)
            cols += frames * width * k * c_in * item
            act += frames * width * c_out * item
        act += frames * model.fc1.weight.shape[1] * item  # bn_fc
        model.forward(x, training=True)  # first-call allocations out of the way
        new = self._held_bytes(model, x)
        monkeypatch.setattr(ops, "conv1d", im2col_conv1d)
        monkeypatch.setattr(ops, "batch_norm_relu", stored_xhat_batch_norm_relu)
        old = self._held_bytes(model, x)
        # xhat and the pre-ReLU output are each one batch-norm activation
        assert old - new >= cols + 2 * act, (old, new, cols, act)


@dataclass
class _AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def _adam_step(state: _AdamState, params: list, grads: list) -> list:
    """The functional Adam update `Adam.step` replaced, kept as its reference."""
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for name, buffers in (("m", state.m), ("v", state.v)):
        for buf, p in zip(buffers, params):
            if buf.shape != p.shape:
                raise ValueError(f"Adam {name}-buffer shape {buf.shape} does not match "
                                 f"parameter shape {p.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


def _param(values, dtype=np.float64):
    return Tensor(np.array(values, dtype=dtype), requires_grad=True)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0, 3.0])
        w = _param(p)
        opt = nn.Adam([w], lr=0.01)
        w.grad = np.zeros(3)
        opt.step()
        assert np.array_equal(w.data, p)

    def test_first_step_magnitude_is_lr(self):
        w = _param(np.zeros(3))
        opt = nn.Adam([w], lr=0.05)
        g = np.array([0.3, -2.0, 0.001])
        w.grad = g
        opt.step()
        # bias correction makes the first update exactly lr * sign(g)
        assert np.allclose(w.data, -0.05 * np.sign(g), atol=1e-6)

    def test_quadratic_bowl_convergence(self):
        # scripted convergence oracle: minimize |w|^2 from |w| = 1
        w = Tensor(np.array([0.6, -0.8]), requires_grad=True, dtype=np.float64)
        opt = nn.Adam([w], lr=0.01)
        for _ in range(500):
            opt.zero_grad()
            loss = ops.tsum(ops.mul(w, w))
            loss.backward()
            opt.step()
        assert np.linalg.norm(w.data) < 1e-2

    def test_shape_mismatch_rejected(self):
        w = _param(np.zeros(3))
        opt = nn.Adam([w])
        w.grad = np.zeros(4)
        with pytest.raises(ValueError):
            opt.step()

    def test_shape_mismatch_moves_nothing(self):
        # the second gradient is bad: no parameter, moment or step count moves
        a, b = _param(np.ones(2)), _param(np.ones(2))
        opt = nn.Adam([a, b], lr=0.1)
        a.grad, b.grad = np.ones(2), np.ones(5)
        with pytest.raises(ValueError, match=r"\(5,\)"):
            opt.step()
        assert np.array_equal(a.data, np.ones(2)) and np.array_equal(b.data, np.ones(2))
        assert opt.step_count == 0
        assert all(not m.any() for m in opt.m) and all(not v.any() for v in opt.v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_equal_functional_update(self, dtype):
        rng = rng64(8)
        shapes = [(4, 3), (3,), (2, 5, 2)]
        params = [_param(rng.normal(size=s), dtype) for s in shapes]
        opt = nn.Adam(params, lr=0.01)
        state = _AdamState(lr=0.01)
        ref = [p.data.copy() for p in params]
        for step in range(6):
            grads = [rng.normal(size=s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            if step == 3:  # a parameter without a gradient takes a zero one
                params[1].grad = None
                grads[1] = np.zeros_like(grads[1])
            opt.step()
            ref = [r.astype(dtype, copy=False) for r in _adam_step(state, ref, grads)]
            for p, r in zip(params, ref):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, r)


class _Toy:
    """Linear -> BatchNorm -> biLSTM, built from its meta like the real models."""

    def __init__(self, width=3, seed=0):
        rng = rng64(seed)
        self.width = width
        self.fc = nn.Linear(4, width, rng=rng)
        self.bn = nn.BatchNorm1d(width)
        self.lstm = nn.LSTM(width, 5, bidirectional=True, rng=rng)

    def params(self):
        return self.fc.params() + self.bn.params() + self.lstm.params()

    def state_arrays(self):
        return self.bn.state_arrays()

    def save(self, path, meta=None):
        nn.save_checkpoint(path, kind="toy", params=self.params(), state=self.state_arrays(),
                           meta={"width": self.width} if meta is None else meta)

    @staticmethod
    def build(meta):
        return _Toy(int(meta["width"]), seed=99)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        toy = _Toy(seed=11)
        toy.bn.running_mean[:] = [0.5, -1.0, 2.0]
        toy.bn.running_var[:] = [1.5, 0.25, 3.0]
        path = tmp_path / "model.dpc"
        toy.save(path)
        back = nn.load_checkpoint(path, "toy", _Toy.build)
        assert isinstance(back, _Toy)
        assert len(back.params()) == len(toy.params())
        for a, b in zip(back.params() + back.state_arrays(),
                        toy.params() + toy.state_arrays()):
            assert np.array_equal(getattr(a, "data", a), getattr(b, "data", b))
        assert "layers" not in containers.read_container(path)[0]

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "frames.dpc"
        containers.write_array(path, "pose", np.zeros((2, 17, 3)), dt=0.1)
        with pytest.raises(containers.ContainerError, match="frames.dpc"):
            nn.load_checkpoint(path, "toy", _Toy.build)

    def test_shape_mismatch_names_file(self, tmp_path):
        path = tmp_path / "model.dpc"
        _Toy(width=3).save(path)
        header, payload = containers.read_container(path)
        header["meta"]["width"] = 2
        containers.write_container(path, header, payload)
        with pytest.raises(ValueError, match="model.dpc: parameter array 0"):
            nn.load_checkpoint(path, "toy", _Toy.build)

    def test_missing_meta_field_names_file(self, tmp_path):
        path = tmp_path / "model.dpc"
        _Toy().save(path, meta={})
        with pytest.raises(ValueError, match="model.dpc: cannot build"):
            nn.load_checkpoint(path, "toy", _Toy.build)

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "model.dpc"
        _Toy().save(path)
        header, payload = containers.read_container(path)
        containers.write_container(path, header, payload[:-1])
        with pytest.raises(containers.ContainerError, match="model.dpc: payload"):
            nn.load_checkpoint(path, "toy", _Toy.build)

    def test_legacy_layers_field_ignored(self, tmp_path):
        toy = _Toy(seed=5)
        path = tmp_path / "model.dpc"
        toy.save(path)
        header, payload = containers.read_container(path)
        header["layers"] = [{"kind": "linear", "in_features": 4, "out_features": 3,
                             "bias": True}, {"kind": "activation", "fn": "relu"}]
        containers.write_container(path, header, payload)
        back = nn.load_checkpoint(path, "toy", _Toy.build)
        for a, b in zip(back.params(), toy.params()):
            assert np.array_equal(a.data, b.data)