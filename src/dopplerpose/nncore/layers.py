"""Layer set for the spectrogram and pose networks.

Covers exactly what the two model stacks need: strided, unpadded 1-D
convolution with a bias over the Doppler axis, batch normalization with its
ReLU, (bi)LSTM and fully-connected layers (the other activations are the
plain `tensor.relu`/`tensor.tanh` ops). Parameters are initialized with uniform
fan-in scaling from a caller-supplied numpy Generator so models are
reproducible per seed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


class Linear:
    def __init__(self, in_features: int, out_features: int, *, rng=None, dtype=np.float32):
        if in_features < 1 or out_features < 1:
            raise ValueError("Linear dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.weight = _uniform(rng, in_features, (in_features, out_features), dtype)
        self.bias = _uniform(rng, in_features, (out_features,), dtype)

    def params(self):
        return [self.weight, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)


class Conv1d:
    """Unpadded 1-D convolution over channel-last (B, W, C_in) input -> (B, W_out, C_out)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, *, rng=None, dtype=np.float32):
        if min(in_channels, out_channels, kernel, stride) < 1:
            raise ValueError("Conv1d dimensions must be positive")
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel
        self.weight = _uniform(rng, fan_in, (out_channels, in_channels, kernel), dtype)
        self.bias = _uniform(rng, fan_in, (out_channels,), dtype)
        self.stride = stride

    def params(self):
        return [self.weight, self.bias]

    def out_width(self, in_width: int) -> int:
        k = self.weight.shape[2]
        return (in_width - k) // self.stride + 1

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.stride)


class BatchNorm1d:
    """Feature-wise normalization and then ReLU: batch statistics in training, running in inference.

    Normalizes the last axis of (N, F) or channel-last (B, W, C) input, whose
    statistics pool over batch and width per channel. Training runs the
    `batch_norm_relu` node (Ioffe & Szegedy, ICML 2015) in the input's dtype.
    Every batch norm of the models is followed by a ReLU, so the layer applies
    it, and one training node holds one activation: a separate `relu` node
    would keep the pre-ReLU output alive next to its own until backward.
    Inference applies the same ReLU after the running-statistics affine map.
    The class keeps its name, since the benchmark's tracer times
    `BatchNorm1d.__call__`.
    """

    momentum = 0.1  # weight of the newest batch in the running statistics
    eps = 1e-5

    def __init__(self, features: int, *, dtype=np.float32):
        if features < 1:
            raise ValueError("BatchNorm features must be positive")
        self.gamma = Tensor(np.ones(features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(features, dtype=dtype)
        self.running_var = np.ones(features, dtype=dtype)

    def params(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        return [self.running_mean, self.running_var]

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        if x.data.ndim < 2:
            raise ValueError(f"BatchNorm1d expects (N, F) or (B, W, C) input, got {x.data.shape}")
        if training:
            out, mean, var = T.batch_norm_relu(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean
                                 + m * mean.astype(self.running_mean.dtype))
            self.running_var = ((1 - m) * self.running_var
                                + m * var.astype(self.running_var.dtype))
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = T.mul(T.add(x, -self.running_mean.astype(x.data.dtype)),
                     inv.astype(x.data.dtype))
        return T.relu(T.add(T.mul(xhat, self.gamma), self.beta))


class LSTM:
    """Standard LSTM over (B, T, F); bidirectional stacks concatenate outputs.

    Each layer is one `lstm_layer` graph node whose directions step together
    in one loop, and whose backward is backpropagation through time
    (Hochreiter & Schmidhuber 1997; Graves 2012, ch. 4): its cost per step
    does not grow with the sequence length.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 bidirectional: bool = False, *, rng=None, dtype=np.float32):
        if min(input_size, hidden_size, num_layers) < 1:
            raise ValueError("LSTM dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        self.dirs = 2 if bidirectional else 1
        self.weights = []  # per (layer, direction): dict of W_ih, W_hh, b
        for layer in range(num_layers):
            in_f = input_size if layer == 0 else hidden_size * self.dirs
            for _ in range(self.dirs):
                self.weights.append({
                    "W_ih": _uniform(rng, in_f, (in_f, 4 * hidden_size), dtype),
                    "W_hh": _uniform(rng, hidden_size, (hidden_size, 4 * hidden_size), dtype),
                    "b": _uniform(rng, hidden_size, (4 * hidden_size,), dtype),
                })

    def params(self):
        out = []
        for w in self.weights:
            out.extend([w["W_ih"], w["W_hh"], w["b"]])
        return out

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 3:
            raise ValueError(f"LSTM expects (B, T, F) input, got {x.data.shape}")
        if x.data.shape[2] != self.input_size:
            raise ValueError(
                f"LSTM built for {self.input_size} input features, got {x.data.shape[2]}")
        out = x
        for layer in range(self.num_layers):
            layer_weights = self.weights[layer * self.dirs:(layer + 1) * self.dirs]
            out = T.lstm_layer(out, [(w["W_ih"], w["W_hh"], w["b"]) for w in layer_weights])
        return out

