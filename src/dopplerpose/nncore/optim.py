"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam over a list of parameter tensors; owns the moment buffers `m`, `v`."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter; a missing gradient counts as zero.

        Every gradient's shape is checked before any parameter moves.
        """
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for p, g in zip(self.params, grads):
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            new = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = new.astype(p.data.dtype, copy=False)
