"""Central-finite-difference gradient checks for the tests (and demo 05)."""

from __future__ import annotations

import numpy as np

from dopplerpose.nncore import Tensor


def finite_difference(loss_fn, arrays: list[np.ndarray], h: float = 1e-3) -> list[np.ndarray]:
    """Numerical gradients of scalar loss_fn(arrays) w.r.t. every array entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn())
            flat[i] = orig - h
            down = float(loss_fn())
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def check_gradients(build_loss, params: list[Tensor], h: float = 1e-3) -> float:
    """Compare autograd gradients of build_loss() against central differences.

    build_loss must construct the scalar loss from the given parameter
    tensors each time it is called (parameters are perturbed in place).
    Returns the worst relative error across all parameters.
    """
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [np.array(p.grad, dtype=np.float64) for p in params]
    numeric = finite_difference(lambda: build_loss().data, [p.data for p in params], h=h)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))
