"""Output checks: seed-independent invariants and recorded references.

A reference holds, per workload, seed and operation index, a compact
fingerprint of each output array: its shape, sum, absolute maximum and four
projections onto fixed pseudo-random weights. Comparing fingerprints within
an element tolerance `tol` is a necessary condition for the arrays to agree
element-wise within `tol`: each projection may move by at most
`tol * sum(|w|)`. The references live in perfbench/reference/ and were
recorded at the commit the benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# One float32 rounding step relative to the value (2**-24 ~ 6e-8).
F32_STEP = 2.0 ** -24
# Network outputs and poses: float32 rounding accumulated through the layers.
F32_NET_RTOL = 1e-5
# The ROADMAP's spectrogram tolerance; the dataset stores spectrograms as
# float32, so one float32 rounding step of the stored value is added.
SPEC_ATOL = 1e-9
# Training losses after a few Adam steps: Adam's first steps follow the
# gradient's sign, so rounding moves losses more than it moves one forward.
LOSS_RTOL = 1e-3

_N_PROJ = 4


def _weights(size: int) -> np.ndarray:
    return np.random.default_rng(size).uniform(-1.0, 1.0, size=(_N_PROJ, size))


def fingerprint(arr) -> dict:
    a = np.asarray(arr, dtype=np.float64).ravel()
    return {"shape": list(np.shape(arr)), "sum": float(a.sum()),
            "absmax": float(np.abs(a).max()) if a.size else 0.0,
            "proj": [float(x) for x in _weights(a.size) @ a]}


def compare_fingerprint(name: str, arr, ref: dict, atol: float, rtol: float = 0.0):
    """Failure messages if `arr` cannot be within atol + rtol*|value| of the reference."""
    got = fingerprint(arr)
    if got["shape"] != ref["shape"]:
        return [f"{name}: shape {got['shape']} != reference {ref['shape']}"]
    tol = atol + rtol * max(1.0, ref["absmax"])
    a = np.asarray(arr, dtype=np.float64).ravel()
    w = _weights(a.size)
    limits = [("sum", a.size * tol, got["sum"], ref["sum"]),
              ("absmax", tol, got["absmax"], ref["absmax"])]
    limits += [(f"proj{k}", tol * float(np.abs(w[k]).sum()), got["proj"][k], ref["proj"][k])
               for k in range(_N_PROJ)]
    return [f"{name}: {what} differs by {abs(g - r):.3g} (limit {lim:.3g})"
            for what, lim, g, r in limits if not abs(g - r) <= lim]


def digest(arrays: dict) -> str:
    """Bit-exact digest of named arrays (used for traced/untraced equality)."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def finite(name: str, arr):
    return [] if np.isfinite(np.asarray(arr)).all() else [f"{name}: non-finite values"]


def shape(name: str, arr, expected: tuple):
    got = tuple(np.shape(arr))
    return [] if got == tuple(expected) else [f"{name}: shape {got} != {tuple(expected)}"]


def max_normalized(name: str, values, exact_peak: bool = True):
    """Spectrogram values lie in [0, 1]; with exact_peak the maximum is 1."""
    v = np.asarray(values)
    out = []
    if v.min() < 0 or v.max() > 1:
        out.append(f"{name}: values outside [0, 1]")
    if exact_peak and v.max() != 1.0:
        out.append(f"{name}: maximum is {v.max()!r}, not 1")
    return out


class References:
    """Recorded fingerprints for one workload, keyed by seed and op index."""

    def __init__(self, workload: str, directory: Path = REFERENCE_DIR):
        self.path = directory / f"{workload}.json"
        self.data = (json.loads(self.path.read_text(encoding="utf-8"))
                     if self.path.exists() else {"seeds": {}})

    def get(self, seed: int, index: int):
        ops = self.data["seeds"].get(str(seed), [])
        return ops[index] if 0 <= index < len(ops) else None
