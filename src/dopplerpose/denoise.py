"""Spectrogram denoising with a deterministic quantile baseline.

The "threshold" method estimates a per-column noise floor at a configurable
quantile, subtracts it with clipping at zero (or a soft knee) and
re-normalizes the map to [0, 1]. Normalization here is per-spectrogram, like
the spectrogram assembly step; "passthrough" returns the input unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caf import Spectrogram

METHODS = ("passthrough", "threshold")


@dataclass
class DenoiseParams:
    """Configuration for the baseline denoiser.

    method: "passthrough" returns the input; "threshold" subtracts a noise
        floor per column.
    quantile: per-column quantile used as the floor estimate.
    slope: soft-threshold knee width; 0 gives a hard subtract-and-clip.
    """

    method: str = "threshold"
    quantile: float = 0.6
    slope: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.quantile < 1.0:
            raise ValueError(f"quantile must be in [0, 1), got {self.quantile}")
        if self.slope < 0:
            raise ValueError("slope must be non-negative")


def _soft_shrink(x: np.ndarray, thr: np.ndarray, slope: float) -> np.ndarray:
    """max(x - thr, 0), smoothed over a knee of width `slope` when slope > 0."""
    d = x - thr
    if slope <= 0:
        return np.maximum(d, 0.0)
    return 0.5 * (d + np.sqrt(d * d + slope * slope))


def denoise(s: Spectrogram, p: DenoiseParams) -> Spectrogram:
    """Apply the configured denoiser; shape, Doppler axis and dt are preserved."""
    if not isinstance(p, DenoiseParams):
        raise ValueError("params must be a DenoiseParams instance")
    if p.method == "passthrough":
        return Spectrogram(s.values.copy(), s.doppler_axis.copy(), s.dt)

    thr = np.quantile(s.values, p.quantile, axis=0, keepdims=True)
    out = _soft_shrink(s.values, thr, p.slope)
    m = out.max()
    if m > 0:
        out = out / m
    return Spectrogram(out, s.doppler_axis.copy(), s.dt)
