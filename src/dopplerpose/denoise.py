"""Spectrogram denoising with a deterministic quantile baseline.

The denoiser estimates a per-column noise floor at a configurable quantile,
subtracts it with clipping at zero and re-normalizes the map to [0, 1].
Normalization here is per-spectrogram, like the spectrogram assembly step.
The undenoised input is the M variant itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caf import Spectrogram


@dataclass
class DenoiseParams:
    """quantile: the per-column quantile used as the noise-floor estimate."""

    quantile: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.quantile < 1.0:
            raise ValueError(f"quantile must be in [0, 1), got {self.quantile}")


def denoise(s: Spectrogram, p: DenoiseParams) -> Spectrogram:
    """Subtract the noise floor; shape, Doppler axis and dt are preserved."""
    if not isinstance(p, DenoiseParams):
        raise ValueError("params must be a DenoiseParams instance")
    thr = np.quantile(s.values, p.quantile, axis=0, keepdims=True)
    out = np.maximum(s.values - thr, 0.0)
    m = out.max()
    if m > 0:
        out = out / m
    return Spectrogram(out, s.doppler_axis.copy(), s.dt)
