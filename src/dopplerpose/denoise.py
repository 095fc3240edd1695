"""Spectrogram denoising with a deterministic quantile baseline.

The denoiser estimates a per-column noise floor at a given quantile,
subtracts it with clipping at zero and re-normalizes the map to [0, 1].
Normalization here is per-spectrogram, like the spectrogram assembly step.
The undenoised input is the M variant itself.
"""

from __future__ import annotations

import numpy as np

from .caf import Spectrogram


def denoise(s: Spectrogram, quantile: float) -> Spectrogram:
    """Subtract the per-column `quantile` (in [0, 1)) as the noise floor.

    Shape, Doppler axis and dt are preserved.
    """
    if not 0.0 <= quantile < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {quantile}")
    thr = np.quantile(s.values, quantile, axis=0, keepdims=True)
    out = np.maximum(s.values - thr, 0.0)
    m = out.max()
    if m > 0:
        out = out / m
    return Spectrogram(out, s.doppler_axis.copy(), s.dt)
