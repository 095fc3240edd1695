"""Noise-floor suppression on measured-style spectrograms.

Run:  python3 demos/04_denoising.py
"""

import numpy as np

from dopplerpose import denoise
from dopplerpose.harness import load_config, simulate_activity
from dopplerpose.motion import ActivityKind

cfg = load_config("configs/default.json")
pose, s_spec, m_spec, d_spec = simulate_activity(cfg, ActivityKind.WPLUS, seed=9)

print(f"S (clean)     : median {np.median(s_spec.values):.3f}")
print(f"M (interfered): median {np.median(m_spec.values):.3f}  "
      f"|M-S| = {np.abs(m_spec.values - s_spec.values).mean():.4f}")
print(f"D (denoised)  : median {np.median(d_spec.values):.3f}  "
      f"|D-S| = {np.abs(d_spec.values - s_spec.values).mean():.4f}")

# M is the undenoised input; the denoiser estimates a per-column noise floor
# at a quantile, subtracts it and clips at zero.
print(f"D against M   : |D-M| = {np.abs(d_spec.values - m_spec.values).mean():.4f}, "
      f"zeroed fraction {np.mean(m_spec.values == 0):.2f} -> {np.mean(d_spec.values == 0):.2f}")

for q in (0.4, 0.6, 0.8):
    d = denoise(m_spec, q)
    print(f"quantile {q:.1f}: zeroed fraction {np.mean(d.values == 0):.2f}, "
          f"|D-S| = {np.abs(d.values - s_spec.values).mean():.4f}")
