"""CAF -> CLEAN -> micro-Doppler spectrogram, with an ASCII rendering.

Run:  python3 demos/03_spectrograms.py
"""

import numpy as np

from dopplerpose import (
    ActivityKind,
    Geometry,
    InterferenceConfig,
    ScattererModel,
    clean_dsi,
    compute_caf,
    generate_activity,
    generate_waveform,
    self_caf,
    spectrogram_pipeline,
    synthesize_reference,
    synthesize_surveillance,
)

geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0], rx_ref_pos=[-3.8, 8, 1.5])
fs = 16e3
pose = generate_activity(ActivityKind.WPLUS, 5.0, seed=5)
u = generate_waveform(8e3, 5.0, fs, seed=1)
ref = synthesize_reference(u, geom)

# One scene, two channels: the targets alone, and with DSI added.
sur_clean, sur = synthesize_surveillance(u, pose, ScattererModel(), geom,
                                         InterferenceConfig(dsi_amplitude=0.05), 0)

# DSI-dominated channel first: watch CLEAN strip the zero-Doppler ridge. The
# whole 5 s capture is one batched CAF with a zero-lag row per 0.1 s CPI, and
# one CLEAN pass cancels every row against the reference's own CAF.
cpi = dict(cpi_s=0.1, doppler_span_hz=100.0, doppler_oversample=4)
caf = compute_caf(sur, ref, **cpi)
cleaned = clean_dsi(caf, self_caf(ref, **cpi))
# CLEAN cancels the 0 Hz bin itself to rounding; the ridge is that bin and its
# Doppler sidelobes. Mid-walk CPI 20 shows it:
ridge = np.abs(caf.doppler_axis) <= 5.0
before = np.abs(caf.grid[20, ridge]).max()
after = np.abs(cleaned.grid[20, ridge]).max()
print(f"CLEAN over {len(caf.grid)} CPIs: zero-Doppler ridge (|f| <= 5 Hz) of CPI 20 "
      f"{20 * np.log10(after / before):.1f} dB after one pass")

# Full spectrogram of the clean channel: the walking track sweeps ~+30 Hz.
spec = spectrogram_pipeline(sur_clean, ref, cpi_s=0.1, doppler_span_hz=100.0,
                            doppler_oversample=4)
print(f"spectrogram: {spec.values.shape[0]} Doppler bins x {spec.n_frames} frames, "
      f"values in [{spec.values.min():.2f}, {spec.values.max():.2f}]")

shades = " .:-=+*#%@"
print("\n      micro-Doppler spectrogram (rows: +100..-100 Hz, cols: time)")
for r in range(spec.values.shape[0] - 1, -1, -4):
    row = "".join(shades[min(int(v * (len(shades) - 1) * 2.5), len(shades) - 1)]
                  for v in spec.values[r])
    print(f"{spec.doppler_axis[r]:+7.1f} Hz |{row}|")
