"""Bistatic passive-radar channel synthesis and the micro-Doppler it encodes.

Run:  python3 demos/02_radar_simulation.py
"""

import numpy as np

from dopplerpose import (
    ActivityKind,
    Clutter,
    Geometry,
    InterferenceConfig,
    MirrorPlane,
    ScattererModel,
    bistatic_doppler,
    compute_caf,
    generate_activity,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)

geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0], rx_ref_pos=[-3.8, 8, 1.5])
fs = 16e3

# Constant-modulus pseudorandom waveform, flat over +-4 kHz.
u = generate_waveform(8e3, 2.0, fs, seed=1)
spec = np.abs(np.fft.fft(u.samples)) ** 2
freqs = np.fft.fftfreq(len(u), 1 / fs)
print(f"waveform: |u| in [{np.abs(u.samples).min():.3f}, {np.abs(u.samples).max():.3f}], "
      f"{100 * spec[np.abs(freqs) <= 4e3].sum() / spec.sum():.1f}% power in band")

ref = synthesize_reference(u, geom)
print(f"reference delay: {np.linalg.norm(geom.tx_pos - geom.rx_ref_pos) / 299792458.0:.2e} s")

# A walking body produces per-joint Doppler through the time-varying
# bistatic path length. Compare the analytic value for the pelvis with a
# finite difference of the generated track.
pose = generate_activity(ActivityKind.WPLUS, 2.0, seed=3)
mid = len(pose) // 2
x = pose.positions[mid, 0]
v = (pose.positions[mid + 1, 0] - pose.positions[mid - 1, 0]) / (2 * pose.dt)
print(f"pelvis Doppler at mid-walk: {bistatic_doppler(geom, x, v):+.1f} Hz "
      f"(positive=approaching)")

interference = InterferenceConfig(
    dsi_amplitude=0.05,
    clutter=[Clutter(position=[2.5, 5.0, 0.5], amplitude=0.6)],
    multipath=[MirrorPlane(point=[3.5, 0, 0], normal=[1, 0, 0], amplitude=0.25)],
    noise_floor=0.1,
)
# One call renders the scene: the target returns alone, and with the
# interference added.
targets, sur = synthesize_surveillance(u, pose, ScattererModel(), geom, interference,
                                       noise_seed=0)
print(f"surveillance channel: {len(sur)} samples, rms {np.abs(sur.samples).std():.3f} "
      f"(targets alone {np.abs(targets.samples).std():.3f})")

# The capture's zero-lag ambiguity, one row per 0.1 s CPI: the walking torso
# sits off zero Doppler.
caf = compute_caf(sur, ref, cpi_s=0.1, doppler_span_hz=100.0, doppler_oversample=4)
f = np.argmax(np.abs(caf.grid[4]))
print(f"CAF peak in one mid-walk CPI: {caf.doppler_axis[f]:+.1f} Hz "
      f"(DSI still dominates at 0 Hz until CLEAN runs)")
