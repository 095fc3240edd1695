"""Train a small velocity-regression run and read the error tables.

This is a scaled-down version of the full experiment (a handful of
sequences, few epochs) so it finishes in about a minute; expect rough
numbers. The full run lives behind `dopplerpose build-dataset / train-vel /
evaluate` with configs/default.json.

Run:  python3 demos/06_velocity_network.py
"""

import tempfile
from pathlib import Path

import numpy as np

from dopplerpose import harness
from dopplerpose.velest import TrainConfig, VelModel, vel_forward, vel_train

workdir = Path(tempfile.mkdtemp(prefix="dopplerpose_demo_"))
cfg = harness.load_config("configs/default.json", overrides=[
    "dataset.n_activities=16", "dataset.duration_s=4.0", "seed=5",
])
manifest = harness.build_dataset(cfg, workdir)
print(f"built {len(manifest['entries'])} activities "
      f"({len(manifest['split']['train'])} train / {len(manifest['split']['test'])} test) "
      f"in {workdir}")

train_pairs = []
for i in manifest["split"]["train"]:
    entry = manifest["entries"][i]
    _pose, vel, s_spec, _m, _d = harness.load_entry(workdir, entry)
    train_pairs.append((s_spec, vel))

model = VelModel(manifest["doppler_bins"], seed=0)
history = vel_train(model, train_pairs, TrainConfig(epochs=40, val_fraction=0.0), 0)
print(f"train loss: {history[0]['train_loss']:.3f} -> {history[-1]['train_loss']:.3f} m/s "
      f"({history[-1]['wall_seconds']:.0f}s)")

for i in manifest["split"]["test"][:4]:
    entry = manifest["entries"][i]
    _pose, vel, s_spec, m_spec, d_spec = harness.load_entry(workdir, entry)
    line = f"  {entry['kind']:>3s}:"
    for name, spec in (("S", s_spec), ("M", m_spec), ("D", d_spec)):
        est = vel_forward(model, spec)
        per_joint = harness.velocity_mae_mm_frame(est, vel)
        line += f"  {name}={per_joint.mean():5.1f} mm/frame"
    print(line)
print("(expect tens of mm/frame at this miniature scale; the acceptance-scale "
      "run trains on 46 sequences for hundreds of epochs)")
