"""Train a small velocity-regression run and read the error tables.

This is a scaled-down version of the full experiment (a handful of
sequences, few epochs) so it finishes in seconds; expect rough
numbers. The full run lives behind `dopplerpose build-dataset / train-vel /
evaluate` with configs/default.json.

Run:  python3 demos/06_velocity_network.py
"""

import tempfile

from dopplerpose import harness
from dopplerpose.velest import TrainConfig, VelModel, vel_forward, vel_train

cfg = harness.load_config("configs/default.json", overrides=[
    "dataset.n_activities=16", "dataset.duration_s=4.0", "seed=5",
])
with tempfile.TemporaryDirectory(prefix="dopplerpose_demo_") as workdir:
    manifest = harness.build_dataset(cfg, workdir)
    # (pose, velocity, S, M, D) of every entry the demo reads, loaded before
    # the directory is removed
    split = manifest["split"]
    loaded = {i: harness.load_entry(workdir, manifest["entries"][i])
              for i in split["train"] + split["test"][:4]}
print(f"built {len(manifest['entries'])} activities "
      f"({len(split['train'])} train / {len(split['test'])} test)")

train_pairs = []
for i in split["train"]:
    _pose, vel, s_spec, _m, _d = loaded[i]
    train_pairs.append((s_spec, vel))

model = VelModel(manifest["doppler_bins"], seed=0)
history = vel_train(model, train_pairs, TrainConfig(epochs=40, val_fraction=0.0), 0)
print(f"train loss: {history[0]['train_loss']:.3f} -> {history[-1]['train_loss']:.3f} m/s "
      f"({history[-1]['wall_seconds']:.0f}s)")

for i in split["test"][:4]:
    _pose, vel, s_spec, m_spec, d_spec = loaded[i]
    line = f"  {manifest['entries'][i]['kind']:>3s}:"
    for name, spec in (("S", s_spec), ("M", m_spec), ("D", d_spec)):
        est = vel_forward(model, spec)
        per_joint = harness.velocity_mae_mm_frame(est, vel)
        line += f"  {name}={per_joint.mean():5.1f} mm/frame"
    print(line)
print("(expect tens of mm/frame at this miniature scale; the configs/default.json "
      "run trains on 45 sequences, 41 after its validation hold-out, for 80 epochs)")
