"""CNN-LSTM regression from micro-Doppler spectrograms to per-joint velocities.

Per frame, three strided 1-D convolutions (each with batch norm and ReLU)
compress the Doppler profile; the per-frame features run through a two-layer
biLSTM; each time step's output passes through the fully-connected head to
a 51-vector, reshaped to 17 joints x 3 velocity components in m/s.

Loss is the mean absolute difference over frames, joints and components
(the per-joint vector difference is taken as an L1 norm over x/y/z), which
matches the mm/frame mean-absolute-error reporting convention.

`fit` is the training loop of both networks (`vel_train` here, `opt_train` in
`poseopt`): mini-batch Adam in the model's dtype, validated on the loss it
trains on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore as nn
from .caf import Spectrogram
from .motion import N_JOINTS, VelocitySequence
from .nncore import Tensor
from .nncore import tensor as ops

OUTPUT_DIM = N_JOINTS * 3  # 51


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 60
    val_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class VelModel:
    """Conv(32)-Conv(64)-Conv(64) -> biLSTM(64x2) -> FC 128/51/51 stack."""

    def __init__(self, doppler_bins: int, *, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.doppler_bins = int(doppler_bins)
        self.conv1 = nn.Conv1d(1, 32, 5, stride=2, rng=rng, dtype=dtype)
        self.bn1 = nn.BatchNorm1d(32, dtype=dtype)
        self.conv2 = nn.Conv1d(32, 64, 5, stride=2, rng=rng, dtype=dtype)
        self.bn2 = nn.BatchNorm1d(64, dtype=dtype)
        self.conv3 = nn.Conv1d(64, 64, 5, stride=2, rng=rng, dtype=dtype)
        self.bn3 = nn.BatchNorm1d(64, dtype=dtype)

        w = doppler_bins
        for conv in (self.conv1, self.conv2, self.conv3):
            w = conv.out_width(w)
            if w < 1:
                raise ValueError(
                    f"{doppler_bins} Doppler bins are too few for the conv stack; "
                    f"need at least 29")
        self.feat_width = w
        self.lstm = nn.LSTM(64 * w, 64, num_layers=2, bidirectional=True,
                            rng=rng, dtype=dtype)
        self.fc1 = nn.Linear(128, 128, rng=rng, dtype=dtype)
        self.bn_fc = nn.BatchNorm1d(128, dtype=dtype)
        self.fc2 = nn.Linear(128, OUTPUT_DIM, rng=rng, dtype=dtype)
        self.fc3 = nn.Linear(OUTPUT_DIM, OUTPUT_DIM, rng=rng, dtype=dtype)

    def params(self):
        return [p for layer in (self.conv1, self.bn1, self.conv2, self.bn2, self.conv3,
                                self.bn3, self.lstm, self.fc1, self.bn_fc, self.fc2, self.fc3)
                for p in layer.params()]

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """(B, T, F) spectrogram columns -> (B, T, 51) velocities."""
        b, t_len, f = x.data.shape
        if f != self.doppler_bins:
            raise ValueError(f"model expects {self.doppler_bins} Doppler bins, got {f}")
        h = ops.reshape(x, (b * t_len, f, 1))
        h = self.bn1(self.conv1(h), training)
        h = self.bn2(self.conv2(h), training)
        h = self.bn3(self.conv3(h), training)
        # channel-major features per frame: the order saved LSTM input weights expect
        h = ops.reshape(ops.transpose(h, (0, 2, 1)), (b, t_len, 64 * self.feat_width))
        h = self.lstm(h)
        h = ops.reshape(h, (b * t_len, h.data.shape[2]))
        h = self.bn_fc(self.fc1(h), training)
        h = self.fc2(h)
        h = self.fc3(h)
        return ops.reshape(h, (b, t_len, OUTPUT_DIM))

    def state_arrays(self):
        """Batch-norm running statistics: mean, var of bn1, bn2, bn3, bn_fc."""
        return [a for bn in (self.bn1, self.bn2, self.bn3, self.bn_fc)
                for a in bn.state_arrays()]

    def save(self, path: str | Path) -> None:
        """Write the parameters and running statistics, with `doppler_bins` as the only meta."""
        nn.save_checkpoint(path, kind="velmodel", params=self.params(),
                           state=self.state_arrays(), meta={"doppler_bins": self.doppler_bins})

    @classmethod
    def load(cls, path: str | Path) -> "VelModel":
        """The model `save` wrote, built from its `doppler_bins`; other meta keys are ignored."""
        return nn.load_checkpoint(path, "velmodel", lambda meta: cls(int(meta["doppler_bins"])))


def vel_forward(m: VelModel, s: Spectrogram) -> VelocitySequence:
    """Run the trained model on one spectrogram (inference mode)."""
    with nn.no_grad():
        x = Tensor(s.values.T[None, :, :], dtype=m.conv1.weight.data.dtype)
        out = m.forward(x, training=False)
    values = out.data[0].reshape(-1, N_JOINTS, 3).astype(np.float64)
    return VelocitySequence(values, s.dt)


def _loss_tensor(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Mean over (B, T) frames and joints of the per-joint L1 velocity difference."""
    b, t_len, _ = pred.data.shape
    diff = ops.absolute(ops.add(pred, -truth.reshape(b, t_len, OUTPUT_DIM)))
    per_joint = ops.tsum(ops.reshape(diff, (b, t_len, N_JOINTS, 3)), axis=3)
    return ops.tmean(per_joint)


def fit(model, x: np.ndarray, y: np.ndarray, loss, cfg: TrainConfig, rng: np.random.Generator):
    """Mini-batch Adam on the rows of (x, y); returns per-epoch history rows.

    `rng` draws the validation split, then one shuffle of the training rows
    per epoch, cut into batches. The validation loss is `loss` on one no-grad
    inference forward over the held-out rows (the train loss when none are).
    """
    dtype = model.params()[0].data.dtype
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    perm = rng.permutation(len(x))
    n_val = int(round(len(x) * cfg.val_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training samples")

    opt = nn.Adam(model.params(), lr=cfg.learning_rate)
    history = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for k in range(0, len(order), cfg.batch_size):
            batch = order[k: k + cfg.batch_size]
            opt.zero_grad()
            batch_loss = loss(model.forward(Tensor(x[batch]), training=True), y[batch])
            batch_loss.backward()
            opt.step()
            total += float(batch_loss.data) * len(batch)
        train_loss = total / len(train_idx)
        if len(val_idx):
            with nn.no_grad():
                val_out = model.forward(Tensor(x[val_idx]), training=False)
            val_loss = float(loss(val_out, y[val_idx]).data)
        else:
            val_loss = train_loss
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "wall_seconds": time.perf_counter() - t0})
    return history


def vel_train(m: VelModel, dataset: list, cfg: TrainConfig, seed):
    """Fit on (Spectrogram, VelocitySequence) pairs of one length, `fit` seeded by `seed`."""
    if not dataset:
        raise ValueError("training dataset is empty")
    if any(spec.values.shape[0] != m.doppler_bins for spec, _ in dataset):
        raise ValueError("dataset spectrogram width does not match the model")
    lengths = sorted({n for spec, vel in dataset for n in (spec.n_frames, len(vel))})
    if len(lengths) > 1:
        raise ValueError(f"spectrograms and velocities must share one length, got {lengths}")
    x = np.stack([spec.values.T for spec, _ in dataset])
    y = np.stack([vel.values for _, vel in dataset])
    return fit(m, x, y, _loss_tensor, cfg, np.random.default_rng(seed))


def save_history_csv(path: str | Path, history: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,wall_seconds\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']:.8f},{row['val_loss']:.8f},"
                     f"{row['wall_seconds']:.3f}\n")
