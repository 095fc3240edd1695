"""Initial-pose estimation and drift correction via learned optimization vectors.

A guessed starting pose is integrated through the estimated velocities; the
resulting (possibly implausible) pose sequence, concatenated with the
velocities, feeds a bidirectional LSTM that predicts one unit direction per
joint pointing from the guess toward the true pose. The guess then moves a
small step (optr) along those directions, and the loop repeats.

The update loop backtracks: a tentative step whose re-predicted direction
reverses (the joint overshot its target) is halved before committing, so the
per-joint error never increases with an exact direction oracle. The same
loop corrects accumulated drift during long reconstructions, re-optimizing
the current pose every `period` frames against the upcoming velocity window.

Predictor protocol: the loop asks its `model` for directions only through
`model.opt_vectors(P, V)`, with the (T, 17, 3) pose sequence integrated from
the current guess and the (T, 17, 3) velocities it was integrated from, and
expects the (17, 3) vectors back. `OptModel` is the learned predictor; any
object with that method (an exact oracle in the tests) drives the same loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore as nn
from .motion import N_JOINTS, PoseSequence, VelocitySequence, integrate, differentiate, t_pose
from .nncore import Tensor
from .nncore import tensor as ops
from .velest import TrainConfig

FEATURE_DIM = 2 * N_JOINTS * 3  # 51 velocities + 51 positions per frame
UNIVERSAL_FRACTION = 0.2  # training pairs that start from a jittered T-pose


@dataclass
class OptConfig:
    optr: float = 0.01           # meters moved per epoch along each unit vector
    max_epochs: int = 50
    tol: float = 1e-4            # mean pose change (m) that counts as converged
    period: int = 50             # frames between drift corrections
    max_halvings: int = 20

    def __post_init__(self):
        if not self.optr >= 0:
            raise ValueError("optr must be non-negative")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")


def opt_vector_truth(p0_guess: np.ndarray, p0_true: np.ndarray) -> np.ndarray:
    """Per-joint unit vector from guess toward truth; zero when they coincide."""
    p0_guess = np.asarray(p0_guess, dtype=np.float64)
    p0_true = np.asarray(p0_true, dtype=np.float64)
    if p0_guess.shape != (N_JOINTS, 3) or p0_true.shape != (N_JOINTS, 3):
        raise ValueError(f"frames must be ({N_JOINTS}, 3)")
    d = p0_true - p0_guess
    norms = np.linalg.norm(d, axis=1)
    out = np.zeros_like(d)
    nz = norms >= 1e-9
    out[nz] = d[nz] / norms[nz, None]
    return out


def opt_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Cosine-alignment plus unit-norm penalty, averaged over the 17 joints.

    Joints whose truth vector is zero contribute only the norm penalty; a
    degenerate (near-zero) prediction against a nonzero truth counts as a
    full cosine miss.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != (N_JOINTS, 3) or truth.shape != (N_JOINTS, 3):
        raise ValueError(f"vectors must be ({N_JOINTS}, 3)")
    cos_terms = np.zeros(N_JOINTS)
    pn = np.linalg.norm(pred, axis=1)
    tn = np.linalg.norm(truth, axis=1)
    for i in range(N_JOINTS):
        if tn[i] < 1e-9:
            continue
        if pn[i] < 1e-12:
            cos_terms[i] = 1.0
        else:
            cos_terms[i] = 1.0 - pred[i] @ truth[i] / (pn[i] * tn[i])
    norm_terms = (1.0 - pn) ** 2
    return float(cos_terms.mean() + norm_terms.mean())


class OptModel:
    """biLSTM(51 x 2) over [V; P] frames -> FC 102/256 -> Tanh head to 17 x 3."""

    def __init__(self, *, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.seed = int(seed)
        self.lstm = nn.LSTM(FEATURE_DIM, N_JOINTS * 3, num_layers=2,
                            bidirectional=True, rng=rng, dtype=dtype)
        self.fc1 = nn.Linear(FEATURE_DIM, 256, rng=rng, dtype=dtype)
        self.fc2 = nn.Linear(256, N_JOINTS * 3, rng=rng, dtype=dtype)

    def params(self):
        return [p for layer in (self.lstm, self.fc1, self.fc2) for p in layer.params()]

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """(B, T, 102) concatenated velocity/pose frames -> (B, 51) in (-1, 1)."""
        if x.data.ndim != 3 or x.data.shape[2] != FEATURE_DIM:
            raise ValueError(f"expected (B, T, {FEATURE_DIM}) input, got {x.data.shape}")
        if x.data.shape[1] < 2:
            raise ValueError("optimization input needs at least 2 frames")
        h = self.lstm(x)
        last = h[:, -1, :]
        h = ops.relu(self.fc1(last))
        h = ops.tanh(self.fc2(h))
        return h

    def opt_vectors(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Predict 17 x 3 optimization vectors for one (T, 17, 3) pose/velocity window."""
        if len(p) != len(v):
            raise ValueError(f"pose ({len(p)}) and velocity ({len(v)}) lengths differ")
        x = _stack_features(p, v)[None]
        with nn.no_grad():
            out = self.forward(Tensor(x.astype(np.float32)), training=False)
        return out.data[0].reshape(N_JOINTS, 3).astype(np.float64)

    def state_arrays(self):
        return []

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        all_meta = {"seed": self.seed}
        all_meta.update(meta or {})
        nn.save_checkpoint(path, kind="optmodel", params=self.params(), meta=all_meta)

    @classmethod
    def load(cls, path: str | Path) -> "OptModel":
        return nn.load_checkpoint(path, "optmodel",
                                  lambda meta: cls(seed=int(meta.get("seed", 0))))


def _stack_features(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-frame [velocities(51); positions(51)] feature rows."""
    t_len = p.shape[0]
    return np.concatenate([v.reshape(t_len, -1), p.reshape(t_len, -1)], axis=1)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _loss_tensor(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Differentiable version of opt_loss on a (B, 51) batch."""
    b = pred.data.shape[0]
    pred3 = ops.reshape(pred, (b, N_JOINTS, 3))
    truth = truth.reshape(b, N_JOINTS, 3)
    dot = ops.tsum(ops.mul(pred3, truth), axis=2)
    norm = ops.sqrt(ops.add(ops.tsum(ops.mul(pred3, pred3), axis=2), 1e-12))
    tnorm = np.linalg.norm(truth, axis=2)
    mask = (tnorm > 0.5).astype(pred.data.dtype)
    cos = ops.div(dot, norm)  # truth vectors are unit where mask is 1
    cos_term = ops.tmean(ops.mul(ops.add(ops.mul(cos, -1.0), mask), mask), axis=1)
    norm_term = ops.tmean(ops.power(ops.add(ops.mul(norm, -1.0), 1.0), 2.0), axis=1)
    return ops.tmean(ops.add(cos_term, norm_term))


def build_training_pairs(mocap: list, n_pairs: int, window: int, seed: int):
    """Sample (features, label) pairs from a mocap corpus.

    Each pair takes a window of true velocities, integrates them from a wrong
    initial pose (a frame stolen from another sequence/time or, for a
    `UNIVERSAL_FRACTION` of pairs, a jittered universal standing pose), and
    labels the result with the true unit directions from the wrong start
    toward the real one.
    """
    if not mocap:
        raise ValueError("mocap corpus is empty")
    for seq in mocap:
        if len(seq) < 2:
            raise ValueError("every mocap sequence needs at least 2 frames")
    rng = np.random.default_rng(seed)
    w_eff = min(window, min(len(s) for s in mocap))
    vels = [differentiate(s) for s in mocap]
    feats = np.empty((n_pairs, w_eff, FEATURE_DIM), dtype=np.float32)
    labels = np.empty((n_pairs, N_JOINTS, 3), dtype=np.float32)
    for k in range(n_pairs):
        a = rng.integers(len(mocap))
        seq, vel = mocap[a], vels[a]
        i0 = rng.integers(0, len(seq) - w_eff + 1)
        true_p0 = seq.positions[i0]
        u = rng.random()
        if u < UNIVERSAL_FRACTION:
            guess = t_pose(xy=true_p0[0, :2] + rng.normal(scale=0.3, size=2),
                           heading=rng.uniform(0, 2 * np.pi))
        else:
            b = rng.integers(len(mocap))
            j = rng.integers(len(mocap[b]))
            guess = mocap[b].positions[j]
        v_win = vel.values[i0: i0 + w_eff]
        p_win = integrate(guess, VelocitySequence(v_win, vel.dt)).positions
        feats[k] = _stack_features(p_win, v_win)
        labels[k] = opt_vector_truth(guess, true_p0)
    return feats, labels


def opt_train(m: OptModel, mocap: list, cfg: TrainConfig, *, n_pairs: int = 1024,
              window: int = 30):
    """Train the optimization-vector network on sampled wrong-start pairs."""
    feats, labels = build_training_pairs(mocap, n_pairs, window, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    perm = rng.permutation(n_pairs)
    n_val = int(round(n_pairs * cfg.val_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training pairs")

    opt = nn.Adam(m.params(), lr=cfg.learning_rate)
    history = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for k in range(0, len(order), cfg.batch_size):
            batch = order[k: k + cfg.batch_size]
            opt.zero_grad()
            out = m.forward(Tensor(feats[batch]), training=True)
            loss = _loss_tensor(out, labels[batch])
            loss.backward()
            opt.step()
            total += float(loss.data) * len(batch)
        train_loss = total / len(train_idx)
        if len(val_idx):
            with nn.no_grad():
                val_out = m.forward(Tensor(feats[val_idx]), training=False)
            val_loss = float(_loss_tensor(val_out, labels[val_idx]).data)
        else:
            val_loss = train_loss
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "wall_seconds": time.perf_counter() - t0})
    return history


# ---------------------------------------------------------------------------
# The optimization loop and long-term reconstruction
# ---------------------------------------------------------------------------

def optimize_initial_pose(model, p0_init: np.ndarray, v: VelocitySequence,
                          cfg: OptConfig, *, truth: np.ndarray | None = None):
    """Iteratively move a guessed pose along the vectors `model.opt_vectors` predicts.

    Returns (final pose, trace) where trace lists the mean joint distance to
    `truth` after every epoch when truth is given (index 0 = starting error),
    otherwise the mean pose change per epoch. A tentative step is halved,
    per joint, whenever re-predicting at the stepped pose reverses that
    joint's direction (overshoot), so steps never cross the target.
    """
    predict = model.opt_vectors
    p = np.array(p0_init, dtype=np.float64)
    if p.shape != (N_JOINTS, 3):
        raise ValueError(f"p0_init must be ({N_JOINTS}, 3)")

    def err(pose):
        return float(np.linalg.norm(pose - truth, axis=1).mean())

    trace = [err(p)] if truth is not None else []
    ov = None  # the prediction at p, when the last epoch already made it
    for _ in range(cfg.max_epochs):
        if ov is None:
            ov = predict(integrate(p, v).positions, v.values)
        steps = np.full(N_JOINTS, cfg.optr)
        moved = ov * steps[:, None]
        next_ov = None
        for _halving in range(cfg.max_halvings):
            cand = p + moved
            ov2 = predict(integrate(cand, v).positions, v.values)
            flipped = (ov * ov2).sum(axis=1) < 0
            if not flipped.any() or steps.max() < cfg.tol:
                next_ov = ov2  # the step commits to exactly cand
                break
            steps[flipped] *= 0.5
            moved = ov * steps[:, None]
        new_p = p + moved
        mean_change = float(np.linalg.norm(new_p - p, axis=1).mean())
        p, ov = new_p, next_ov
        trace.append(err(p) if truth is not None else mean_change)
        if mean_change < cfg.tol:
            break
    return p, trace


def reconstruct_long_term(model, p0: np.ndarray, v: VelocitySequence,
                          cfg: OptConfig) -> PoseSequence:
    """Integrate velocities, re-optimizing the running pose every cfg.period frames.

    A correction at frame t (a multiple of the period with at least two
    frames left) runs the optimization loop, with the same `model`, from
    the integrated pose at t over the upcoming window of velocities, and
    integration continues from the corrected pose. The stretches between
    corrections are plain `integrate` calls; with period >= T - 1 the whole
    sequence is one.
    """
    chunks = []
    start, p = 0, p0
    for t in range(cfg.period, len(v) - 1, cfg.period):
        stretch = integrate(p, VelocitySequence(v.values[start:t], v.dt)).positions
        chunks.append(stretch)
        v_win = VelocitySequence(v.values[t: t + cfg.period], v.dt)
        p, _ = optimize_initial_pose(model, stretch[-1] + v.values[t] * v.dt, v_win, cfg)
        start = t
    chunks.append(integrate(p, VelocitySequence(v.values[start:], v.dt)).positions)
    return PoseSequence(np.concatenate(chunks), v.dt)
