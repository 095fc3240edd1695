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
two methods. It calls `model.window(v)` once per optimization, with the
(T, 17, 3) velocity window, and then `model.opt_vectors(P, window)` once
per prediction, with the (T, 17, 3) pose sequence integrated from the
current guess through those velocities, and expects the (17, 3) vectors
back. `OptModel` is the learned predictor: its window holds the feature
frames with the velocities already written and the buffers and stacked
weights of its recurrences, and it reads the model's weights when it is
made, so a window is valid while those weights stay unchanged. Any object
with the two methods (an exact oracle in the tests) drives the same loop.

`opt_train` trains `OptModel` on sampled wrong-start pairs through `velest.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore as nn
from .motion import N_JOINTS, PoseSequence, VelocitySequence, integrate, differentiate, t_pose
from .nncore import Tensor
from .nncore import tensor as ops
from .velest import TrainConfig, fit

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
        if not 0 <= self.optr < np.inf:
            raise ValueError(f"optr must be finite and non-negative, got {self.optr}")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")


def opt_vector_truth(p0_guess: np.ndarray, p0_true: np.ndarray) -> np.ndarray:
    """Per-joint unit vector from guess toward truth; zero when they coincide.

    The frames are (17, 3), or stacks of them (..., 17, 3) of one shape.
    """
    p0_guess = np.asarray(p0_guess, dtype=np.float64)
    p0_true = np.asarray(p0_true, dtype=np.float64)
    if p0_guess.shape[-2:] != (N_JOINTS, 3) or p0_true.shape != p0_guess.shape:
        raise ValueError(f"frames must be ({N_JOINTS}, 3) or stacks of one shape, got "
                         f"{p0_guess.shape} and {p0_true.shape}")
    d = p0_true - p0_guess
    norms = np.linalg.norm(d, axis=-1)
    out = np.zeros_like(d)
    nz = norms >= 1e-9
    out[nz] = d[nz] / norms[nz, None]
    return out


class OptModel:
    """biLSTM(51 x 2) over [V; P] frames -> FC 102/256 -> Tanh head to 17 x 3.

    The head reads the biLSTM's last frame only. Layer 2's reverse direction
    starts from a zero state at that frame, so `forward` runs it for that one
    step; it gives the value the full reversed run gives there.
    """

    def __init__(self, *, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
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
        layer1, (l2_fwd, l2_rev) = self.lstm.layers
        h1 = ops.lstm_layer(x, layer1)
        fwd = ops.lstm_layer(h1, [l2_fwd])[:, -1]
        rev = ops.lstm_layer(h1[:, -1:], [l2_rev])[:, 0]
        h = ops.relu(self.fc1(ops.concat([fwd, rev], axis=1)))
        h = ops.tanh(self.fc2(h))
        return h

    def window(self, v: VelocitySequence) -> "OptWindow":
        """Prepare the predictions over one velocity window; see `OptWindow`."""
        return OptWindow(self, v)

    def opt_vectors(self, p: np.ndarray, window: "OptWindow") -> np.ndarray:
        """Predict 17 x 3 optimization vectors at the (T, 17, 3) poses `p` of a window.

        The values `forward` gives for the window's frames with `p` written
        into them, bit for bit: the recurrences run in the window's buffers
        through the step loop `lstm_layer` uses, and the head is plain matmuls.
        """
        if window.model is not self:
            raise ValueError("the window was prepared by another model")
        t_len = len(window.x)
        if p.shape != (t_len, N_JOINTS, 3):
            raise ValueError(f"poses must be ({t_len}, {N_JOINTS}, 3) for a window of "
                             f"{t_len} frames, got {p.shape}")
        window.x[:, N_JOINTS * 3:] = p.reshape(t_len, -1)
        h1 = window.layer1(window.x).reshape(t_len, FEATURE_DIM)
        (w1, b1), (w2, b2) = window.fc
        feat, hidden, out = window.head
        feat[0, :N_JOINTS * 3] = window.l2_fwd(h1)[0, -1]
        feat[0, N_JOINTS * 3:] = window.l2_rev(h1[-1:])[0, 0]
        np.matmul(feat, w1, out=hidden)
        hidden += b1
        np.maximum(hidden, 0, out=hidden)
        np.matmul(hidden, w2, out=out)
        out += b2
        np.tanh(out, out)
        return out[0].reshape(N_JOINTS, 3).astype(np.float64)

    def state_arrays(self):
        return []

    def save(self, path: str | Path) -> None:
        """Write the parameters; the architecture is fixed, so the meta is empty."""
        nn.save_checkpoint(path, kind="optmodel", params=self.params())

    @classmethod
    def load(cls, path: str | Path) -> "OptModel":
        """The model `save` wrote; meta keys, which older files carry, are ignored."""
        return nn.load_checkpoint(path, "optmodel", lambda meta: cls())


class OptWindow:
    """`OptModel`'s predictions over one velocity window, prepared once.

    It holds the [velocities; positions] frames in the model's dtype with
    the velocities written, a no-grad run of each of the three recurrences
    `forward` makes (layer 1, layer 2 forward over every frame, layer 2
    reverse for the last frame) and the head's buffers. `opt_vectors`
    writes the positions and reuses all of it, so two predictions share no
    values; the window keeps the weights the model had when it was made.
    """

    def __init__(self, model: OptModel, v: VelocitySequence):
        t_len = len(v)
        if t_len < 2:
            raise ValueError("optimization input needs at least 2 frames")
        dtype = model.fc1.weight.data.dtype
        self.model = model
        self.x = np.empty((t_len, FEATURE_DIM), dtype=dtype)
        self.x[:, :N_JOINTS * 3] = v.values.reshape(t_len, -1)
        layer1, (l2_fwd, l2_rev) = model.lstm.layers
        self.layer1 = ops.LstmRun(layer1, 1, t_len)
        self.l2_fwd = ops.LstmRun([l2_fwd], 1, t_len)
        self.l2_rev = ops.LstmRun([l2_rev], 1, 1)
        self.fc = [(fc.weight.data, fc.bias.data) for fc in (model.fc1, model.fc2)]
        (w1, _), (w2, _) = self.fc
        # the head's input (both layer-2 states), hidden and output rows
        self.head = [np.empty((1, n), dtype=dtype) for n in (*w1.shape, w2.shape[1])]


def _stack_features(p: np.ndarray, v: np.ndarray, dtype) -> np.ndarray:
    """The [velocities(51); positions(51)] frames of (..., T, 17, 3) windows, in `dtype`."""
    out = np.empty(p.shape[:-2] + (FEATURE_DIM,), dtype=dtype)
    out[..., :N_JOINTS * 3] = v.reshape(out.shape[:-1] + (-1,))
    out[..., N_JOINTS * 3:] = p.reshape(out.shape[:-1] + (-1,))
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _loss_tensor(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Cosine-alignment plus unit-norm penalty, averaged over the joints of (B, 51)."""
    b = pred.data.shape[0]
    pred3 = ops.reshape(pred, (b, N_JOINTS, 3))
    truth = truth.reshape(b, N_JOINTS, 3)
    dot = ops.tsum(ops.mul(pred3, truth), axis=2)
    norm = ops.sqrt(ops.add(ops.tsum(ops.mul(pred3, pred3), axis=2), 1e-12))
    tnorm = np.linalg.norm(truth, axis=2)
    mask = (tnorm > 0.5).astype(pred.data.dtype)
    cos = ops.div(dot, norm)  # truth vectors are unit where mask is 1
    cos_term = ops.tmean(ops.mul(ops.add(ops.mul(cos, -1.0), mask), mask), axis=1)
    gap = ops.add(ops.mul(norm, -1.0), 1.0)
    norm_term = ops.tmean(ops.mul(gap, gap), axis=1)
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
    if any(len(s) < 2 for s in mocap):
        raise ValueError("every mocap sequence needs at least 2 frames")
    rng = np.random.default_rng(seed)
    w_eff = min(window, min(len(s) for s in mocap))
    # every sequence's frames in one array, sequence a from row offsets[a]
    offsets = np.cumsum([0] + [len(s) for s in mocap])
    poses = np.concatenate([s.positions for s in mocap])
    vels = np.concatenate([differentiate(s).values for s in mocap])
    dts = np.array([s.dt for s in mocap])
    seq, start = np.empty((2, n_pairs), dtype=np.intp)  # each window's sequence and row
    stolen = np.full(n_pairs, -1)  # the row of a stolen guess; -1 for a T-pose
    xy, heading = np.empty((n_pairs, 2)), np.empty(n_pairs)
    for k in range(n_pairs):  # the random draws, pair by pair
        seq[k] = a = rng.integers(len(mocap))
        start[k] = offsets[a] + rng.integers(0, len(mocap[a]) - w_eff + 1)
        if rng.random() < UNIVERSAL_FRACTION:
            xy[k] = poses[start[k], 0, :2] + rng.normal(scale=0.3, size=2)
            heading[k] = rng.uniform(0, 2 * np.pi)
        else:
            b = rng.integers(len(mocap))
            stolen[k] = offsets[b] + rng.integers(len(mocap[b]))
    universal = stolen < 0
    guess = poses[stolen]  # a T-pose row reads the last frame here, then is replaced
    guess[universal] = t_pose(xy[universal], heading[universal])
    # `integrate` of each window from its guess, as one cumulative sum
    v_win = vels[start[:, None] + np.arange(w_eff)]
    steps = v_win * dts[seq, None, None, None]
    steps[:, 0] = guess
    p_win = np.cumsum(steps, axis=1)
    labels = opt_vector_truth(guess, poses[start]).astype(np.float32)
    return _stack_features(p_win, v_win, np.float32), labels


def opt_train(m: OptModel, mocap: list, cfg: TrainConfig, pair_seed, fit_seed, *,
              n_pairs: int, window: int):
    """Train the optimization-vector network through `fit` on wrong-start pairs
    sampled from `pair_seed`, `fit`'s generator drawn from `fit_seed`."""
    feats, labels = build_training_pairs(mocap, n_pairs, window, pair_seed)
    return fit(m, feats, labels, _loss_tensor, cfg, np.random.default_rng(fit_seed))


# ---------------------------------------------------------------------------
# The optimization loop and long-term reconstruction
# ---------------------------------------------------------------------------

def _finite_frame(name: str, value) -> np.ndarray:
    """`value` as a float64 (17, 3) frame; a ValueError naming it unless it is a finite one."""
    frame = np.array(value, dtype=np.float64)
    if frame.shape != (N_JOINTS, 3):
        raise ValueError(f"{name} must be a ({N_JOINTS}, 3) frame, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError(f"{name} must be finite")
    return frame


def optimize_initial_pose(model, p0_init: np.ndarray, v: VelocitySequence,
                          cfg: OptConfig, *, truth: np.ndarray | None = None):
    """Iteratively move a guessed pose along the vectors `model.opt_vectors` predicts.

    Returns (final pose, trace) where trace lists the mean joint distance to
    `truth` after every epoch when truth is given (index 0 = starting error),
    otherwise the mean pose change per epoch. A tentative step is halved,
    per joint, whenever re-predicting at the stepped pose reverses that
    joint's direction (overshoot), so steps never cross the target. Only an
    epoch calls the model, so with `cfg.max_epochs` 0 it may be None.
    `p0_init`, and `truth` when given, must be finite (17, 3) frames.
    """
    p = _finite_frame("p0_init", p0_init)
    if truth is not None:
        truth = _finite_frame("truth", truth)

    def err(pose):
        return float(np.linalg.norm(pose - truth, axis=1).mean())

    trace = [err(p)] if truth is not None else []
    if cfg.max_epochs == 0:
        return p, trace
    window = model.window(v)
    # `integrate`'s steps, scaled once; row 0 takes each pose predicted at
    v_steps = v.values * v.dt

    def predict(pose):
        """The prediction over the window integrated from `pose`, as `integrate` does it."""
        if not np.isfinite(pose).all():
            raise ValueError("a predicted direction moved the pose to non-finite values")
        v_steps[0] = pose
        return model.opt_vectors(np.cumsum(v_steps, axis=0), window)

    ov = None  # the prediction at p, when the last epoch already made it
    for _ in range(cfg.max_epochs):
        if ov is None:
            ov = predict(p)
        steps = np.full(N_JOINTS, cfg.optr)
        moved = ov * steps[:, None]
        next_ov = None
        for _halving in range(cfg.max_halvings):
            cand = p + moved
            ov2 = predict(cand)
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
