from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dopplerpose import containers, poseopt
from dopplerpose import nncore as nn
from dopplerpose.motion import (
    ActivityKind,
    N_JOINTS,
    VelocitySequence,
    differentiate,
    generate_activity,
    integrate,
    neutral_frame,
    t_pose,
)
from dopplerpose.nncore import Tensor
from dopplerpose.nncore import tensor as ops
from dopplerpose.poseopt import (
    OptConfig,
    OptModel,
    build_training_pairs,
    opt_train,
    opt_vector_truth,
    optimize_initial_pose,
    reconstruct_long_term,
)
from dopplerpose.velest import TrainConfig, VelModel
from gradcheck import check_gradients, relative_error

PINNED_OPT_MODEL = (Path(__file__).resolve().parents[1] / "perfbench" / "checkpoints"
                    / "opt_model.dpc")


def opt_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Oracle: cosine-alignment plus unit-norm penalty, averaged over the 17 joints.

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


def own_loop_opt_train(m, mocap, cfg, pair_seed, fit_seed, *, n_pairs, window):
    """Oracle: the training loop `opt_train` ran before `fit`."""
    feats, labels = build_training_pairs(mocap, n_pairs, window, pair_seed)
    feats = feats.astype(m.fc1.weight.data.dtype, copy=False)
    rng = np.random.default_rng(fit_seed)
    perm = rng.permutation(n_pairs)
    n_val = int(round(n_pairs * cfg.val_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    opt = nn.Adam(m.params(), lr=cfg.learning_rate)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for k in range(0, len(order), cfg.batch_size):
            batch = order[k: k + cfg.batch_size]
            opt.zero_grad()
            loss = poseopt._loss_tensor(m.forward(Tensor(feats[batch]), training=True),
                                        labels[batch])
            loss.backward()
            opt.step()
            total += float(loss.data) * len(batch)
        train_loss = total / len(train_idx)
        if len(val_idx):
            with nn.no_grad():
                val_out = m.forward(Tensor(feats[val_idx]), training=False)
            val_loss = float(poseopt._loss_tensor(val_out, labels[val_idx]).data)
        else:
            val_loss = train_loss
        history.append({"train_loss": train_loss, "val_loss": val_loss})
    return history


def per_pair_training_pairs(mocap, n_pairs, window, seed):
    """Oracle: `build_training_pairs` as one integration and one label per pair."""
    rng = np.random.default_rng(seed)
    w_eff = min(window, min(len(s) for s in mocap))
    vels = [differentiate(s) for s in mocap]
    feats = np.empty((n_pairs, w_eff, poseopt.FEATURE_DIM), dtype=np.float32)
    labels = np.empty((n_pairs, N_JOINTS, 3), dtype=np.float32)
    for k in range(n_pairs):
        a = rng.integers(len(mocap))
        seq, vel = mocap[a], vels[a]
        i0 = rng.integers(0, len(seq) - w_eff + 1)
        true_p0 = seq.positions[i0]
        if rng.random() < poseopt.UNIVERSAL_FRACTION:
            guess = t_pose(xy=true_p0[0, :2] + rng.normal(scale=0.3, size=2),
                           heading=rng.uniform(0, 2 * np.pi))
        else:
            b = rng.integers(len(mocap))
            guess = mocap[b].positions[rng.integers(len(mocap[b]))]
        v_win = vel.values[i0: i0 + w_eff]
        p_win = integrate(guess, VelocitySequence(v_win, vel.dt)).positions
        feats[k] = np.concatenate([v_win.reshape(w_eff, -1), p_win.reshape(w_eff, -1)], axis=1)
        labels[k] = opt_vector_truth(guess, true_p0)
    return feats, labels


def full_lstm_forward(m, x):
    """Oracle: `OptModel.forward` with both layer-2 directions run over every frame."""
    h = m.lstm(x)[:, -1, :]
    return ops.tanh(m.fc2(ops.relu(m.fc1(h))))


def predictor(fn):
    """A predictor for the pose loop: its window is the velocities, so its
    `opt_vectors(P, window)` is fn(P, V)."""
    return SimpleNamespace(window=lambda v: v.values, opt_vectors=fn)


def recorded_opt_vectors(m):
    """Oracle: `m.opt_vectors` from a forward that records a graph, as training's does."""

    def opt_vectors(p, v):
        dtype = m.fc1.weight.data.dtype
        x = Tensor(poseopt._stack_features(p, v, dtype)[None], requires_grad=True)
        out = m.forward(x, training=True)
        assert out._backward is not None
        return out.data[0].reshape(N_JOINTS, 3).astype(np.float64)

    return opt_vectors


def exact_stub(true_p0):
    """Oracle predictor: the exact optimization vectors toward true_p0."""
    return predictor(lambda p_seq, v_vals: opt_vector_truth(p_seq[0], true_p0))


class TestOptVectorTruth:
    def test_zero_when_equal(self):
        f = neutral_frame()
        assert np.all(opt_vector_truth(f, f) == 0.0)

    def test_axis_aligned(self):
        guess = np.zeros((N_JOINTS, 3))
        truth = np.zeros((N_JOINTS, 3))
        truth[:, 0] = 2.0
        out = opt_vector_truth(guess, truth)
        assert np.allclose(out, np.tile([1.0, 0.0, 0.0], (N_JOINTS, 1)))

    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            guess = rng.normal(size=(N_JOINTS, 3))
            truth = rng.normal(size=(N_JOINTS, 3))
            out = opt_vector_truth(guess, truth)
            norms = np.linalg.norm(out, axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-7)
            dots = np.sum(out * (truth - guess), axis=1)
            assert np.all(dots > 0)

    def test_scale_invariance_in_gap(self):
        rng = np.random.default_rng(1)
        guess = rng.normal(size=(N_JOINTS, 3))
        d = rng.normal(size=(N_JOINTS, 3))
        a = opt_vector_truth(guess, guess + 0.5 * d)
        b = opt_vector_truth(guess, guess + 7.0 * d)
        assert np.allclose(a, b)

    def test_stack_equals_frame_by_frame(self):
        rng = np.random.default_rng(3)
        guess, truth = rng.normal(size=(2, 5, N_JOINTS, 3))
        truth[2] = guess[2]
        stack = opt_vector_truth(guess, truth)
        assert np.array_equal(stack, [opt_vector_truth(g, t) for g, t in zip(guess, truth)])
        assert not stack[2].any()
        with pytest.raises(ValueError, match="stacks of one shape"):
            opt_vector_truth(guess, truth[:4])
        with pytest.raises(ValueError, match="stacks of one shape"):
            opt_vector_truth(guess[..., :2], truth[..., :2])


class TestOptLoss:
    def _unit_field(self, rng):
        v = rng.normal(size=(N_JOINTS, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_zero_at_exact_match(self):
        truth = self._unit_field(np.random.default_rng(2))
        assert opt_loss(truth, truth) == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_is_two(self):
        truth = self._unit_field(np.random.default_rng(3))
        assert opt_loss(-truth, truth) == pytest.approx(2.0, abs=1e-9)

    def test_double_length_is_one(self):
        truth = self._unit_field(np.random.default_rng(4))
        assert opt_loss(2.0 * truth, truth) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_prediction_counts_as_orthogonal(self):
        truth = self._unit_field(np.random.default_rng(5))
        pred = np.zeros((N_JOINTS, 3))
        # cosine term 1 per joint plus (1 - 0)^2 norm penalty
        assert opt_loss(pred, truth) == pytest.approx(2.0, abs=1e-9)

    def test_zero_truth_contributes_norm_term_only(self):
        truth = np.zeros((N_JOINTS, 3))
        pred = self._unit_field(np.random.default_rng(6))
        assert opt_loss(pred, truth) == pytest.approx(0.0, abs=1e-9)

    def test_training_loss_matches_oracle_in_float64(self):
        rng = np.random.default_rng(7)
        truth = np.stack([self._unit_field(rng) for _ in range(5)])
        truth[1, :4] = 0.0  # joints already at their target
        truth[3] = 0.0
        pred = np.tanh(rng.normal(size=(5, N_JOINTS, 3)))
        got = poseopt._loss_tensor(Tensor(pred.reshape(5, -1), dtype=np.float64), truth)
        assert got.data.dtype == np.float64
        want = np.mean([opt_loss(p, t) for p, t in zip(pred, truth)])
        assert float(got.data) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_float64_gradcheck(self, seed):
        rng = np.random.default_rng(20 + seed)
        truth = np.stack([self._unit_field(rng) for _ in range(3)])
        truth[1, :5] = 0.0  # joints already at their target: norm penalty only
        pred = Tensor(np.tanh(rng.normal(size=(3, N_JOINTS * 3))), requires_grad=True,
                      dtype=np.float64)
        build = lambda: poseopt._loss_tensor(pred, truth)
        # the loss is smooth here, so central differences converge as h^2
        assert check_gradients(build, [pred], h=1e-5) <= 1e-7


class TestOptForward:
    def test_tanh_range_shape_and_determinism(self):
        rng = np.random.default_rng(7)
        m = OptModel(seed=1)
        p = generate_activity(ActivityKind.WPLUS, 3.0, seed=0)
        v = differentiate(p)
        out = m.opt_vectors(p.positions, m.window(v))
        assert out.shape == (N_JOINTS, 3)
        assert np.all(np.abs(out) < 1.0)
        assert np.array_equal(out, m.opt_vectors(p.positions, m.window(v)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_opt_vectors_runs_in_model_dtype(self, dtype):
        # a float32 cast of the input cost a float64 model about 4e-10
        m = OptModel(seed=9, dtype=dtype)
        p = generate_activity(ActivityKind.WPLUS, 3.0, seed=0)
        v = differentiate(p)
        x = np.concatenate([v.values.reshape(len(v), -1), p.positions.reshape(len(p), -1)],
                           axis=1)[None]
        with nn.no_grad():
            ref = m.forward(Tensor(x, dtype=dtype)).data[0].reshape(N_JOINTS, 3)
        assert np.array_equal(m.opt_vectors(p.positions, m.window(v)), ref)

    def test_length_mismatch_rejected(self):
        # 30 poses against a window of 29 velocities: both lengths named
        m = OptModel(seed=2)
        p = generate_activity(ActivityKind.WPLUS, 3.0, seed=0)
        v = differentiate(p)
        window = m.window(VelocitySequence(v.values[:-1], v.dt))
        with pytest.raises(ValueError, match=r"window of 29 frames, got \(30, 17, 3\)"):
            m.opt_vectors(p.positions, window)


class TestOptModelLastStep:
    """Layer 2's reverse direction run for the last frame only, against the full run."""

    @staticmethod
    def _frames(bsz, t_len, dtype, seed=0):
        x = np.random.default_rng(seed).normal(scale=0.5, size=(bsz, t_len, 102))
        return Tensor(x.astype(dtype), requires_grad=dtype == np.float64)

    @pytest.mark.parametrize("bsz", [2, 26, 128])
    def test_float32_batches_bit_identical(self, bsz):
        m = OptModel.load(PINNED_OPT_MODEL)
        x = self._frames(bsz, 30, np.float32)
        with nn.no_grad():
            want = full_lstm_forward(m, x).data
            assert np.array_equal(m.forward(x).data, want)
        assert np.array_equal(m.forward(x, training=True).data, want)

    @pytest.mark.parametrize("t_len", [10, 50])
    def test_float32_one_problem_within_1e6(self, t_len):
        # a one-row input projection takes another BLAS path than the full run's
        m = OptModel.load(PINNED_OPT_MODEL)
        x = self._frames(1, t_len, np.float32)
        with nn.no_grad():
            got, want = m.forward(x).data, full_lstm_forward(m, x).data
        assert np.abs(got - want).max() <= 1e-6

    @pytest.mark.parametrize("bsz, t_len", [(3, 6), (1, 2)])
    def test_float64_gradients_match_full_run(self, bsz, t_len):
        m = OptModel(seed=3, dtype=np.float64)
        x = self._frames(bsz, t_len, np.float64, seed=1)
        weights = np.random.default_rng(2).normal(size=(bsz, N_JOINTS * 3))
        params = m.params() + [x]
        runs = []
        for run in (m.forward, lambda inp: full_lstm_forward(m, inp)):
            for p in params:
                p.grad = None
            out = run(x)
            ops.tsum(ops.mul(out, weights)).backward()
            runs.append((out.data, [p.grad.copy() for p in params]))
        (out, grads), (want, want_grads) = runs
        assert np.abs(out - want).max() <= 1e-12
        for got, ref in zip(grads, want_grads):
            assert relative_error(got, ref) <= 1e-10

    def test_gradcheck(self):
        m = OptModel(seed=4, dtype=np.float64)
        x = self._frames(2, 3, np.float64, seed=5)
        weights = np.random.default_rng(6).normal(size=(2, N_JOINTS * 3))
        build = lambda: ops.tsum(ops.mul(m.forward(x, training=True), weights))
        # the input, and the bias of layer 2's one-step reverse direction
        assert check_gradients(build, [x, m.lstm.layers[1][1][2]]) <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_len", [2, 10, 50])
    def test_opt_vectors_bit_identical_to_recorded_forward(self, t_len, dtype):
        # the pose loop's one-problem calls, through one window and without a
        # graph, give the values a forward that records a graph gives
        m = (OptModel.load(PINNED_OPT_MODEL) if dtype == np.float32
             else OptModel(seed=7, dtype=dtype))
        rng = np.random.default_rng(t_len)
        p, v = rng.normal(scale=0.5, size=(2, t_len, N_JOINTS, 3))
        window = m.window(VelocitySequence(v))
        for pose in (p, *rng.normal(scale=0.5, size=(2, t_len, N_JOINTS, 3))):
            got = m.opt_vectors(pose, window)
            assert got.tobytes() == recorded_opt_vectors(m)(pose, v).tobytes()

    def test_pose_loop_same_with_recorded_forward(self):
        # the reconstruct workload's settings on the pinned model
        m = OptModel.load(PINNED_OPT_MODEL)
        pose = generate_activity(ActivityKind.WPLUS, 5.0, seed=12)
        v = differentiate(pose)
        cfg = OptConfig(period=10, max_epochs=20)
        runs = []
        for model in (m, predictor(recorded_opt_vectors(m))):
            p0, trace = optimize_initial_pose(model, t_pose(), v, cfg, truth=pose.positions[0])
            runs.append((p0, np.array(trace), reconstruct_long_term(model, p0, v, cfg).positions))
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()


class TestOptWindow:
    """One prepared window reused for many predictions, as the pose loop does
    (its values against the recorded forward: TestOptModelLastStep)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_buffers_carry_no_state(self, dtype):
        # p1, then p2, then p1 again: the window's buffers hold nothing over
        m = (OptModel.load(PINNED_OPT_MODEL) if dtype == np.float32
             else OptModel(seed=7, dtype=dtype))
        rng = np.random.default_rng(5)
        v = VelocitySequence(rng.normal(scale=0.5, size=(10, N_JOINTS, 3)))
        p1, p2 = rng.normal(scale=0.5, size=(2, 10, N_JOINTS, 3))
        window = m.window(v)
        first, second, again = (m.opt_vectors(p, window) for p in (p1, p2, p1))
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() != second.tobytes()

    def test_window_of_another_model_rejected(self):
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        p = integrate(t_pose(), v).positions
        with pytest.raises(ValueError, match="another model"):
            OptModel(seed=1).opt_vectors(p, OptModel(seed=2).window(v))

    def test_one_frame_window_rejected(self):
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        with pytest.raises(ValueError, match="at least 2 frames"):
            OptModel(seed=1).window(VelocitySequence(v.values[:1], v.dt))


class TestOptimizeInitialPose:
    def test_exact_stub_contracts_below_optr(self):
        rng = np.random.default_rng(8)
        p_true = generate_activity(ActivityKind.SU, 3.0, seed=1)
        v = differentiate(p_true)
        true_p0 = p_true.positions[0]
        start = true_p0 + rng.uniform(-0.5, 0.5, size=(N_JOINTS, 3))
        cfg = OptConfig(optr=0.01, max_epochs=120)
        final, trace = optimize_initial_pose(exact_stub(true_p0), start, v, cfg,
                                             truth=true_p0)
        dists = np.linalg.norm(final - true_p0, axis=1)
        assert dists.max() <= cfg.optr + 1e-9
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-8)

    def test_reaches_within_budgeted_epochs(self):
        p_true = generate_activity(ActivityKind.WPLUS, 2.0, seed=2)
        v = differentiate(p_true)
        true_p0 = p_true.positions[0]
        start = true_p0 + 0.2  # exactly 0.2*sqrt(3) m per joint
        cfg = OptConfig(optr=0.01, max_epochs=60)
        final, trace = optimize_initial_pose(exact_stub(true_p0), start, v, cfg,
                                             truth=true_p0)
        budget = int(np.ceil(0.2 * np.sqrt(3) / cfg.optr))
        assert np.all(np.array(trace)[min(budget, len(trace) - 1):] <= cfg.optr + 1e-9)

    def test_zero_optr_is_identity(self):
        p_true = generate_activity(ActivityKind.WPLUS, 2.0, seed=3)
        v = differentiate(p_true)
        start = p_true.positions[0] + 0.3
        cfg = OptConfig(optr=0.0, max_epochs=5)
        final, _ = optimize_initial_pose(exact_stub(p_true.positions[0]), start, v, cfg)
        assert np.array_equal(final, start)

    def test_no_epoch_calls_no_model(self):
        # with max_epochs 0 the model is never read, so None stands in for it
        p_true = generate_activity(ActivityKind.WPLUS, 3.0, seed=3)
        v = differentiate(p_true)
        start = p_true.positions[0] + 0.3
        cfg = OptConfig(max_epochs=0, period=10)
        final, trace = optimize_initial_pose(None, start, v, cfg, truth=p_true.positions[0])
        assert np.array_equal(final, start) and len(trace) == 1
        out = reconstruct_long_term(None, start, v, cfg)
        assert np.allclose(out.positions, integrate(start, v).positions)

    def test_single_epoch_step_bounded_by_sqrt3_optr(self):
        rng = np.random.default_rng(9)
        p_true = generate_activity(ActivityKind.WPLUS, 2.0, seed=4)
        v = differentiate(p_true)
        start = p_true.positions[0] + 0.5

        noisy_predictor = predictor(lambda p_seq, v_vals: rng.uniform(-1, 1, (N_JOINTS, 3)))

        cfg = OptConfig(optr=0.01, max_epochs=1, max_halvings=0)
        final, _ = optimize_initial_pose(noisy_predictor, start, v, cfg)
        moves = np.linalg.norm(final - start, axis=1)
        assert moves.max() <= np.sqrt(3) * cfg.optr + 1e-12


def nan_frame():
    frame = t_pose()
    frame[4, 1] = np.nan
    return frame


class TestOptimizeInitialPoseInput:
    """Bad frames fail up front, naming the argument, whatever the epoch count."""

    @pytest.mark.parametrize("max_epochs", [0, 3])
    def test_non_finite_start_rejected(self, max_epochs):
        # with no epoch this returned the NaN pose; with epochs `integrate` failed
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        stub = exact_stub(t_pose())
        with pytest.raises(ValueError, match="p0_init must be finite"):
            optimize_initial_pose(stub, nan_frame(), v, OptConfig(max_epochs=max_epochs))

    @pytest.mark.parametrize("index", [0, None], ids=["xyz", "stacked"])
    def test_truth_of_another_shape_rejected(self, index):
        # a (3,) and a (1, 17, 3) truth broadcast against the pose: a wrong trace
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        truth = t_pose()[index]
        with pytest.raises(ValueError, match=r"truth must be a \(17, 3\) frame, got shape"):
            optimize_initial_pose(exact_stub(t_pose()), t_pose() + 0.1, v,
                                  OptConfig(max_epochs=2), truth=truth)

    def test_infinite_truth_rejected(self):
        # it made a trace of inf
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        truth = t_pose()
        truth[0, 2] = np.inf
        with pytest.raises(ValueError, match="truth must be finite"):
            optimize_initial_pose(exact_stub(t_pose()), t_pose() + 0.1, v,
                                  OptConfig(max_epochs=2), truth=truth)

    def test_non_finite_prediction_rejected(self):
        v = differentiate(generate_activity(ActivityKind.WPLUS, 2.0, seed=0))
        nan_stub = predictor(lambda p_seq, v_vals: np.full((N_JOINTS, 3), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            optimize_initial_pose(nan_stub, t_pose(), v, OptConfig(max_epochs=2))


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_opt_config_rejects_tolerance_never_met(tol):
    # `mean_change < tol` could never hold, so the loop would run every epoch
    with pytest.raises(ValueError, match="tol"):
        OptConfig(tol=tol)


@pytest.mark.parametrize("halvings", [-1, -20])
def test_opt_config_rejects_negative_halvings(halvings):
    # `range` of a negative count is empty: it would act as 0 without a word
    with pytest.raises(ValueError, match="max_halvings must be >= 0"):
        OptConfig(max_halvings=halvings)


def two_call_loop(model, p0_init, v, cfg, truth=None):
    """Oracle: the pose loop that predicts afresh at the start of every epoch.

    Returns (pose, trace, stats) with the epochs run, the step halvings made
    and the epochs whose halving budget ran out.
    """
    window = model.window(v)
    p = np.array(p0_init, dtype=np.float64)
    stats = {"epochs": 0, "halvings": 0, "exhausted": 0}

    def err(pose):
        return float(np.linalg.norm(pose - truth, axis=1).mean())

    trace = [err(p)] if truth is not None else []
    for _ in range(cfg.max_epochs):
        stats["epochs"] += 1
        ov = model.opt_vectors(integrate(p, v).positions, window)
        steps = np.full(N_JOINTS, cfg.optr)
        moved = ov * steps[:, None]
        for _halving in range(cfg.max_halvings):
            cand = p + moved
            ov2 = model.opt_vectors(integrate(cand, v).positions, window)
            flipped = (ov * ov2).sum(axis=1) < 0
            if not flipped.any() or steps.max() < cfg.tol:
                break
            steps[flipped] *= 0.5
            moved = ov * steps[:, None]
            stats["halvings"] += 1
        else:
            stats["exhausted"] += cfg.max_halvings > 0
        new_p = p + moved
        mean_change = float(np.linalg.norm(new_p - p, axis=1).mean())
        p = new_p
        trace.append(err(p) if truth is not None else mean_change)
        if mean_change < cfg.tol:
            break
    return p, trace, stats


class TestOnePredictionPerCommittedStep:
    """The loop reuses the candidate's prediction when the step commits to it."""

    # (start offset, config, the oracle's halvings and exhausted epochs)
    CASES = {
        "no_halving": (0.5, OptConfig(max_epochs=10), "none", "none"),
        "halvings": (0.02, OptConfig(max_epochs=8), "some", "none"),
        "exhausted": (0.03, OptConfig(max_epochs=6, max_halvings=2), "some", "some"),
        "no_budget": (0.03, OptConfig(max_epochs=6, max_halvings=0), "none", "none"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_two_call_oracle(self, case):
        offset, cfg, halvings, exhausted = self.CASES[case]
        p_true = generate_activity(ActivityKind.WPLUS, 2.0, seed=2)
        v = differentiate(p_true)
        true_p0 = p_true.positions[0]
        start = true_p0 + np.random.default_rng(3).uniform(-offset, offset, (N_JOINTS, 3))
        calls = []
        stub = exact_stub(true_p0)

        def count(p_seq, v_vals):
            calls.append(1)
            return stub.opt_vectors(p_seq, v_vals)

        counting = predictor(count)

        want_p, want_trace, stats = two_call_loop(stub, start, v, cfg, truth=true_p0)
        assert (stats["halvings"] > 0) == (halvings == "some")
        assert (stats["exhausted"] > 0) == (exhausted == "some")
        got_p, got_trace = optimize_initial_pose(counting, start, v, cfg, truth=true_p0)
        assert np.array_equal(got_p, want_p)
        assert got_trace == want_trace
        if cfg.max_halvings == 0:
            assert len(calls) == stats["epochs"]
        else:
            # an epoch whose budget ran out predicts afresh after it, but it
            # made one candidate prediction fewer than an epoch that broke
            assert len(calls) <= stats["epochs"] + stats["halvings"] + 1


class TestReconstructLongTerm:
    def test_large_period_equals_plain_integration(self):
        m = OptModel(seed=3)
        p_true = generate_activity(ActivityKind.WPLUS, 3.0, seed=5)
        v = differentiate(p_true)
        cfg = OptConfig(period=1000)
        out = reconstruct_long_term(m, p_true.positions[0], v, cfg)
        plain = integrate(p_true.positions[0], v)
        assert np.allclose(out.positions, plain.positions)

    def test_stub_corrections_reduce_error(self):
        p_true = generate_activity(ActivityKind.WPLUS, 5.0, seed=6)
        v_true = differentiate(p_true)
        # corrupt the velocities with a bias so drift accumulates
        rng = np.random.default_rng(10)
        bias = rng.normal(scale=0.05, size=(1, N_JOINTS, 3))
        v_bad = VelocitySequence(v_true.values + bias, v_true.dt)
        v_bad.values[0] = 0

        # the stub aims at the true pose of the frame its window starts at,
        # found from the window's first velocity (every biased frame differs)
        frame_of = {v_bad.values[t].tobytes(): t for t in range(1, len(v_bad))}
        stub = predictor(lambda p_seq, v_vals: opt_vector_truth(
            p_seq[0], p_true.positions[frame_of[v_vals[0].tobytes()]]))

        cfg = OptConfig(period=10, max_epochs=60)
        out = reconstruct_long_term(stub, p_true.positions[0], v_bad, cfg)
        plain = integrate(p_true.positions[0], v_bad)
        for t in range(cfg.period, len(p_true), cfg.period):
            pre = np.linalg.norm(
                (out.positions[t - 1] + v_bad.values[t] * v_bad.dt)
                - p_true.positions[t], axis=1).mean()
            post = np.linalg.norm(out.positions[t] - p_true.positions[t], axis=1).mean()
            assert post < pre
        final_err = np.linalg.norm(out.positions[-1] - p_true.positions[-1], axis=1).mean()
        plain_err = np.linalg.norm(plain.positions[-1] - p_true.positions[-1], axis=1).mean()
        assert final_err < plain_err


class TestOptTrain:
    def _tiny_corpus(self):
        return [generate_activity(k, 2.0, seed=i)
                for i, k in enumerate([ActivityKind.WPLUS, ActivityKind.SD,
                                       ActivityKind.HT, ActivityKind.BR])]

    def test_pair_generation_exact_guess_gives_zero_label(self):
        corpus = self._tiny_corpus()
        truth = corpus[0].positions[0]
        label = opt_vector_truth(truth, truth)
        assert np.all(label == 0.0)

    def test_pair_shapes_and_determinism(self):
        corpus = self._tiny_corpus()
        f1, l1 = build_training_pairs(corpus, n_pairs=16, window=8, seed=5)
        f2, l2 = build_training_pairs(corpus, n_pairs=16, window=8, seed=5)
        assert f1.shape == (16, 8, 102) and l1.shape == (16, N_JOINTS, 3)
        assert np.array_equal(f1, f2) and np.array_equal(l1, l2)

    def test_single_pair_overfit(self):
        corpus = self._tiny_corpus()
        m = OptModel(seed=4)
        hist = opt_train(m, corpus, TrainConfig(epochs=200, batch_size=1, val_fraction=0.0),
                         6, 7, n_pairs=1, window=6)
        assert hist[-1]["train_loss"] < 0.1 * hist[0]["train_loss"]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_pairs, window", [(64, 8), (40, 100), (1, 6)])
    def test_bit_identical_to_per_pair_loop(self, n_pairs, window, seed):
        # sequences of 20, 25 and 30 frames; window 100 is cut to the shortest
        corpus = [generate_activity(k, d, seed=i) for i, (k, d) in enumerate(
            [(ActivityKind.WPLUS, 2.0), (ActivityKind.SD, 2.5), (ActivityKind.HT, 3.0),
             (ActivityKind.BR, 2.0)])]
        got = build_training_pairs(corpus, n_pairs, window, seed)
        want = per_pair_training_pairs(corpus, n_pairs, window, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float32
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_float64_model_trains_in_float64(self):
        m = OptModel(seed=4, dtype=np.float64)
        opt_train(m, self._tiny_corpus(), TrainConfig(epochs=1, batch_size=4), 6, 7,
                  n_pairs=8, window=6)
        assert all(p.data.dtype == np.float64 for p in m.params())

    def test_empty_corpus_rejected(self):
        m = OptModel(seed=5)
        with pytest.raises(ValueError):
            opt_train(m, [], TrainConfig(), 0, 1, n_pairs=1024, window=30)

    @pytest.mark.parametrize("batch_size, val_fraction", [(5, 0.25), (64, 0.1), (3, 0.0)])
    def test_matches_own_loop_oracle(self, batch_size, val_fraction):
        corpus = self._tiny_corpus()
        cfg = TrainConfig(epochs=3, batch_size=batch_size, val_fraction=val_fraction)
        m_new, m_old = OptModel(seed=4), OptModel(seed=4)
        got = opt_train(m_new, corpus, cfg, 8, 9, n_pairs=20, window=6)
        want = own_loop_opt_train(m_old, corpus, cfg, 8, 9, n_pairs=20, window=6)
        for a, b in zip(m_new.params(), m_old.params()):
            assert np.array_equal(a.data, b.data)
        assert [(h["train_loss"], h["val_loss"]) for h in got] == \
            [(h["train_loss"], h["val_loss"]) for h in want]


class TestOptModelIO:
    def test_save_load_preserves_outputs(self, tmp_path):
        m = OptModel(seed=6)
        p = generate_activity(ActivityKind.WPLUS, 2.0, seed=7)
        v = differentiate(p)
        path = tmp_path / "opt.dpc"
        m.save(path)
        back = OptModel.load(path)
        assert np.allclose(m.opt_vectors(p.positions, m.window(v)),
                           back.opt_vectors(p.positions, back.window(v)), atol=1e-6)

    def test_saved_meta_is_empty(self, tmp_path):
        path = tmp_path / "opt.dpc"
        OptModel(seed=6).save(path)
        assert containers.read_container(path)[0]["meta"] == {}

    def test_old_meta_keys_ignored(self, tmp_path):
        # perfbench/checkpoints/opt_model.dpc carries these; `load` reads none of them
        path = tmp_path / "opt.dpc"
        m = OptModel(seed=6)
        m.save(path)
        header, payload = containers.read_container(path)
        header["meta"] = {"seed": 6, "epochs": 40, "final_train_loss": 0.24}
        containers.write_container(path, header, payload)
        back = OptModel.load(path)
        assert np.array_equal(np.concatenate([p.data.ravel() for p in back.params()]), payload)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(back.params(), m.params()))

    def test_velocity_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "vel.dpc"
        VelModel(33, seed=1).save(path)
        with pytest.raises(ValueError, match="vel.dpc: not a 'optmodel' checkpoint"):
            OptModel.load(path)

    def test_pinned_checkpoint_with_layer_specs_loads_exactly(self):
        # Written before checkpoints dropped their `layers` field; read only.
        header, payload = containers.read_container(PINNED_OPT_MODEL)
        assert "layers" in header and header["state_shapes"] == []
        m = OptModel.load(PINNED_OPT_MODEL)
        restored = np.concatenate([p.data.ravel() for p in m.params()])
        assert np.array_equal(restored, payload)


def test_t_pose_is_distinct_standing_pose():
    tp = t_pose()
    nf = neutral_frame()
    assert tp[0, 2] == nf[0, 2]  # same root height
    assert not np.allclose(tp, nf)  # arms differ
