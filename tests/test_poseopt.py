from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dopplerpose import containers
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
from dopplerpose.poseopt import (
    OptConfig,
    OptModel,
    build_training_pairs,
    opt_loss,
    opt_train,
    opt_vector_truth,
    optimize_initial_pose,
    reconstruct_long_term,
)
from dopplerpose.velest import TrainConfig, VelModel


def predictor(fn):
    """A predictor for the pose loop: its `opt_vectors(P, V)` is fn."""
    return SimpleNamespace(opt_vectors=fn)


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


class TestOptForward:
    def test_tanh_range_shape_and_determinism(self):
        rng = np.random.default_rng(7)
        m = OptModel(seed=1)
        p = generate_activity(ActivityKind.WPLUS, 3.0, seed=0)
        v = differentiate(p)
        out = m.opt_vectors(p.positions, v.values)
        assert out.shape == (N_JOINTS, 3)
        assert np.all(np.abs(out) < 1.0)
        assert np.array_equal(out, m.opt_vectors(p.positions, v.values))

    def test_length_mismatch_rejected(self):
        m = OptModel(seed=2)
        p = generate_activity(ActivityKind.WPLUS, 3.0, seed=0)
        v = differentiate(p)
        with pytest.raises(ValueError, match="lengths differ"):
            m.opt_vectors(p.positions, v.values[:-1])


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


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_opt_config_rejects_tolerance_never_met(tol):
    # `mean_change < tol` could never hold, so the loop would run every epoch
    with pytest.raises(ValueError, match="tol"):
        OptConfig(tol=tol)


def two_call_loop(model, p0_init, v, cfg, truth=None):
    """Oracle: the pose loop that predicts afresh at the start of every epoch.

    Returns (pose, trace, stats) with the epochs run, the step halvings made
    and the epochs whose halving budget ran out.
    """
    predict = model.opt_vectors
    p = np.array(p0_init, dtype=np.float64)
    stats = {"epochs": 0, "halvings": 0, "exhausted": 0}

    def err(pose):
        return float(np.linalg.norm(pose - truth, axis=1).mean())

    trace = [err(p)] if truth is not None else []
    for _ in range(cfg.max_epochs):
        stats["epochs"] += 1
        seq = integrate(p, v)
        ov = predict(seq.positions, v.values)
        steps = np.full(N_JOINTS, cfg.optr)
        moved = ov * steps[:, None]
        for _halving in range(cfg.max_halvings):
            cand = p + moved
            ov2 = predict(integrate(cand, v).positions, v.values)
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
        hist = opt_train(m, corpus, TrainConfig(epochs=200, batch_size=1, seed=6,
                                                val_fraction=0.0),
                         n_pairs=1, window=6)
        assert hist[-1]["train_loss"] < 0.1 * hist[0]["train_loss"]

    def test_empty_corpus_rejected(self):
        m = OptModel(seed=5)
        with pytest.raises(ValueError):
            opt_train(m, [], TrainConfig())


class TestOptModelIO:
    def test_save_load_preserves_outputs(self, tmp_path):
        m = OptModel(seed=6)
        p = generate_activity(ActivityKind.WPLUS, 2.0, seed=7)
        v = differentiate(p)
        path = tmp_path / "opt.dpc"
        m.save(path)
        back = OptModel.load(path)
        assert np.allclose(m.opt_vectors(p.positions, v.values),
                           back.opt_vectors(p.positions, v.values), atol=1e-6)

    def test_velocity_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "vel.dpc"
        VelModel(33, seed=1).save(path)
        with pytest.raises(ValueError, match="vel.dpc: not a 'optmodel' checkpoint"):
            OptModel.load(path)

    def test_pinned_checkpoint_with_layer_specs_loads_exactly(self):
        # Written before checkpoints dropped their `layers` field; read only.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoints" / "opt_model.dpc"
        header, payload = containers.read_container(path)
        assert "layers" in header and header["state_shapes"] == []
        m = OptModel.load(path)
        restored = np.concatenate([p.data.ravel() for p in m.params()])
        assert np.array_equal(restored, payload)


def test_t_pose_is_distinct_standing_pose():
    tp = t_pose()
    nf = neutral_frame()
    assert tp[0, 2] == nf[0, 2]  # same root height
    assert not np.allclose(tp, nf)  # arms differ
