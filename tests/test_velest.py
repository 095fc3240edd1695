import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dopplerpose import containers, velest
from dopplerpose import nncore as nn
from dopplerpose.caf import Spectrogram
from dopplerpose.motion import N_JOINTS, VelocitySequence
from dopplerpose.nncore import Tensor
from dopplerpose.velest import (
    TrainConfig,
    VelModel,
    save_history_csv,
    vel_forward,
    vel_train,
)

WIDTH = 33  # smallest convenient Doppler width for the conv stack
PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoints"


def vel_loss(pred: VelocitySequence, truth: VelocitySequence) -> float:
    """Oracle: mean over frames and joints of the per-joint L1 velocity difference."""
    if pred.values.shape != truth.values.shape:
        raise ValueError(
            f"shape mismatch: {pred.values.shape} vs {truth.values.shape}")
    return float(np.abs(pred.values - truth.values).sum(axis=2).mean())


def bucketed_vel_train(m, dataset, cfg, seed):
    """Oracle: the loop `vel_train` ran before `fit`.

    It shuffled and batched each spectrogram length apart, then permuted the
    batches, and validated each held-out sequence at B=1 through
    `vel_forward` and the float64 `vel_loss`.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    n_val = int(round(len(dataset) * cfg.val_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    opt = nn.Adam(m.params(), lr=cfg.learning_rate)
    history = []
    for _ in range(cfg.epochs):
        by_len = {}
        for i in train_idx:
            by_len.setdefault(dataset[i][0].n_frames, []).append(i)
        batches = []
        for t_len in sorted(by_len):
            idx = np.array(by_len[t_len])
            rng.shuffle(idx)
            batches += [idx[k: k + cfg.batch_size] for k in range(0, len(idx), cfg.batch_size)]
        epoch_losses = []
        for b in rng.permutation(len(batches)):
            batch = batches[b]
            xs = np.stack([dataset[i][0].values.T for i in batch]).astype(
                m.conv1.weight.data.dtype)
            ys = np.stack([dataset[i][1].values for i in batch]).astype(np.float32)
            opt.zero_grad()
            loss = velest._loss_tensor(m.forward(Tensor(xs), training=True), ys)
            loss.backward()
            opt.step()
            epoch_losses.append(float(loss.data) * len(batch))
        train_loss = float(np.sum(epoch_losses) / len(train_idx))
        val_loss = float(np.mean([vel_loss(vel_forward(m, dataset[i][0]), dataset[i][1])
                                  for i in val_idx])) if len(val_idx) else train_loss
        history.append({"train_loss": train_loss, "val_loss": val_loss})
    return history


def random_spectrogram(rng, t_len=8, width=WIDTH):
    vals = rng.random((width, t_len))
    vals /= vals.max()
    axis = np.linspace(-40, 40, width)
    return Spectrogram(vals, axis, dt=0.1)


def random_velocities(rng, t_len=8):
    return VelocitySequence(rng.normal(scale=0.5, size=(t_len, N_JOINTS, 3)), dt=0.1)


class TestVelForward:
    def test_zero_final_layer_gives_zero_velocities(self):
        rng = np.random.default_rng(0)
        m = VelModel(WIDTH, seed=1)
        m.fc3.weight.data[:] = 0
        m.fc3.bias.data[:] = 0
        out = vel_forward(m, random_spectrogram(rng))
        assert np.all(out.values == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        s = random_spectrogram(rng)
        m = VelModel(WIDTH, seed=2)
        a = vel_forward(m, s)
        b = vel_forward(m, s)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("t_len", [2, 5, 11])
    def test_frame_count_preserved(self, t_len):
        rng = np.random.default_rng(2)
        m = VelModel(WIDTH, seed=3)
        out = vel_forward(m, random_spectrogram(rng, t_len=t_len))
        assert out.values.shape == (t_len, N_JOINTS, 3)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        m = VelModel(WIDTH, seed=4)
        with pytest.raises(ValueError):
            vel_forward(m, random_spectrogram(rng, width=41))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_runs_in_model_dtype(self, dtype):
        s = random_spectrogram(np.random.default_rng(3))
        m = VelModel(WIDTH, seed=4, dtype=dtype)
        with nn.no_grad():
            ref = m.forward(Tensor(s.values.T[None], dtype=dtype)).data[0]
        assert np.array_equal(vel_forward(m, s).values, ref.reshape(-1, N_JOINTS, 3))

    def test_too_few_doppler_bins_rejected(self):
        with pytest.raises(ValueError):
            VelModel(13, seed=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_forward_keeps_model_dtype(self, dtype):
        m = VelModel(WIDTH, seed=5, dtype=dtype)
        x = Tensor(np.random.default_rng(4).random((2, 3, WIDTH)), dtype=dtype)
        out = m.forward(x, training=True)
        assert out.data.dtype == dtype


class TestVelLoss:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(4)
        v = random_velocities(rng)
        assert vel_loss(v, v) == 0.0

    def test_unit_offset_convention(self):
        # +1 on every axis of every joint -> L1-per-joint of 3
        t_len = 4
        truth = VelocitySequence(np.zeros((t_len, N_JOINTS, 3)), dt=0.1)
        pred = VelocitySequence(np.ones((t_len, N_JOINTS, 3)), dt=0.1)
        assert np.isclose(vel_loss(pred, truth), 3.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        a, b = random_velocities(rng), random_velocities(rng)
        # brute-force loop oracle
        total = 0.0
        t_len = len(a.values)
        for t in range(t_len):
            for i in range(N_JOINTS):
                total += np.abs(a.values[t, i] - b.values[t, i]).sum()
        oracle = total / (t_len * N_JOINTS)
        assert abs(vel_loss(a, b) - oracle) < 1e-6

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            vel_loss(random_velocities(rng, 4), random_velocities(rng, 5))

    def test_training_loss_matches_oracle_in_float64(self):
        rng = np.random.default_rng(11)
        preds = [random_velocities(rng, 6) for _ in range(3)]
        truths = [random_velocities(rng, 6) for _ in range(3)]
        got = velest._loss_tensor(Tensor(np.stack([p.values.reshape(6, -1) for p in preds]),
                                         dtype=np.float64),
                                  np.stack([t.values for t in truths]))
        assert got.data.dtype == np.float64
        want = np.mean([vel_loss(p, t) for p, t in zip(preds, truths)])
        assert abs(float(got.data) - want) <= 1e-12 * want


class TestVelTrain:
    def _tiny_dataset(self, rng, n=3, t_len=6):
        return [(random_spectrogram(rng, t_len), random_velocities(rng, t_len))
                for _ in range(n)]

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(7)
        data = self._tiny_dataset(rng)
        m = VelModel(WIDTH, seed=5)
        before = [p.data.copy() for p in m.params()]
        hist = vel_train(m, data, TrainConfig(learning_rate=0.0, epochs=3, val_fraction=0.0), 1)
        for p, b in zip(m.params(), before):
            assert np.array_equal(p.data, b)
        assert len(hist) == 3

    def test_single_sample_overfit(self):
        rng = np.random.default_rng(8)
        data = self._tiny_dataset(rng, n=1)
        m = VelModel(WIDTH, seed=6)
        hist = vel_train(m, data, TrainConfig(epochs=300, batch_size=1, val_fraction=0.0), 2)
        assert hist[-1]["train_loss"] < 0.1 * hist[0]["train_loss"]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        data = self._tiny_dataset(rng)
        runs = []
        for _ in range(2):
            m = VelModel(WIDTH, seed=7)
            hist = vel_train(m, data, TrainConfig(epochs=3, val_fraction=0.0), 3)
            runs.append(([p.data.copy() for p in m.params()],
                         [h["train_loss"] for h in hist]))
        assert runs[0][1] == runs[1][1]
        for a, b in zip(runs[0][0], runs[1][0]):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        m = VelModel(WIDTH, seed=8)
        with pytest.raises(ValueError):
            vel_train(m, [], TrainConfig(), 0)

    @pytest.mark.parametrize("spec_lens, vel_lens, named", [
        ((6, 6, 5), (6, 6, 5), "[5, 6]"),
        ((6, 6, 6), (6, 6, 7), "[6, 7]"),
    ])
    def test_mixed_lengths_rejected_naming_them(self, spec_lens, vel_lens, named):
        rng = np.random.default_rng(12)
        data = [(random_spectrogram(rng, a), random_velocities(rng, b))
                for a, b in zip(spec_lens, vel_lens)]
        with pytest.raises(ValueError, match=re.escape(named)):
            vel_train(VelModel(WIDTH, seed=8), data, TrainConfig(epochs=1), 0)

    @pytest.mark.parametrize("seed, n, val_fraction", [(0, 6, 0.34), (5, 4, 0.25), (9, 5, 0.0)])
    def test_one_batch_epochs_match_bucketed_oracle(self, seed, n, val_fraction):
        # With every epoch's training split in one batch, the old loop drew
        # the same shuffle and nothing for the batch order.
        data = self._tiny_dataset(np.random.default_rng(seed), n=n)
        cfg = TrainConfig(epochs=4, val_fraction=val_fraction)
        m_new, m_old = VelModel(WIDTH, seed=seed), VelModel(WIDTH, seed=seed)
        got = vel_train(m_new, data, cfg, seed)
        want = bucketed_vel_train(m_old, data, cfg, seed)
        for a, b in zip([p.data for p in m_new.params()] + m_new.state_arrays(),
                        [p.data for p in m_old.params()] + m_old.state_arrays()):
            assert np.array_equal(a, b)
        assert [h["train_loss"] for h in got] == [h["train_loss"] for h in want]
        for g, w in zip(got, want):
            assert abs(g["val_loss"] - w["val_loss"]) <= 1e-6 * w["val_loss"]

    def test_float64_model_trains_against_float64_targets(self, monkeypatch):
        seen, loss_tensor = [], velest._loss_tensor

        def spy(pred, truth):
            seen.append((pred.data.dtype, truth.dtype))
            return loss_tensor(pred, truth)

        monkeypatch.setattr(velest, "_loss_tensor", spy)
        data = self._tiny_dataset(np.random.default_rng(13))
        vel_train(VelModel(WIDTH, seed=9, dtype=np.float64), data,
                  TrainConfig(epochs=1, val_fraction=0.34), 1)
        assert seen and all(d == (np.float64, np.float64) for d in seen)

    def test_step_graph_dies_before_the_next_step(self):
        # One batch an epoch: a graph kept past its step would be alive during
        # the next epoch's forward, so three epochs would peak well above one.
        rng = np.random.default_rng(14)
        x = rng.random((11, 40, 81))
        y = rng.normal(scale=0.5, size=(11, 40, N_JOINTS, 3))
        peaks = []
        for epochs in (1, 3):
            model = VelModel(81, seed=10)
            cfg = TrainConfig(epochs=epochs, val_fraction=0.1)
            tracemalloc.start()
            try:
                velest.fit(model, x, y, velest._loss_tensor, cfg, np.random.default_rng(4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_history_csv(self, tmp_path):
        rows = [{"epoch": 0, "train_loss": 1.0, "val_loss": 1.5, "wall_seconds": 0.2}]
        path = tmp_path / "hist.csv"
        save_history_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,wall_seconds"
        assert lines[1].startswith("0,1.0")


class TestVelModelIO:
    def test_save_load_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(10)
        data = [(random_spectrogram(rng, 5), random_velocities(rng, 5))]
        m = VelModel(WIDTH, seed=9)
        vel_train(m, data, TrainConfig(epochs=2, val_fraction=0.0), 4)
        s = random_spectrogram(rng, 7)
        path = tmp_path / "vel.dpc"
        m.save(path)
        back = VelModel.load(path)
        a = vel_forward(m, s)
        b = vel_forward(back, s)
        assert np.allclose(a.values, b.values, atol=1e-6)

    def test_saved_meta_is_doppler_bins_only(self, tmp_path):
        path = tmp_path / "vel.dpc"
        VelModel(WIDTH, seed=3).save(path)
        assert containers.read_container(path)[0]["meta"] == {"doppler_bins": WIDTH}

    def test_old_meta_keys_ignored(self, tmp_path):
        # perfbench/checkpoints/vel_model.dpc carries these; `load` reads none of them
        path = tmp_path / "vel.dpc"
        m = VelModel(WIDTH, seed=3)
        m.save(path)
        header, payload = containers.read_container(path)
        header["meta"].update(seed=11, epochs=80, final_train_loss=0.17)
        containers.write_container(path, header, payload)
        back = VelModel.load(path)
        restored = np.concatenate([a.ravel() for a in
                                   [p.data for p in back.params()] + back.state_arrays()])
        assert np.array_equal(restored, payload)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(back.params(), m.params()))

    def _rewrite_state(self, tmp_path, shapes):
        """A saved checkpoint whose state manifest and payload tail are replaced."""
        path = tmp_path / "vel.dpc"
        VelModel(WIDTH, seed=1).save(path)
        header, payload = containers.read_container(path)
        n_state = sum(int(np.prod(s)) for s in header["state_shapes"])
        header["state_shapes"] = shapes
        tail = np.ones(sum(int(np.prod(s)) for s in shapes), dtype=np.float32)
        containers.write_container(path, header, np.concatenate([payload[:-n_state], tail]))
        return path

    def test_state_shape_mismatch_rejected(self, tmp_path):
        path = self._rewrite_state(tmp_path, [[1]] * 8)
        with pytest.raises(ValueError, match="vel.dpc: state array 0 has shape"):
            VelModel.load(path)

    def test_missing_state_rejected(self, tmp_path):
        path = self._rewrite_state(tmp_path, [])
        with pytest.raises(ValueError, match="vel.dpc: checkpoint has 0 state arrays"):
            VelModel.load(path)

    def test_pinned_checkpoint_with_layer_specs_loads_exactly(self):
        # Written before checkpoints dropped their `layers` field; read only.
        path = PINNED / "vel_model.dpc"
        header, payload = containers.read_container(path)
        assert "layers" in header
        m = VelModel.load(path)
        assert m.bn1.running_mean.shape == (32,)
        restored = np.concatenate([a.ravel() for a in
                                   [p.data for p in m.params()] + m.state_arrays()])
        assert np.array_equal(restored, payload)
