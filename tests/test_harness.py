import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from dopplerpose import harness
from dopplerpose.caf import Spectrogram
from dopplerpose.harness import ConfigError
from dopplerpose.motion import N_JOINTS, PoseSequence, VelocitySequence, differentiate
from dopplerpose.poseopt import OptModel
from dopplerpose.velest import VelModel


def tiny_config_dict(**overrides):
    data = {
        "schema_version": 1,
        "seed": 3,
        "geometry": {"tx_pos": [-4, 8, 1.5], "rx_sur_pos": [0, 8, 1.0],
                     "rx_ref_pos": [-3.8, 8, 1.5]},
        "waveform": {"bandwidth_hz": 8000.0, "sample_rate_hz": 16000.0},
        "interference": {"dsi_amplitude": 0.05, "noise_floor": 0.3,
                         "clutter": [{"position": [2.5, 5.0, 0.5], "amplitude": 0.6}],
                         "multipath": [{"point": [3.5, 0, 0], "normal": [1, 0, 0],
                                        "amplitude": 0.25}]},
        "processing": {"delay_bins": 1, "doppler_span_hz": 100.0,
                       "doppler_oversample": 4, "clean_iterations": 2},
        "denoise": {"quantile": 0.6},
        "dataset": {"n_activities": 6, "duration_s": 3.0, "dt": 0.1,
                    "kinds": ["W+", "SU", "HT"], "start_jitter_m": 0.2,
                    "train_fraction": 0.5},
        "training": {"vel": {"epochs": 1}, "opt": {"epochs": 1, "n_pairs": 8,
                                                   "window": 10}},
        "optimization": {"optr": 0.01, "max_epochs": 5, "period": 10},
    }
    harness.apply_overrides(data, [f"{k}={json.dumps(v)}" for k, v in overrides.items()])
    return data


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    cfg = harness.parse_config(tiny_config_dict())
    out = tmp_path_factory.mktemp("ds")
    manifest = harness.build_dataset(cfg, out)
    return cfg, out, manifest


class TestConfig:
    def test_parse_defaults(self):
        cfg = harness.parse_config(tiny_config_dict())
        assert cfg.seed == 3
        assert cfg.interference.dsi_amplitude == 0.05
        assert len(cfg.kinds) == 3
        assert cfg.opt_config.period == 10

    def test_missing_field_named(self):
        data = tiny_config_dict()
        del data["geometry"]["tx_pos"]
        with pytest.raises(ConfigError, match="tx_pos"):
            harness.parse_config(data)

    def test_bad_type_named(self):
        data = tiny_config_dict()
        data["processing"]["delay_bins"] = "many"
        with pytest.raises(ConfigError, match="processing.delay_bins"):
            harness.parse_config(data)

    def test_bad_schema_version(self):
        data = tiny_config_dict(schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            harness.parse_config(data)

    def test_unknown_kind_rejected(self):
        data = tiny_config_dict()
        data["dataset"]["kinds"] = ["JUMP"]
        with pytest.raises(ConfigError, match="JUMP"):
            harness.parse_config(data)

    @pytest.mark.parametrize("span", [0.0, -5.0, 8000.0, 9000.0, [-50.0, 100.0]])
    def test_doppler_span_outside_half_band_named(self, span):
        # the default sample rate is 16 kHz, so the half-span must be < 8 kHz
        data = tiny_config_dict()
        data["processing"]["doppler_span_hz"] = span
        with pytest.raises(ConfigError, match="processing.doppler_span_hz"):
            harness.parse_config(data)

    @pytest.mark.parametrize("section, key, value", [
        ("optimization", "period", 0),
        ("optimization", "max_epochs", -1),
        ("optimization", "tol", -1.0),
        ("optimization", "tol", float("nan")),
        ("training.vel", "batch_size", 0),
        ("training.opt", "val_fraction", 1.0),
        ("training.vel", "learning_rate", float("nan")),
        ("training.vel", "learning_rate", -1.0),
        ("training.opt", "learning_rate", float("nan")),
        ("training.opt", "learning_rate", -1.0),
        ("optimization", "optr", float("inf")),
    ])
    def test_rejected_loop_and_training_values_named(self, section, key, value):
        data = tiny_config_dict()
        node = data
        for part in section.split("."):
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=f"^config field {section}: {key}"):
            harness.parse_config(data)

    @pytest.mark.parametrize("section, key, value", [
        # NaN floors turned the `> 0` guards off: no noise, no DSI
        ("interference", "noise_floor", float("nan")),
        ("interference", "dsi_amplitude", float("nan")),
        # one element broadcast to (2.5, 2.5, 2.5); two failed inside synthesis
        ("interference.clutter.0", "position", [2.5]),
        ("interference.clutter.0", "position", [2.5, 5.0]),
        ("interference.multipath.0", "normal", [1, 0]),
        ("interference.multipath.0", "point", [3.5, float("inf"), 0]),
        # these failed only as "signal samples must be finite"
        ("interference.clutter.0", "amplitude", float("nan")),
        ("interference.multipath.0", "amplitude", float("nan")),
        ("scatterer", "path_loss_exponent", float("nan")),
        ("interference.clutter.0", "amplitude", -0.5),
    ])
    def test_rejected_interference_and_scatterer_values_named(self, section, key, value):
        data = harness.apply_overrides(tiny_config_dict(),
                                       [f"{section}.{key}={json.dumps(value)}"])
        with pytest.raises(ConfigError, match=f"^config field {re.escape(section)}: {key}"):
            harness.parse_config(data)

    @pytest.mark.parametrize("key, value", [("duration_s", 1.0), ("duration_s", 61.0),
                                            ("duration_s", float("nan")),
                                            ("dt", 0.0), ("dt", -0.1), ("dt", 2.0),
                                            ("dt", float("nan")), ("dt", float("inf")),
                                            ("n_activities", 0), ("n_activities", -3)])
    def test_rejected_dataset_values_named(self, key, value):
        data = tiny_config_dict()
        data["dataset"][key] = value
        with pytest.raises(ConfigError, match=f"^config field dataset.{key}: "):
            harness.parse_config(data)

    @pytest.mark.parametrize("path, value", [("processing.clean_iterations", -1),
                                             ("dataset.start_jitter_m", -1.0),
                                             ("dataset.start_jitter_m", float("inf")),
                                             ("training.opt.n_pairs", 0),
                                             ("training.opt.n_pairs", -5),
                                             ("training.opt.window", 0),
                                             ("training.opt.window", 1)])
    def test_out_of_range_values_named(self, path, value):
        data = tiny_config_dict(**{path: value})
        with pytest.raises(ConfigError, match=f"^config field {path}: must be finite and >= "):
            harness.parse_config(data)

    def test_zero_learning_rate_and_jitter_accepted(self):
        data = tiny_config_dict(**{"training.vel.learning_rate": 0.0,
                                   "dataset.start_jitter_m": 0.0,
                                   "processing.clean_iterations": 0})
        cfg = harness.parse_config(data)
        assert cfg.vel_train.learning_rate == 0.0 and cfg.start_jitter_m == 0.0
        assert cfg.clean_iterations == 0

    # A value is never converted: a fraction, a string or a bool for a number fails.
    BAD_TYPES = [("denoise.quantile", "lots"), ("training.vel.batch_size", "lots"),
                 ("optimization.tol", "lots"), ("training.vel.batch_size", 64.9),
                 ("seed", 1.5), ("processing.delay_bins", 1.9),
                 ("dataset.n_activities", "20"), ("training.vel.epochs", True),
                 ("dataset.dt", "0.1"), ("optimization.tol", False),
                 ("geometry.tx_pos", "[0, 0, 0]")]

    @pytest.mark.parametrize("path,value", BAD_TYPES, ids=[
        p if v == "lots" else f"{p}={json.dumps(v)}" for p, v in BAD_TYPES])
    def test_bad_type_in_checked_section_named_once(self, path, value):
        data = tiny_config_dict(**{path: value})
        with pytest.raises(ConfigError) as info:
            harness.parse_config(data)
        assert str(info.value).startswith(f"config field {path}: expected")
        assert str(info.value).endswith(f"got {value!r}")

    def test_integer_accepted_for_float_field(self):
        cfg = harness.parse_config(tiny_config_dict(**{"dataset.duration_s": 2}))
        assert cfg.duration_s == 2.0 and type(cfg.duration_s) is float

    def test_doppler_span_bound_follows_sample_rate(self):
        data = tiny_config_dict()
        data["processing"]["doppler_span_hz"] = 9000.0
        data["waveform"]["sample_rate_hz"] = 20000.0
        assert harness.parse_config(data).doppler_span_hz == 9000.0

    @pytest.mark.parametrize("path", ["sede", "optimization.perod",
                                      "training.vel.epoch", "denoise.fixed_threshold",
                                      "processing.cpi_s"])
    def test_unknown_field_named(self, path):
        data = tiny_config_dict()
        harness.apply_overrides(data, [f"{path}=2"])
        with pytest.raises(ConfigError, match=f"^unknown config field {path}$"):
            harness.parse_config(data)

    def test_list_entries_parsed(self):
        cfg = harness.parse_config(tiny_config_dict())
        (clutter,), (plane,) = cfg.interference.clutter, cfg.interference.multipath
        assert clutter.amplitude == 0.6 and list(clutter.position) == [2.5, 5.0, 0.5]
        assert plane.amplitude == 0.25 and list(plane.normal) == [1, 0, 0]

    @pytest.mark.parametrize("section, key", [("clutter", "amplitude"),
                                              ("clutter", "position"),
                                              ("multipath", "amplitude"),
                                              ("multipath", "normal")])
    def test_list_entry_missing_field_named(self, section, key):
        data = tiny_config_dict()
        del data["interference"][section][0][key]
        with pytest.raises(ConfigError, match=f"interference.{section}.0.{key}$"):
            harness.parse_config(data)

    @pytest.mark.parametrize("section", ["clutter", "multipath"])
    def test_list_entry_unknown_field_named(self, section):
        data = tiny_config_dict()
        data["interference"][section].append(dict(data["interference"][section][0], amp=2))
        with pytest.raises(ConfigError,
                           match=f"^unknown config field interference.{section}.1.amp$"):
            harness.parse_config(data)

    def test_list_entry_rejected_value_named(self):
        data = tiny_config_dict()
        data["interference"]["clutter"][0]["amplitude"] = -1.0
        with pytest.raises(ConfigError, match="^config field interference.clutter.0: "):
            harness.parse_config(data)

    def test_override_indexes_list_entry(self):
        data = tiny_config_dict()
        harness.apply_overrides(data, ["interference.clutter.0.amplitude=0.5"])
        assert harness.parse_config(data).interference.clutter[0].amplitude == 0.5

    @pytest.mark.parametrize("index", ["1", "x", "-1"])
    def test_override_bad_list_index_named(self, index):
        key = f"interference.clutter.{index}.amplitude"
        with pytest.raises(ConfigError, match=re.escape(
                f"override {key!r}: {index} is not an index of clutter, a list of 1")):
            harness.apply_overrides(tiny_config_dict(), [f"{key}=0.5"])

    def test_overrides(self):
        data = tiny_config_dict()
        harness.apply_overrides(data, ["seed=9", "dataset.duration_s=4.5"])
        cfg = harness.parse_config(data)
        assert cfg.seed == 9 and cfg.duration_s == 4.5
        with pytest.raises(ConfigError):
            harness.apply_overrides(data, ["no_equals_sign"])


class TestBuildDataset:
    def test_manifest_consistency(self, dataset):
        cfg, out, manifest = dataset
        assert len(manifest["entries"]) == 6
        for entry in manifest["entries"]:
            pose, vel, s, m, d = harness.load_entry(out, entry)
            assert len(pose) == entry["T"] == 30
            assert len(vel) == len(pose)
            assert s.n_frames == m.n_frames == d.n_frames == len(pose)
            assert s.values.shape[0] == manifest["doppler_bins"]
        split = manifest["split"]
        assert sorted(split["train"] + split["test"]) == list(range(6))

    def test_velocities_match_differentiated_pose(self, dataset):
        cfg, out, manifest = dataset
        pose, vel, *_ = harness.load_entry(out, manifest["entries"][0])
        expect = differentiate(pose)
        # both sides went through an f32 container once; allow that rounding
        assert np.allclose(vel.values, expect.values, atol=1e-4)

    def test_zero_interference_makes_m_equal_s(self, tmp_path):
        data = tiny_config_dict()
        data["interference"] = {"dsi_amplitude": 0.0, "noise_floor": 0.0}
        data["processing"]["clean_iterations"] = 0
        data["dataset"]["n_activities"] = 2
        cfg = harness.parse_config(data)
        manifest = harness.build_dataset(cfg, tmp_path)
        for entry in manifest["entries"]:
            _, _, s, m, _ = harness.load_entry(tmp_path, entry)
            assert np.abs(s.values - m.values).max() < 1e-6

    def test_spectrogram_columns_follow_frame_step(self, tmp_path):
        data = tiny_config_dict(**{"dataset.dt": 0.05, "dataset.duration_s": 2.0,
                                   "dataset.n_activities": 1})
        manifest = harness.build_dataset(harness.parse_config(data), tmp_path)
        pose, _, s, m, d = harness.load_entry(tmp_path, manifest["entries"][0])
        assert len(pose) == s.n_frames == m.n_frames == d.n_frames == 40

    def test_rebuild_is_bit_identical(self, dataset, tmp_path):
        cfg, out, manifest = dataset
        harness.build_dataset(cfg, tmp_path)
        for entry in manifest["entries"]:
            for f in entry["files"].values():
                assert (out / f).read_bytes() == (tmp_path / f).read_bytes()
        assert (out / "manifest.json").read_bytes() == \
            (tmp_path / "manifest.json").read_bytes()


class TestMetrics:
    def test_root_relative_pins_joint1(self):
        rng = np.random.default_rng(0)
        truth = PoseSequence(rng.normal(size=(8, N_JOINTS, 3)), dt=0.1)
        pred = PoseSequence(truth.positions + rng.normal(size=(8, N_JOINTS, 3)), dt=0.1)
        per_joint = harness.position_mae_mm(pred, truth)
        assert per_joint[0] == 0.0
        absolute = harness.position_mae_mm(pred, truth, root_relative=False)
        assert absolute[0] > 0.0

    def test_perfect_prediction_zero_errors(self):
        rng = np.random.default_rng(1)
        truth = PoseSequence(rng.normal(size=(8, N_JOINTS, 3)), dt=0.1)
        assert np.all(harness.position_mae_mm(truth, truth) == 0.0)
        vel = VelocitySequence(rng.normal(size=(8, N_JOINTS, 3)), dt=0.1)
        assert np.all(harness.velocity_mae_mm_frame(vel, vel) == 0.0)

    def test_constant_offset_velocity_is_3mm_per_frame(self):
        # +1 mm/frame on every axis -> 3 mm/frame per joint in the L1 convention
        t_len, dt = 6, 0.1
        truth = VelocitySequence(np.zeros((t_len, N_JOINTS, 3)), dt=dt)
        offset_ms = 0.001 / dt  # 1 mm per frame in m/s
        pred = VelocitySequence(np.full((t_len, N_JOINTS, 3), offset_ms), dt=dt)
        per_joint = harness.velocity_mae_mm_frame(pred, truth, root_relative=False)
        assert np.allclose(per_joint, 3.0)
        # root-relative: the shared offset cancels entirely
        rel = harness.velocity_mae_mm_frame(pred, truth, root_relative=True)
        assert np.allclose(rel, 0.0)

    def test_mm_per_frame_units_anchor(self):
        # 41 mm/s at 10 fps is about 4.1 mm/frame
        assert harness.mm_per_frame(0.041, 0.1) == pytest.approx(4.1)


def without_pose_loop(cfg):
    """cfg with `optimization.max_epochs` 0: poses are integrated from `t_pose()`."""
    return replace(cfg, opt_config=replace(cfg.opt_config, max_epochs=0))


class NoPredictor:
    """An opt model that must never be called."""

    def opt_vectors(self, *args):
        raise AssertionError("opt_vectors called")


class TestEvaluate:
    def test_report_and_csvs(self, dataset, tmp_path):
        cfg, out, manifest = dataset
        vel_model = VelModel(manifest["doppler_bins"], seed=0)
        report = harness.evaluate(without_pose_loop(cfg), out, vel_model, NoPredictor())
        assert set(report.errors.keys()) == {"M", "D"}
        assert all(e.shape == (2, 2, N_JOINTS) for e in report.errors["D"].values())
        # root-relative convention: joint 1 is exactly zero
        assert report.errors["D"]["overall"][0, 0, 0] == 0.0

        csv_path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(csv_path, report)
        rows = csv_path.read_text().strip().split("\n")
        n_kinds = len(report.kinds)
        assert len(rows) == 1 + N_JOINTS * n_kinds + N_JOINTS + 1

        table = tmp_path / "table.txt"
        harness.write_metrics_table(table, report)
        assert "velocity mm/frame" in table.read_text()

    def test_evaluate_rerun_is_identical(self, dataset, tmp_path):
        cfg, out, manifest = dataset
        vel_model = VelModel(manifest["doppler_bins"], seed=0)
        paths = []
        for run in range(2):
            report = harness.evaluate(without_pose_loop(cfg), out, vel_model, NoPredictor())
            p = tmp_path / f"metrics_{run}.csv"
            harness.write_metrics_csv(p, report)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_pose_reconstruction_tables(self, dataset, tmp_path):
        # period 10 < T = 30 frames, so drift corrections run too
        cfg, out, manifest = dataset
        vel_model = VelModel(manifest["doppler_bins"], seed=0)
        paths = []
        for run in range(2):
            report = harness.evaluate(cfg, out, vel_model, OptModel(seed=0))
            assert all(np.isfinite(report.errors[v]["overall"][1]).all() for v in ("M", "D"))
            for variant in ("M", "D"):
                assert all(e[1, 0, 0] == 0.0 for e in report.errors[variant].values())
                assert report.errors[variant]["overall"][1, 1, 0] > 0.0
            paths.append(tmp_path / f"metrics_{run}.csv")
            harness.write_metrics_csv(paths[-1], report)
            assert "nan" not in paths[-1].read_text()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_without_pose_loop_velocities_match_and_positions_finite(self, dataset, tmp_path):
        # period 10 < T, so the drift corrections run their zero-epoch loops too
        cfg, out, manifest = dataset
        vel_model = VelModel(manifest["doppler_bins"], seed=0)
        fast = harness.evaluate(without_pose_loop(cfg), out, vel_model, NoPredictor())
        full = harness.evaluate(cfg, out, vel_model, OptModel(seed=0))
        for variant in ("M", "D"):
            for kind, e in fast.errors[variant].items():
                assert np.array_equal(e[0], full.errors[variant][kind][0])
                assert np.isfinite(e[1]).all() and e[1, 1].min() > 0.0

        table = tmp_path / "table.txt"
        harness.write_metrics_table(table, fast)
        position_part = table.read_text().split("== position mm ==")[1]
        assert len(position_part.strip().split("\n")[1:]) == 2 * (len(fast.kinds) + 1)

    def test_kind_rows_and_overall_pool_entries(self, dataset, tmp_path):
        cfg, out, manifest = dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        by_kind = {}
        for e in manifest["entries"]:
            by_kind.setdefault(e["kind"], []).append(e["index"])
        # two test entries of one kind, one of another
        (a, b), (c, _) = by_kind["W+"], by_kind["SU"]
        test = [a, b, c]
        uneven = dict(manifest, split={"train": sorted(set(range(len(manifest["entries"])))
                                                       - set(test)), "test": test})
        (ds / "manifest.json").write_text(json.dumps(uneven), encoding="utf-8")
        vel_model = VelModel(manifest["doppler_bins"], seed=0)
        opt_model = OptModel(seed=0)
        report = harness.evaluate(cfg, ds, vel_model, opt_model)

        per_entry = {}
        for i in test:
            pose, vel, _, m_spec, _ = harness.load_entry(ds, manifest["entries"][i])
            est, rec, _ = harness.reconstruct(cfg, vel_model, opt_model, m_spec)
            per_entry[i] = [[harness.velocity_mae_mm_frame(est, vel, root_relative=r)
                             for r in (True, False)],
                            [harness.position_mae_mm(rec, pose, root_relative=r)
                             for r in (True, False)]]
        m = report.errors["M"]
        assert report.kinds == ["SU", "W+"]
        np.testing.assert_allclose(m["W+"], np.mean([per_entry[a], per_entry[b]], axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(m["SU"], per_entry[c], rtol=1e-12)
        np.testing.assert_allclose(m["overall"], np.mean(list(per_entry.values()), axis=0),
                                   rtol=1e-12)
        assert not np.allclose(m["overall"], (m["W+"] + m["SU"]) / 2, rtol=1e-6)

        csv_path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(csv_path, report)
        header, *_, grand = csv_path.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), grand.split(",")))
        assert cells["activity"] == "overall" and cells["joint"] == "all"
        for v, by_kind in report.errors.items():
            for q, col in enumerate((f"vel_mae_{v.lower()}_mm_frame", f"pos_mae_{v.lower()}_mm")):
                assert float(cells[col]) == pytest.approx(by_kind["overall"][q, 0].mean(),
                                                          abs=5e-4)
