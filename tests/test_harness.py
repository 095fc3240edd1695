import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from dopplerpose import containers, harness
from dopplerpose.caf import Spectrogram, spectrogram_pipeline
from dopplerpose.harness import ConfigError
from dopplerpose.motion import (
    ActivityKind,
    N_JOINTS,
    PoseSequence,
    VelocitySequence,
    differentiate,
    generate_activity,
)
from dopplerpose.poseopt import OptModel, opt_train
from dopplerpose.velest import VelModel, vel_train
from dopplerpose.wavesim import generate_waveform, synthesize_reference, synthesize_surveillance


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
        "processing": {"doppler_span_hz": 100.0, "doppler_oversample": 4},
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
        data["processing"]["doppler_oversample"] = "many"
        with pytest.raises(ConfigError, match="processing.doppler_oversample"):
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

    @pytest.mark.parametrize("path, value", [
        # each fails in `parse_config`, naming its field, before any build starts
        ("processing.doppler_oversample", 0),
        ("seed", -1),
        ("waveform.sample_rate_hz", -5.0),
        ("waveform.sample_rate_hz", 0.0),
        ("waveform.sample_rate_hz", float("inf")),
        ("waveform.sample_rate_hz", float("nan")),
        ("processing.doppler_span_hz", float("nan")),
        ("waveform.bandwidth_hz", 20000.0),
        ("waveform.bandwidth_hz", 0.0),
        ("waveform.bandwidth_hz", float("nan")),
        ("dataset.dt", 5e-5),  # a one-sample CPI
        ("dataset.kinds", []),
        ("denoise.quantile", -0.1),
        ("denoise.quantile", 1.0),
        ("denoise.quantile", float("nan")),
        # OptConfig takes 1, but a drift correction then hands OptModel one frame
        ("optimization.period", 1),
        # frames of 1,599.52 and 1,600.48 samples: the spectrogram drifts off the poses
        ("dataset.dt", 0.09997),
        ("dataset.dt", 0.10003),
    ])
    def test_rejected_values_named_by_path(self, path, value):
        data = harness.apply_overrides(tiny_config_dict(), [f"{path}={json.dumps(value)}"])
        with pytest.raises(ConfigError, match=f"^config field {re.escape(path)}: "):
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

    @pytest.mark.parametrize("path, value", [("dataset.start_jitter_m", -1.0),
                                             ("dataset.start_jitter_m", float("inf")),
                                             ("training.opt.n_pairs", 0),
                                             ("training.opt.n_pairs", -5),
                                             ("training.opt.window", 0),
                                             ("training.opt.window", 1)])
    def test_out_of_range_values_named(self, path, value):
        data = tiny_config_dict(**{path: value})
        with pytest.raises(ConfigError, match=f"^config field {path}: must be finite and >= "):
            harness.parse_config(data)

    @pytest.mark.parametrize("dt", [0.05, 0.0625, 0.1])
    def test_whole_sample_frame_steps_accepted(self, dt):
        assert harness.parse_config(tiny_config_dict(**{"dataset.dt": dt})).dt == dt

    def test_zero_learning_rate_and_jitter_accepted(self):
        data = tiny_config_dict(**{"training.vel.learning_rate": 0.0,
                                   "dataset.start_jitter_m": 0.0})
        cfg = harness.parse_config(data)
        assert cfg.vel_train.learning_rate == 0.0 and cfg.start_jitter_m == 0.0

    # A value is never converted: a fraction, a string or a bool for a number fails.
    BAD_TYPES = [("denoise.quantile", "lots"), ("training.vel.batch_size", "lots"),
                 ("optimization.tol", "lots"), ("training.vel.batch_size", 64.9),
                 ("seed", 1.5), ("processing.doppler_oversample", 1.9),
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
                                      "processing.cpi_s", "processing.delay_bins",
                                      "processing.clean_iterations"])
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
        for entry in manifest["entries"]:
            pose, vel, *_ = harness.load_entry(out, entry)
            expect = differentiate(PoseSequence.load(out / entry["files"]["pose"]))
            assert vel.dt == expect.dt
            assert np.array_equal(vel.values, expect.values)

    def test_no_velocity_file_written_or_listed(self, dataset):
        cfg, out, manifest = dataset
        assert not list(out.glob("*_vel.dpc"))
        for entry in manifest["entries"]:
            assert sorted(entry["files"]) == ["pose", "spec_d", "spec_m", "spec_s"]

    def test_dataset_listing_velocity_files_loads_trains_and_evaluates(self, dataset, tmp_path):
        # Datasets used to ship each entry's velocity as a float32 container
        # and list it in the manifest; such a dataset must work unchanged.
        cfg, out, manifest = dataset
        old = tmp_path / "old"
        shutil.copytree(out, old)
        old_manifest = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
        for entry in old_manifest["entries"]:
            files = entry["files"]
            files["velocity"] = files["pose"].replace("_pose", "_vel")
            pose = PoseSequence.load(old / files["pose"])
            containers.write_container(
                old / files["velocity"],
                {"kind": "velocity", "dtype": "f32le", "layout": "T×J×3", "T": len(pose),
                 "joints": N_JOINTS, "dt": pose.dt},
                differentiate(pose).values)
        (old / "manifest.json").write_text(json.dumps(old_manifest), encoding="utf-8")

        # the float32 file is not read: the velocity is the pose's, in float64
        entry = old_manifest["entries"][0]
        assert np.array_equal(harness.load_entry(old, entry)[1].values,
                              harness.load_entry(out, entry)[1].values)
        reports = []
        for ds, name in ((old, "old"), (out, "new")):
            vel_model = harness.train_velocity_model(cfg, ds, tmp_path / f"{name}_vel.dpc",
                                                     tmp_path / f"{name}_hist.csv")
            reports.append(harness.evaluate(without_pose_loop(cfg), ds, vel_model,
                                            NoPredictor()))
        assert (tmp_path / "old_vel.dpc").read_bytes() == (tmp_path / "new_vel.dpc").read_bytes()
        for variant in ("M", "D"):
            for kind, err in reports[0].errors[variant].items():
                assert np.array_equal(err, reports[1].errors[variant][kind])

    def test_zero_interference_makes_m_equal_s(self):
        # the full channel, processed like S (no CLEAN), adds nothing to S
        data = tiny_config_dict()
        data["interference"] = {"dsi_amplitude": 0.0, "noise_floor": 0.0}
        cfg = harness.parse_config(data)
        for i, kind in enumerate(cfg.kinds[:2]):
            pose, s, _, _ = harness.simulate_activity(cfg, kind, cfg.seed + i)
            ref, _, full = harness.render_channels(cfg, pose, cfg.seed + i)
            m = spectrogram_pipeline(full, ref, cpi_s=cfg.dt, doppler_span_hz=cfg.doppler_span_hz,
                                     doppler_oversample=cfg.doppler_oversample, clean=False)
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


    def test_existing_file_as_out_dir_is_an_os_error(self, tmp_path):
        cfg = harness.parse_config(tiny_config_dict(**{"dataset.n_activities": 1}))
        existing = tmp_path / "afile"
        existing.write_text("keep")
        with pytest.raises(OSError, match=f"output directory {existing} is not writable"):
            harness.build_dataset(cfg, existing)
        assert existing.read_text() == "keep"


def manifest_entry(i, **change):
    """Entry i as `build_dataset` writes it, with `change` applied; a None value drops the key."""
    files = {key: f"act_{i:04d}_{key}.dpc" for key in ("pose", "spec_s", "spec_m", "spec_d")}
    entry = {"index": i, "kind": "W+", "seed": i, "T": 50, "dt": 0.1, "files": files}
    entry.update(change)
    return {key: value for key, value in entry.items() if value is not None}


MANIFEST = {"schema_version": 1, "seed": 0, "doppler_bins": 81,
            "entries": [manifest_entry(0), manifest_entry(1)],
            "split": {"train": [0], "test": [1]}}


class TestLoadManifest:
    def _write(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        return tmp_path / "manifest.json"

    @pytest.mark.parametrize("train, test", [([0], [1]), ([], [0, 1]), ([1, 1, 0], [])])
    def test_valid_splits_accepted(self, tmp_path, train, test):
        manifest = dict(MANIFEST, split={"train": train, "test": test})
        self._write(tmp_path, json.dumps(manifest))
        assert harness.load_manifest(tmp_path) == manifest

    @pytest.mark.parametrize("change, key", [
        ({"entries": None}, "entries"),
        ({"entries": {"0": {}}}, "entries"),
        ({"split": None}, "split"),
        ({"split": [[0], [1]]}, "split"),
        ({"split": {"test": [1]}}, "split.train"),
        ({"split": {"train": [0], "test": [2]}}, "split.test"),
        ({"split": {"train": [-1], "test": [1]}}, "split.train"),
        ({"split": {"train": [0.0], "test": [1]}}, "split.train"),
        ({"split": {"train": [True], "test": [1]}}, "split.train"),
        ({"split": {"train": [0], "test": "1"}}, "split.test"),
        ({"doppler_bins": None}, "doppler_bins"),
        ({"doppler_bins": 81.0}, "doppler_bins"),
        ({"entries": [1]}, "entries.0"),
        ({"entries": [{}]}, "entries.0"),
        ({"entries": [manifest_entry(0), manifest_entry(1, files={
            "pose": "p.dpc", "spec_s": "s.dpc", "spec_m": "m.dpc"})]}, "entries.1"),
        ({"entries": [manifest_entry(0, index="0"), manifest_entry(1)]}, "entries.0"),
        ({"entries": [manifest_entry(0, index=0.0), manifest_entry(1)]}, "entries.0"),
        ({"entries": [manifest_entry(0), manifest_entry(1, kind=None)]}, "entries.1"),
        ({"entries": [manifest_entry(0, files=["act_0000_pose.dpc"])]}, "entries.0"),
    ])
    def test_malformed_field_named_with_file(self, tmp_path, change, key):
        manifest = {k: v for k, v in dict(MANIFEST, **change).items() if v is not None}
        path = self._write(tmp_path, json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {key} must be"):
            harness.load_manifest(tmp_path)

    def test_bare_entries_names_split(self, tmp_path):
        path = self._write(tmp_path, '{"entries": []}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: split must be an object"):
            harness.load_manifest(tmp_path)

    # single-quoted keys, a JSON list, and a byte that is not UTF-8
    @pytest.mark.parametrize("text", ["{'entries': []}", "[1, 2]", "\udcff"])
    def test_not_a_json_object_names_file(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            harness.load_manifest(tmp_path)


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

    def window(self, *args):
        raise AssertionError("window called")

    def opt_vectors(self, *args):
        raise AssertionError("opt_vectors called")


class TestStreamTable:
    """The integer each random stream draws from, as the module docstring lists it."""

    def _train_split(self, dataset):
        _, out, manifest = dataset
        return [[out / manifest["entries"][i]["files"][key] for key in ("pose", "spec_s")]
                for i in manifest["split"]["train"]]

    def test_velocity_model_init_and_fit_from_seed(self, dataset, tmp_path):
        # batches of 1 and a held-out sequence, so the fit's draws change the weights
        cfg = harness.parse_config(tiny_config_dict(**{"training.vel.batch_size": 1,
                                                       "training.vel.val_fraction": 0.34}))
        harness.train_velocity_model(cfg, dataset[1], tmp_path / "got.dpc", tmp_path / "h.csv")
        data = [(Spectrogram.load(s), differentiate(PoseSequence.load(p)))
                for p, s in self._train_split(dataset)]
        files = []
        for init, fit in ((cfg.seed, cfg.seed), (cfg.seed, cfg.seed + 1),
                          (cfg.seed + 1, cfg.seed)):
            model = VelModel(dataset[2]["doppler_bins"], seed=init)
            vel_train(model, data, cfg.vel_train, fit)
            model.save(tmp_path / "want.dpc")
            files.append((tmp_path / "want.dpc").read_bytes())
        got = (tmp_path / "got.dpc").read_bytes()
        assert got == files[0] and got not in files[1:]

    def test_opt_model_init_and_pairs_from_seed_plus_1_and_fit_from_seed_plus_2(
            self, dataset, tmp_path):
        cfg = dataset[0]
        harness.train_opt_model(cfg, dataset[1], tmp_path / "got.dpc", tmp_path / "h.csv")
        mocap = [PoseSequence.load(p) for p, _ in self._train_split(dataset)]
        s = cfg.seed
        files = []
        for init, pairs, fit in ((s + 1, s + 1, s + 2), (s, s + 1, s + 2),
                                 (s + 1, s, s + 2), (s + 1, s + 1, s + 1)):
            model = OptModel(seed=init)
            opt_train(model, mocap, cfg.opt_train_cfg, pairs, fit,
                      n_pairs=cfg.opt_pairs, window=cfg.opt_window)
            model.save(tmp_path / "want.dpc")
            files.append((tmp_path / "want.dpc").read_bytes())
        got = (tmp_path / "got.dpc").read_bytes()
        assert got == files[0] and got not in files[1:]

    def test_render_draws_waveform_from_seed_and_noise_from_seed_plus_1(self, dataset):
        cfg = dataset[0]
        assert cfg.interference.noise_floor > 0
        pose = generate_activity(ActivityKind.HT, cfg.duration_s, 5, dt=cfg.dt)
        u = generate_waveform(cfg.bandwidth_hz, len(pose) * pose.dt, cfg.sample_rate_hz, seed=5)
        got = harness.render_channels(cfg, pose, 5)
        for noise_seed, equal in ((6, True), (5, False)):
            want = (synthesize_reference(u, cfg.geometry),
                    *synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry,
                                             cfg.interference, noise_seed))
            assert [np.array_equal(g.samples, w.samples) for g, w in zip(got, want)] == \
                [True, True, equal]


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
