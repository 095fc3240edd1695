import copy
import json
import shutil
from dataclasses import fields

import numpy as np
import pytest

from dopplerpose import containers, harness
from dopplerpose.cli import main
from dopplerpose.motion import ActivityKind, PoseSequence
from dopplerpose.caf import Spectrogram
from dopplerpose.wavesim import BasebandSignal
from test_containers import NON_FINITE, with_header, with_last_value
from test_harness import tiny_config_dict


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "exp.json"
    path.write_text(json.dumps(tiny_config_dict()))
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, config_file):
    """Dataset + trained (1-epoch) checkpoints shared by the CLI smoke tests."""
    root = tmp_path_factory.mktemp("pipe")
    assert main(["build-dataset", "--config", str(config_file),
                 "--out", str(root / "ds")]) == 0
    assert main(["train-vel", "--config", str(config_file),
                 "--data", str(root / "ds"), "--out", str(root / "models")]) == 0
    assert main(["train-opt", "--config", str(config_file),
                 "--data", str(root / "ds"), "--out", str(root / "models")]) == 0
    return root


def test_gen_motion(config_file, tmp_path):
    out = tmp_path / "pose.dpc"
    rc = main(["gen-motion", "--config", str(config_file), "--kind", "W+",
               "--set", "dataset.duration_s=4.0", "--out", str(out)])
    assert rc == 0
    pose = PoseSequence.load(out)
    assert len(pose) == 40


def test_gen_motion_unknown_kind(config_file, tmp_path):
    rc = main(["gen-motion", "--config", str(config_file), "--kind", "FLY",
               "--out", str(tmp_path / "x.dpc")])
    assert rc == 2


def test_gen_motion_kind_is_a_value_not_a_name(config_file, tmp_path, capsys):
    # the same lookup as dataset.kinds: "W+", not the member name "WPLUS"
    rc = main(["gen-motion", "--config", str(config_file), "--kind", "WPLUS",
               "--out", str(tmp_path / "x.dpc")])
    assert rc == 2
    assert "--kind: unknown activity kind 'WPLUS'" in capsys.readouterr().err
    assert not (tmp_path / "x.dpc").exists()


def test_gen_motion_out_of_range_duration_exits_2_and_names_field(config_file, tmp_path,
                                                                 capsys):
    rc = main(["gen-motion", "--config", str(config_file), "--kind", "W+",
               "--set", "dataset.duration_s=1", "--out", str(tmp_path / "x.dpc")])
    assert rc == 2
    assert "config field dataset.duration_s" in capsys.readouterr().err
    assert not (tmp_path / "x.dpc").exists()


@pytest.mark.parametrize("setting", ["denoise.method=threshold", "denoise.slope=0"])
def test_removed_denoise_settings_exit_2(config_file, tmp_path, capsys, setting):
    rc = main(["denoise", "--config", str(config_file), "--set", setting,
               "--input", str(tmp_path / "spec.dpc"), "--out", str(tmp_path / "den.dpc")])
    assert rc == 2
    assert f"unknown config field {setting.split('=')[0]}" in capsys.readouterr().err


def test_unknown_override_field_exits_2(config_file, tmp_path, capsys):
    rc = main(["gen-motion", "--config", str(config_file), "--kind", "W+",
               "--set", "optimization.perod=2", "--out", str(tmp_path / "x.dpc")])
    assert rc == 2
    assert "unknown config field optimization.perod" in capsys.readouterr().err
    assert not (tmp_path / "x.dpc").exists()


@pytest.mark.parametrize("where", ["set", "file"])
def test_removed_clean_iterations_exits_2(tmp_path, capsys, where):
    # CLEAN is one pass, on M only: the pass count is no longer a setting
    data = tiny_config_dict()
    if where == "file":
        data["processing"]["clean_iterations"] = 2
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    extra = ["--set", "processing.clean_iterations=-1"] if where == "set" else []
    rc = main(["build-dataset", "--config", str(path), *extra, "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "unknown config field processing.clean_iterations" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_config_setting_removed_cpi_exits_2(tmp_path, capsys):
    data = tiny_config_dict()
    data["processing"]["cpi_s"] = 0.1
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    rc = main(["gen-motion", "--config", str(path), "--kind", "W+",
               "--out", str(tmp_path / "x.dpc")])
    assert rc == 2
    assert "unknown config field processing.cpi_s" in capsys.readouterr().err


def test_simulate_leaves_config_unchanged(config_file, tmp_path, monkeypatch):
    cfg = harness.load_config(config_file)
    before = copy.deepcopy(cfg.interference)
    monkeypatch.setattr("dopplerpose.cli.load_config", lambda *args: cfg)
    pose_file = tmp_path / "pose.dpc"
    assert main(["gen-motion", "--config", str(config_file), "--kind", "W+",
                 "--out", str(pose_file)]) == 0
    assert main(["simulate", "--config", str(config_file), "--pose", str(pose_file),
                 "--out", str(tmp_path / "sigs")]) == 0
    for field in fields(before):
        got, want = getattr(cfg.interference, field.name), getattr(before, field.name)
        if isinstance(want, list):  # of Clutter or MirrorPlane, whose fields are arrays
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert all(np.array_equal(getattr(g, f.name), getattr(w, f.name))
                           for f in fields(w))
        else:
            assert got == want


def test_simulate_and_caf(config_file, tmp_path):
    pose_file = tmp_path / "pose.dpc"
    main(["gen-motion", "--config", str(config_file), "--kind", "SU",
          "--set", "dataset.duration_s=2.0", "--out", str(pose_file)])
    sig_dir = tmp_path / "sigs"
    assert main(["simulate", "--config", str(config_file), "--pose", str(pose_file),
                 "--out", str(sig_dir)]) == 0
    assert (sig_dir / "ref.dpc").exists() and (sig_dir / "sur.dpc").exists()
    spec_file = tmp_path / "spec.dpc"
    assert main(["caf", "--config", str(config_file), "--sur", str(sig_dir / "sur.dpc"),
                 "--ref", str(sig_dir / "ref.dpc"), "--out", str(spec_file)]) == 0
    spec = Spectrogram.load(spec_file)
    assert spec.n_frames == 20
    den_file = tmp_path / "den.dpc"
    assert main(["denoise", "--config", str(config_file), "--input", str(spec_file),
                 "--out", str(den_file)]) == 0
    assert Spectrogram.load(den_file).values.shape == spec.values.shape


def test_simulate_and_caf_write_the_harness_recipe(config_file, tmp_path):
    # simulate writes the recipe's reference and full channel for the config
    # seed, caf the recipe's spectrogram of the signals it reads, both cast to
    # their file dtypes and nothing else
    cfg = harness.load_config(config_file)
    common = ["--config", str(config_file)]
    pose_file, sigs, spec_file = tmp_path / "pose.dpc", tmp_path / "sigs", tmp_path / "m.dpc"
    for argv in (["gen-motion", "--kind", "SD", "--out", str(pose_file)],
                 ["simulate", "--pose", str(pose_file), "--out", str(sigs)],
                 ["caf", "--sur", str(sigs / "sur.dpc"), "--ref", str(sigs / "ref.dpc"),
                  "--out", str(spec_file)]):
        assert main(argv[:1] + common + argv[1:]) == 0
    ref, targets, full = harness.render_channels(cfg, PoseSequence.load(pose_file), cfg.seed)
    assert not np.array_equal(targets.samples, full.samples)
    for name, want in (("ref.dpc", ref), ("sur.dpc", full)):
        got, header = containers.read_array(sigs / name, "signal", lambda v, h: (v, h))
        assert np.array_equal(got, want.samples.astype(np.complex64))
        assert header["sample_rate_hz"] == want.sample_rate_hz
        assert "start_time_s" not in header
    spec = harness.process_channel(cfg, BasebandSignal.load(sigs / "sur.dpc"),
                                   BasebandSignal.load(sigs / "ref.dpc"), True)
    got, header = containers.read_array(spec_file, "spectrogram", lambda v, h: (v, h))
    assert np.array_equal(got, spec.values.astype(np.float32))
    assert header["dt"] == spec.dt


@pytest.mark.parametrize("kind", ["W+", "SU", "HT"])
def test_stage_chain_reproduces_simulate_activity(config_file, tmp_path, kind):
    # gen-motion -> simulate -> caf -> denoise against the dataset build's one
    # call; the files hold float32 poses and complex64 signals
    cfg = harness.load_config(config_file)
    pose, _s, m_spec, d_spec = harness.simulate_activity(cfg, ActivityKind(kind), cfg.seed)
    common = ["--config", str(config_file)]
    pose_file, sigs = tmp_path / "pose.dpc", tmp_path / "sigs"
    m_file, d_file = tmp_path / "m.dpc", tmp_path / "d.dpc"
    for argv in (["gen-motion", "--kind", kind, "--out", str(pose_file)],
                 ["simulate", "--pose", str(pose_file), "--out", str(sigs)],
                 ["caf", "--sur", str(sigs / "sur.dpc"), "--ref", str(sigs / "ref.dpc"),
                  "--out", str(m_file)],
                 ["denoise", "--input", str(m_file), "--out", str(d_file)]):
        assert main(argv[:1] + common + argv[1:]) == 0
    assert np.abs(PoseSequence.load(pose_file).positions - pose.positions).max() <= 1e-6
    for path, want in ((m_file, m_spec), (d_file, d_spec)):
        got = Spectrogram.load(path)
        assert got.values.shape == want.values.shape
        assert np.abs(got.values - want.values).max() <= 1e-4


def test_reconstruct_writes_pose_and_drift(config_file, pipeline_dir, tmp_path):
    out = tmp_path / "rec"
    rc = main(["reconstruct", "--config", str(config_file),
               "--data", str(pipeline_dir / "ds"), "--index", "0",
               "--vel-model", str(pipeline_dir / "models" / "vel_model.dpc"),
               "--opt-model", str(pipeline_dir / "models" / "opt_model.dpc"),
               "--out", str(out)])
    assert rc == 0
    pose = PoseSequence.load(out / "reconstructed_pose.dpc")
    assert len(pose) == 30
    drift = (out / "drift.csv").read_text().strip().split("\n")
    assert drift[0] == "frame,mean_error_mm"
    assert len(drift) == 31


def test_evaluate_csv_row_count(config_file, pipeline_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", str(config_file),
               "--data", str(pipeline_dir / "ds"),
               "--vel-model", str(pipeline_dir / "models" / "vel_model.dpc"),
               "--opt-model", str(pipeline_dir / "models" / "opt_model.dpc"),
               "--set", "optimization.max_epochs=0", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "overall velocity MAE" in printed and "overall position MAE" in printed
    rows = (out / "metrics.csv").read_text().strip().split("\n")
    manifest = harness.load_manifest(pipeline_dir / "ds")
    n_kinds = len({manifest["entries"][i]["kind"] for i in manifest["split"]["test"]})
    assert len(rows) == 1 + 17 * n_kinds + 17 + 1


@pytest.mark.parametrize("command", ["evaluate", "reconstruct"])
def test_no_pose_loop_needs_no_opt_model(config_file, pipeline_dir, tmp_path, command):
    # with optimization.max_epochs 0 the opt model is never called; an
    # --opt-model naming a missing file is not read either
    models = pipeline_dir / "models"
    outs = []
    for opt in ([], ["--opt-model", str(models / "opt_model.dpc")],
                ["--opt-model", str(tmp_path / "missing.dpc")]):
        outs.append(tmp_path / f"out{len(outs)}")
        assert main([command, "--config", str(config_file), "--data", str(pipeline_dir / "ds"),
                     "--vel-model", str(models / "vel_model.dpc"), *opt,
                     "--set", "optimization.max_epochs=0", "--out", str(outs[-1])]) == 0
    name = "metrics.csv" if command == "evaluate" else "drift.csv"
    assert len({(out / name).read_text() for out in outs}) == 1


@pytest.mark.parametrize("command", ["evaluate", "reconstruct"])
def test_missing_opt_model_exits_2_before_loading(config_file, tmp_path, capsys, command):
    # nothing named here exists: the missing option is reported first
    rc = main([command, "--config", str(config_file), "--data", str(tmp_path / "ds"),
               "--vel-model", str(tmp_path / "vel.dpc"), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--opt-model" in err and "optimization.max_epochs" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate"])
def test_empty_test_split_exits_1(config_file, pipeline_dir, tmp_path, capsys, command):
    # `build-dataset` refuses such a split, and `harness.build_dataset` writes it
    ds = tmp_path / "ds"
    harness.build_dataset(harness.load_config(config_file, ["dataset.n_activities=1"]), ds)
    assert harness.load_manifest(ds)["split"]["test"] == []
    capsys.readouterr()
    rc = main([command, "--config", str(config_file), "--data", str(ds),
               "--vel-model", str(pipeline_dir / "models" / "vel_model.dpc"),
               "--opt-model", str(pipeline_dir / "models" / "opt_model.dpc"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: dataset has no test entries\n"


@pytest.mark.parametrize("n_activities", [1, 3])
def test_build_dataset_without_test_entries_exits_2(config_file, tmp_path, capsys,
                                                     n_activities):
    # one activity of each kind: every kind's one entry trains
    rc = main(["build-dataset", "--config", str(config_file),
               "--set", f"dataset.n_activities={n_activities}", "--out", str(tmp_path / "ds")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dataset.n_activities" in err and "dataset.train_fraction" in err
    assert "no test entry" in err and "Traceback" not in err
    assert not (tmp_path / "ds").exists()


def test_build_dataset_with_too_few_doppler_bins_exits_2(config_file, tmp_path, capsys):
    # a 10 Hz half-span keeps 9 bins of 2.5 Hz: fewer than VelModel's conv stack takes
    rc = main(["build-dataset", "--config", str(config_file),
               "--set", "processing.doppler_span_hz=10", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: config field processing.doppler_span_hz: at 10 Hz, 9 Doppler bins are too "
        "few for the conv stack; need at least 29\n")
    assert not (tmp_path / "ds").exists()


def test_non_object_container_header_exits_1(config_file, tmp_path, capsys):
    bad = tmp_path / "spec.dpc"
    bad.write_bytes(b"[1]\n")
    rc = main(["denoise", "--config", str(config_file), "--input", str(bad),
               "--out", str(tmp_path / "out.dpc")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: header is a JSON list, not an object\n"
    assert not (tmp_path / "out.dpc").exists()


def test_truncated_container_exits_1_and_names_file(config_file, tmp_path, capsys):
    spec_file = tmp_path / "spec.dpc"
    Spectrogram(np.ones((5, 4)), np.linspace(-10.0, 10.0, 5), 0.1).save(spec_file)
    spec_file.write_bytes(spec_file.read_bytes()[:-3])
    rc = main(["denoise", "--config", str(config_file), "--input", str(spec_file),
               "--out", str(tmp_path / "out.dpc")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_file}: payload of 77 bytes") and "f32le" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.dpc").exists()


@pytest.mark.parametrize("stage", ["simulate", "caf", "denoise", "evaluate", "reconstruct"])
def test_non_finite_input_file_exits_1_and_names_it(config_file, pipeline_dir, tmp_path,
                                                    capsys, stage):
    ds, models = tmp_path / "ds", tmp_path / "models"
    shutil.copytree(pipeline_dir / "ds", ds)
    shutil.copytree(pipeline_dir / "models", models)
    manifest = harness.load_manifest(ds)
    entry = manifest["entries"][manifest["split"]["test"][0]]
    pose, spec_d = (ds / entry["files"][key] for key in ("pose", "spec_d"))
    sig = tmp_path / "sig.dpc"
    BasebandSignal(np.ones(1600), 16e3).save(sig)
    run = ["--data", str(ds), "--vel-model", str(models / "vel_model.dpc"),
           "--opt-model", str(models / "opt_model.dpc")]
    bad, kind, args = {"simulate": (pose, "pose", ["--pose", str(pose)]),
                       "caf": (sig, "signal", ["--sur", str(sig), "--ref", str(sig)]),
                       "denoise": (spec_d, "spectrogram", ["--input", str(spec_d)]),
                       "evaluate": (spec_d, "spectrogram", run),
                       "reconstruct": (models / "vel_model.dpc", "checkpoint", run)}[stage]
    with_last_value(bad)
    out = tmp_path / "out"
    rc = main([stage, "--config", str(config_file), *args, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {NON_FINITE[kind]}\n"
    assert not out.exists()


def test_simulate_on_null_dt_exits_1_and_names_file(config_file, tmp_path, capsys):
    pose = tmp_path / "pose.dpc"
    PoseSequence(np.zeros((3, 17, 3)), 0.1).save(pose)
    with_header(pose, dt=None)
    out = tmp_path / "sigs"
    rc = main(["simulate", "--config", str(config_file), "--pose", str(pose), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {pose}: field 'dt' must be a number, got None\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage, field", [("simulate", "dt"), ("caf", "sample_rate_hz"),
                                          ("denoise", "dt")])
def test_infinite_step_exits_1_and_names_file(config_file, tmp_path, capsys, stage, field):
    # an infinite frame step or sample rate once escaped as an OverflowError
    # traceback (simulate, caf) or was written out (denoise)
    bad = tmp_path / "in.dpc"
    {"simulate": lambda: PoseSequence(np.zeros((3, 17, 3)), 0.1),
     "caf": lambda: BasebandSignal(np.ones(1600), 16e3),
     "denoise": lambda: Spectrogram(np.ones((5, 4)), np.linspace(-10.0, 10.0, 5), 0.1),
     }[stage]().save(bad)
    with_header(bad, **{field: float("inf")})
    args = {"simulate": ["--pose", str(bad)], "caf": ["--sur", str(bad), "--ref", str(bad)],
            "denoise": ["--input", str(bad)]}[stage]
    out = tmp_path / "out"
    rc = main([stage, "--config", str(config_file), *args, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: {field} must be positive and finite, got inf\n"
    assert not out.exists()


def test_build_dataset_onto_a_file_exits_1(config_file, tmp_path, capsys):
    existing = tmp_path / "afile"
    existing.write_text("keep")
    rc = main(["build-dataset", "--config", str(config_file), "--out", str(existing)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {existing} is not writable")
    assert existing.read_text() == "keep"


@pytest.mark.parametrize("command", ["train-vel", "evaluate"])
def test_malformed_manifest_exits_1_and_names_file(config_file, pipeline_dir, tmp_path,
                                                    capsys, command):
    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = ds / "manifest.json"
    manifest.write_text('{"entries": []}')
    models = pipeline_dir / "models"
    extra = [] if command == "train-vel" else [
        "--vel-model", str(models / "vel_model.dpc"), "--set", "optimization.max_epochs=0"]
    rc = main([command, "--config", str(config_file), "--data", str(ds), *extra,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {manifest}: split must be an object\n"


@pytest.mark.parametrize("entry", [{}, 1])
@pytest.mark.parametrize("command", ["train-vel", "train-opt"])
def test_malformed_manifest_entry_exits_1_and_names_file(config_file, tmp_path, capsys,
                                                         command, entry):
    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = ds / "manifest.json"
    manifest.write_text(json.dumps({"entries": [entry], "split": {"train": [0], "test": [0]},
                                    "doppler_bins": 81}))
    rc = main([command, "--config", str(config_file), "--data", str(ds),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: entries.0 must be an object")
    assert "Traceback" not in err


def test_malformed_config_exits_2_and_names_field(config_file, tmp_path, capsys):
    data = tiny_config_dict()
    data["processing"]["doppler_oversample"] = "lots"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["build-dataset", "--config", str(bad), "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "processing.doppler_oversample" in capsys.readouterr().err


def test_out_of_range_duration_exits_2_and_names_field(config_file, tmp_path, capsys):
    rc = main(["build-dataset", "--config", str(config_file), "--set", "dataset.duration_s=1",
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "dataset.duration_s" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("dt", ["0", "-0.1", "3.0", "NaN", "0.09997"])
def test_bad_frame_step_exits_2_and_names_field(config_file, tmp_path, capsys, dt):
    rc = main(["build-dataset", "--config", str(config_file), "--set", f"dataset.dt={dt}",
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "dataset.dt" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("setting", ["training.opt.learning_rate=NaN",
                                     "training.opt.window=1",
                                     "interference.noise_floor=NaN",
                                     "processing.doppler_oversample=0",
                                     "seed=-1",
                                     "dataset.kinds=[]",
                                     "optimization.period=1",
                                     "geometry.carrier_hz=Infinity"])
def test_out_of_range_setting_exits_2_and_names_field(config_file, tmp_path, capsys,
                                                      setting):
    rc = main(["build-dataset", "--config", str(config_file), "--set", setting,
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    section, _, key = setting.split("=")[0].rpartition(".")
    err = capsys.readouterr().err
    assert section in err and key in err
    assert not (tmp_path / "ds").exists()


def test_unknown_subcommand_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code != 0


def test_seed_override_changes_artifacts(config_file, tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"pose_{seed}.dpc"
        assert main(["gen-motion", "--config", str(config_file), "--kind", "W+",
                     "--set", f"seed={seed}", "--out", str(out)]) == 0
        outs.append(PoseSequence.load(out).positions)
    assert not np.array_equal(outs[0], outs[1])


def test_seed_option_removed(config_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-motion", "--config", str(config_file), "--kind", "W+",
              "--seed", "1", "--out", str(tmp_path / "pose.dpc")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "pose.dpc").exists()
