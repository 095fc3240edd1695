"""Command-line interface for the micro-Doppler pose pipeline.

Every subcommand takes a JSON config file (see configs/) plus optional
`--set dotted.key=value` overrides (`--set seed=N` sets the seed); every
command writes to `--out`. `evaluate` and `reconstruct` need
`--opt-model` only when `optimization.max_epochs` > 0. Exit status is 0 on
success, 2 on a configuration problem (the message names the offending field
or option), 1 on any other failure (a malformed input file is named).
`simulate` and `caf` run the dataset build's recipe at the config seed, so
the stage chain reproduces `harness.simulate_activity` up to file precision.

For bit-reproducible artifacts run single-threaded, e.g.
OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .caf import Spectrogram
from .denoise import denoise
from .harness import ConfigError, load_config
from .motion import PoseSequence
from .poseopt import OptModel
from .velest import VelModel
from .wavesim import BasebandSignal


def _common(parser):
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="output file or directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")


def _load_models(args, cfg):
    """(vel model, opt model), the second None when no optimization epoch runs."""
    needs_opt = cfg.opt_config.max_epochs > 0
    if needs_opt and args.opt_model is None:
        raise ConfigError("--opt-model is required when optimization.max_epochs > 0")
    return (VelModel.load(args.vel_model),
            OptModel.load(args.opt_model) if needs_opt else None)


def cmd_gen_motion(args) -> int:
    cfg = load_config(args.config, args.overrides)
    kind = harness.parse_kind(args.kind, "--kind")
    pose = harness.generate_activity(kind, cfg.duration_s, cfg.seed, dt=cfg.dt)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pose.save(out)
    print(f"wrote {len(pose)}-frame {kind.value} pose to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    ref, _targets, sur = harness.render_channels(cfg, PoseSequence.load(args.pose), cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ref.save(out / "ref.dpc")
    sur.save(out / "sur.dpc")
    print(f"wrote ref.dpc and sur.dpc ({len(sur)} samples) to {out}")
    return 0


def cmd_caf(args) -> int:
    cfg = load_config(args.config, args.overrides)
    spec = harness.process_channel(cfg, BasebandSignal.load(args.sur),
                                   BasebandSignal.load(args.ref), True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    spec.save(out)
    print(f"wrote {spec.values.shape[0]}x{spec.n_frames} spectrogram to {out}")
    return 0


def cmd_denoise(args) -> int:
    cfg = load_config(args.config, args.overrides)
    spec = Spectrogram.load(args.input)
    den = denoise(spec, cfg.denoise_quantile)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    den.save(out)
    print(f"wrote denoised spectrogram to {out}")
    return 0


def cmd_build_dataset(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if not harness.dataset_split(cfg)[1]:
        raise ConfigError(f"dataset.n_activities={cfg.n_activities} with dataset.train_fraction="
                          f"{cfg.train_fraction} leaves no test entry")
    manifest = harness.build_dataset(cfg, args.out)
    print(f"wrote {len(manifest['entries'])} activities "
          f"({len(manifest['split']['train'])} train / "
          f"{len(manifest['split']['test'])} test) to {args.out}")
    return 0


def cmd_train(args) -> int:
    """train-vel or train-opt: `args.net` ("vel" or "opt") names the network and its files."""
    cfg = load_config(args.config, args.overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train = harness.train_velocity_model if args.net == "vel" else harness.train_opt_model
    train(cfg, args.data, out / f"{args.net}_model.dpc", out / f"{args.net}_history.csv")
    print(f"wrote {args.net}_model.dpc and {args.net}_history.csv to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config, args.overrides)
    vel_model, opt_model = _load_models(args, cfg)
    manifest = harness.load_manifest(args.data)
    entry = next((e for e in manifest["entries"] if e["index"] == args.index), None)
    if entry is None:
        raise ConfigError(f"dataset has no entry with index {args.index}")
    pose, _vel, _s, m_spec, d_spec = harness.load_entry(args.data, entry)

    spec = d_spec if args.variant == "D" else m_spec
    _est, rec, trace = harness.reconstruct(cfg, vel_model, opt_model, spec,
                                           truth=pose.positions[0])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rec.save(out / "reconstructed_pose.dpc")
    err_mm = np.linalg.norm(
        harness.root_relative_positions(rec.positions, pose.positions)
        - pose.positions, axis=2).mean(axis=1) * 1000.0
    with open(out / "drift.csv", "w", encoding="utf-8") as fh:
        fh.write("frame,mean_error_mm\n")
        for t, e in enumerate(err_mm):
            fh.write(f"{t},{e:.3f}\n")
    with open(out / "init_trace.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_error_m\n")
        for i, e in enumerate(trace):
            fh.write(f"{i},{e:.6f}\n")
    print(f"wrote reconstructed_pose.dpc, drift.csv and init_trace.csv to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    vel_model, opt_model = _load_models(args, cfg)
    report = harness.evaluate(cfg, args.data, vel_model, opt_model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_metrics_csv(out / "metrics.csv", report)
    harness.write_metrics_csv(out / "metrics_absolute.csv", report, absolute=True)
    harness.write_metrics_table(out / "metrics_table.txt", report)
    print("overall velocity MAE (mm/frame): " + ", ".join(
        f"{v}={np.mean(e['overall'][0, 0]):.2f}" for v, e in report.errors.items()))
    print("overall position MAE (mm): " + ", ".join(
        f"{v}={np.mean(e['overall'][1, 0]):.2f}" for v, e in report.errors.items()))
    print(f"wrote metrics.csv, metrics_absolute.csv and metrics_table.txt to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopplerpose",
        description="micro-Doppler skeletal motion reconstruction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-motion", help="generate a synthetic activity pose file")
    _common(p)
    p.add_argument("--kind", required=True, help="activity kind, e.g. W+ or SU")
    p.set_defaults(fn=cmd_gen_motion)

    p = sub.add_parser("simulate", help="synthesize reference/surveillance signals")
    _common(p)
    p.add_argument("--pose", required=True, help="pose container file")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("caf", help="CAF + CLEAN + spectrogram assembly")
    _common(p)
    p.add_argument("--sur", required=True, help="surveillance signal file")
    p.add_argument("--ref", required=True, help="reference signal file")
    p.set_defaults(fn=cmd_caf)

    p = sub.add_parser("denoise", help="denoise a spectrogram container")
    _common(p)
    p.add_argument("--input", required=True, help="spectrogram file")
    p.set_defaults(fn=cmd_denoise)

    p = sub.add_parser("build-dataset", help="generate the S/M/D training dataset")
    _common(p)
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("train-vel", help="train the velocity estimation network")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(fn=cmd_train, net="vel")

    p = sub.add_parser("train-opt", help="train the pose optimization network")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(fn=cmd_train, net="opt")

    p = sub.add_parser("reconstruct", help="full pipeline on one dataset entry")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--index", type=int, default=0, help="dataset entry index")
    p.add_argument("--variant", choices=["M", "D"], default="D")
    p.add_argument("--vel-model", required=True)
    p.add_argument("--opt-model", help="needed when optimization.max_epochs > 0")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="error tables over the test split")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--vel-model", required=True)
    p.add_argument("--opt-model", help="needed when optimization.max_epochs > 0")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
