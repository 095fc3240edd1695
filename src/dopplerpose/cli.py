"""Command-line interface for the micro-Doppler pose pipeline.

Every subcommand takes a JSON config file (see configs/) plus optional
`--set dotted.key=value` overrides; `--seed` and `--out` are shorthand
overrides shared by all commands. Exit status is 0 on success, 2 on a
configuration problem (the message names the offending field), 1 on any
other failure.

For bit-reproducible artifacts run single-threaded, e.g.
OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .caf import Spectrogram, spectrogram_pipeline
from .denoise import denoise
from .harness import ConfigError, load_config
from .motion import ActivityKind, PoseSequence
from .poseopt import OptModel
from .velest import VelModel
from .wavesim import BasebandSignal, generate_waveform, synthesize_reference, \
    synthesize_surveillance


def _common(parser):
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", required=True, help="output file or directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")


def _load(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def _parse_kind(value: str) -> ActivityKind:
    for k in ActivityKind:
        if value in (k.value, k.name):
            return k
    raise ConfigError(f"unknown activity kind {value!r}; "
                      f"choose from {[k.value for k in ActivityKind]}")


def cmd_gen_motion(args) -> int:
    cfg = _load(args)
    kind = _parse_kind(args.kind)
    pose = harness.generate_activity(kind, args.duration, cfg.seed, dt=cfg.dt)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pose.save(out)
    print(f"wrote {len(pose)}-frame {kind.value} pose to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    pose = PoseSequence.load(args.pose)
    sig_duration = len(pose) * pose.dt
    u = generate_waveform(cfg.bandwidth_hz, sig_duration, cfg.sample_rate_hz,
                          seed=cfg.seed)
    ref = synthesize_reference(u, cfg.geometry)
    ic = replace(cfg.interference, noise_seed=cfg.seed + 1)
    sur = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry, ic)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ref.save(out / "ref.dpc")
    sur.save(out / "sur.dpc")
    print(f"wrote ref.dpc and sur.dpc ({len(sur)} samples) to {out}")
    return 0


def cmd_caf(args) -> int:
    cfg = _load(args)
    sur = BasebandSignal.load(args.sur)
    ref = BasebandSignal.load(args.ref)
    spec = spectrogram_pipeline(
        sur, ref, cpi_s=cfg.dt, delay_bins=cfg.delay_bins,
        doppler_span_hz=cfg.doppler_span_hz,
        doppler_oversample=cfg.doppler_oversample,
        clean_iterations=cfg.clean_iterations)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    spec.save(out)
    print(f"wrote {spec.values.shape[0]}x{spec.n_frames} spectrogram to {out}")
    return 0


def cmd_denoise(args) -> int:
    cfg = _load(args)
    spec = Spectrogram.load(args.input)
    den = denoise(spec, cfg.denoise_params)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    den.save(out)
    print(f"wrote denoised spectrogram to {out}")
    return 0


def cmd_build_dataset(args) -> int:
    cfg = _load(args)
    manifest = harness.build_dataset(cfg, args.out)
    print(f"wrote {len(manifest['entries'])} activities "
          f"({len(manifest['split']['train'])} train / "
          f"{len(manifest['split']['test'])} test) to {args.out}")
    return 0


def cmd_train_vel(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.train_velocity_model(cfg, args.data, out / "vel_model.dpc",
                                 out / "vel_history.csv")
    print(f"wrote vel_model.dpc and vel_history.csv to {out}")
    return 0


def cmd_train_opt(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.train_opt_model(cfg, args.data, out / "opt_model.dpc",
                            out / "opt_history.csv")
    print(f"wrote opt_model.dpc and opt_history.csv to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load(args)
    manifest = harness.load_manifest(args.data)
    entry = next((e for e in manifest["entries"] if e["index"] == args.index), None)
    if entry is None:
        raise ConfigError(f"dataset has no entry with index {args.index}")
    pose, _vel, _s, m_spec, d_spec = harness.load_entry(args.data, entry)
    vel_model = VelModel.load(args.vel_model)
    opt_model = OptModel.load(args.opt_model)

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
    cfg = _load(args)
    vel_model = VelModel.load(args.vel_model)
    opt_model = OptModel.load(args.opt_model)
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
    p.add_argument("--duration", type=float, default=5.0)
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
    p.set_defaults(fn=cmd_train_vel)

    p = sub.add_parser("train-opt", help="train the pose optimization network")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(fn=cmd_train_opt)

    p = sub.add_parser("reconstruct", help="full pipeline on one dataset entry")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--index", type=int, default=0, help="dataset entry index")
    p.add_argument("--variant", choices=["M", "D"], default="D")
    p.add_argument("--vel-model", required=True)
    p.add_argument("--opt-model", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="error tables over the test split")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--vel-model", required=True)
    p.add_argument("--opt-model", required=True)
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
