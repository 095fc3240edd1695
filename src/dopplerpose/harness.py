"""End-to-end experiment harness: dataset builds, training and metric tables.

A dataset is a directory of containers plus a JSON manifest. For every
generated activity it holds the ground-truth pose and velocity sequences and
three spectrogram variants: "S" (clean synthesis, no interference), "M"
(full interference, CLEAN-processed) and "D" (denoised M). The manifest also
freezes the train/test split so training and evaluation always agree.

`evaluate` fills one error array of shape (2, 2, N_JOINTS) per test entry
and variant, indexed (quantity, frame, joint). Quantity 0 is velocity in
mm/frame, via the (m/s) * dt * 1000 conversion, and 1 is position in mm.
Frame 0 is root-relative: poses are translated so the pelvis matches ground
truth per frame, and velocities get the root velocity subtracted, which pins
joint 1 error to zero. Frame 1 is absolute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .caf import Spectrogram, check_doppler_span, spectrogram_pipeline
from .denoise import DenoiseParams, denoise
from .motion import (
    ActivityKind,
    N_JOINTS,
    PoseSequence,
    VelocitySequence,
    check_duration,
    differentiate,
    generate_activity,
    t_pose,
)
from .poseopt import OptConfig, OptModel, opt_train, optimize_initial_pose, reconstruct_long_term
from .velest import TrainConfig, VelModel, save_history_csv, vel_forward, vel_train
from .wavesim import (
    Clutter,
    Geometry,
    InterferenceConfig,
    MirrorPlane,
    ScattererModel,
    add_interference,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)

SCHEMA_VERSION = 1
VARIANTS = ("M", "D")  # the spectrogram variants `evaluate` reports on


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the field."""


def parse_kind(value, where: str) -> ActivityKind:
    """The activity kind whose value (e.g. "W+", not the name "WPLUS") is `value`."""
    try:
        return ActivityKind(value)
    except ValueError:
        raise ConfigError(f"{where}: unknown activity kind {value!r}; "
                          f"choose from {[k.value for k in ActivityKind]}")


def _get_field(d: dict, path: str, typ, default=None, required=False, low=None):
    """The value at a dotted path; a numeric component indexes a list of objects.

    The value must have `typ`'s JSON type, except that a float field also
    takes an integer; no field takes a bool. With `low`, it must be finite
    and at least `low`.
    """
    node = d
    parts = path.split(".")
    for p in parts[:-1]:
        if isinstance(node, list) and p.isdigit() and int(p) < len(node):
            node = node[int(p)]
        else:
            node = node.get(p, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            raise ConfigError(f"missing required config field: {path}")
        return default
    val = node[parts[-1]]
    try:
        if isinstance(val, bool) or not isinstance(val, (int, float) if typ is float else typ):
            raise TypeError
        val = typ(val)
    except (TypeError, OverflowError):
        raise ConfigError(f"config field {path}: expected {typ.__name__}, got {val!r}")
    if low is not None and not low <= val < np.inf:
        raise ConfigError(f"config field {path}: must be finite and >= {low}, got {val}")
    return val


def _leaf_paths(node: dict, prefix: str = ""):
    """The dotted path of every value in a config dict.

    Objects, and the objects of a non-empty list of objects (at `key.<index>`),
    are walked into; every other value, other lists included, is a leaf.
    """
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _leaf_paths(val, f"{prefix}{key}.")
        elif isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
            for i, entry in enumerate(val):
                yield from _leaf_paths(entry, f"{prefix}{key}.{i}.")
        else:
            yield prefix + key


def _build(section: str, cls, **fields):
    """cls(**fields), with a rejected value reported as a ConfigError naming the section."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"config field {section}: {exc}")


@dataclass
class ExperimentConfig:
    """Parsed experiment settings; see configs/ for the JSON shape."""

    seed: int
    geometry: Geometry
    bandwidth_hz: float
    sample_rate_hz: float
    scatterer: ScattererModel
    interference: InterferenceConfig
    delay_bins: int
    doppler_span_hz: float
    doppler_oversample: int
    clean_iterations: int
    denoise_params: DenoiseParams
    n_activities: int
    duration_s: float
    dt: float
    kinds: list
    start_jitter_m: float
    train_fraction: float
    vel_train: TrainConfig
    opt_train_cfg: TrainConfig
    opt_pairs: int
    opt_window: int
    opt_config: OptConfig


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict; a field this function never reads is an error too."""
    read = set()

    def get(path, typ, default=None, required=False, low=None):
        read.add(path)
        return _get_field(data, path, typ, default, required, low)

    if get("schema_version", int, required=True) != SCHEMA_VERSION:
        raise ConfigError(f"config field schema_version: expected {SCHEMA_VERSION}")
    geometry = _build(
        "geometry", Geometry,
        tx_pos=get("geometry.tx_pos", list, required=True),
        rx_sur_pos=get("geometry.rx_sur_pos", list, required=True),
        rx_ref_pos=get("geometry.rx_ref_pos", list, required=True),
        carrier_hz=get("geometry.carrier_hz", float, 5.8e9),
    )

    def entries(path, cls, **fields):
        """cls(**fields) per object in the list at `path`, every field read by `get`."""
        return [_build(f"{path}.{i}", cls, **{
                    name: get(f"{path}.{i}.{name}", typ, required=True)
                    for name, typ in fields.items()})
                for i in range(len(get(path, list, [])))]

    clutter = entries("interference.clutter", Clutter, position=list, amplitude=float)
    multipath = entries("interference.multipath", MirrorPlane,
                        point=list, normal=list, amplitude=float)
    interference = _build(
        "interference", InterferenceConfig,
        dsi_amplitude=get("interference.dsi_amplitude", float, 0.0),
        clutter=clutter,
        multipath=multipath,
        noise_floor=get("interference.noise_floor", float, 0.0),
    )

    kinds = [parse_kind(k, "config field dataset.kinds")
             for k in get("dataset.kinds", list, [k.value for k in ActivityKind])]

    den = _build("denoise", DenoiseParams, quantile=get("denoise.quantile", float, 0.6))

    train_fraction = get("dataset.train_fraction", float, 0.23)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("config field dataset.train_fraction: must be in (0, 1)")

    vel_cfg = _build(
        "training.vel", TrainConfig,
        learning_rate=get("training.vel.learning_rate", float, 0.001),
        batch_size=get("training.vel.batch_size", int, 64),
        epochs=get("training.vel.epochs", int, 60),
        seed=get("seed", int, 0),
        val_fraction=get("training.vel.val_fraction", float, 0.1),
    )
    opt_cfg = _build(
        "training.opt", TrainConfig,
        learning_rate=get("training.opt.learning_rate", float, 0.001),
        batch_size=get("training.opt.batch_size", int, 128),
        epochs=get("training.opt.epochs", int, 40),
        seed=get("seed", int, 0) + 1,
        val_fraction=get("training.opt.val_fraction", float, 0.1),
    )

    n_activities = get("dataset.n_activities", int, 200, low=1)
    try:
        duration_s = check_duration(get("dataset.duration_s", float, 5.0))
    except ValueError as exc:
        raise ConfigError(f"config field dataset.duration_s: {exc}")
    dt = get("dataset.dt", float, 0.1)
    if not 0.0 < dt <= duration_s / 2:
        raise ConfigError(f"config field dataset.dt: must be positive and leave at least "
                          f"2 frames of dataset.duration_s {duration_s}, got {dt}")

    sample_rate_hz = get("waveform.sample_rate_hz", float, 16e3)
    try:
        doppler_span_hz = check_doppler_span(
            get("processing.doppler_span_hz", float, 100.0), sample_rate_hz)
    except ValueError as exc:
        raise ConfigError(f"config field processing.doppler_span_hz: {exc}")

    cfg = ExperimentConfig(
        seed=get("seed", int, 0),
        geometry=geometry,
        bandwidth_hz=get("waveform.bandwidth_hz", float, 8e3),
        sample_rate_hz=sample_rate_hz,
        scatterer=_build("scatterer", ScattererModel,
                         path_loss_exponent=get("scatterer.path_loss_exponent", float, 2.0)),
        interference=interference,
        delay_bins=get("processing.delay_bins", int, 1),
        doppler_span_hz=doppler_span_hz,
        doppler_oversample=get("processing.doppler_oversample", int, 4),
        clean_iterations=get("processing.clean_iterations", int, 2, low=0),
        denoise_params=den,
        n_activities=n_activities,
        duration_s=duration_s,
        dt=dt,
        kinds=kinds,
        start_jitter_m=get("dataset.start_jitter_m", float, 0.25, low=0.0),
        train_fraction=train_fraction,
        vel_train=vel_cfg,
        opt_train_cfg=opt_cfg,
        opt_pairs=get("training.opt.n_pairs", int, 1024, low=1),
        opt_window=get("training.opt.window", int, 30, low=2),
        opt_config=_build(
            "optimization", OptConfig,
            optr=get("optimization.optr", float, 0.01),
            max_epochs=get("optimization.max_epochs", int, 50),
            tol=get("optimization.tol", float, 1e-4),
            period=get("optimization.period", int, 50),
        ),
    )
    for path in _leaf_paths(data):
        if path not in read:
            raise ConfigError(f"unknown config field {path}")
    return cfg


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply `dotted.key=value` CLI overrides; a numeric key component indexes a list."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node, parts = data, key.split(".")
        for depth, p in enumerate(parts):
            if isinstance(node, list):
                if not (p.isdigit() and int(p) < len(node)):
                    raise ConfigError(f"override {key!r}: {p} is not an index of "
                                      f"{parts[depth - 1]}, a list of {len(node)}")
                p = int(p)
            elif not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {parts[depth - 1]} is not an object")
            if depth < len(parts) - 1:
                node = node[p] if isinstance(node, list) else node.setdefault(p, {})
        node[p] = parsed
    return data


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON: {exc}")
    if overrides:
        data = apply_overrides(data, overrides)
    return parse_config(data)


# ---------------------------------------------------------------------------
# Dataset build
# ---------------------------------------------------------------------------

def simulate_activity(cfg: ExperimentConfig, kind: ActivityKind, seed: int,
                      start_xy=(0.0, 0.0)):
    """Render one activity to its (pose, velocity, S, M, D) tuple."""
    pose = generate_activity(kind, cfg.duration_s, seed, dt=cfg.dt, start_xy=start_xy)
    vel = differentiate(pose)
    sig_duration = len(pose) * cfg.dt
    u = generate_waveform(cfg.bandwidth_hz, sig_duration, cfg.sample_rate_hz, seed=seed)
    ref = synthesize_reference(u, cfg.geometry)

    pipe = dict(cpi_s=cfg.dt, delay_bins=cfg.delay_bins,
                doppler_span_hz=cfg.doppler_span_hz,
                doppler_oversample=cfg.doppler_oversample)
    # M shares S's target returns; only the interference is added on top.
    sur_clean = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry,
                                        InterferenceConfig())
    s_spec = spectrogram_pipeline(sur_clean, ref, clean_iterations=0, **pipe)
    noisy_ic = replace(cfg.interference, noise_seed=seed + 1)
    sur_noisy = add_interference(sur_clean, u, pose, cfg.scatterer, cfg.geometry, noisy_ic)
    m_spec = spectrogram_pipeline(sur_noisy, ref, clean_iterations=cfg.clean_iterations,
                                  **pipe)
    d_spec = denoise(m_spec, cfg.denoise_params)
    return pose, vel, s_spec, m_spec, d_spec


def _stratified_split(kinds_per_entry: list, fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    train = []
    by_kind = {}
    for i, k in enumerate(kinds_per_entry):
        by_kind.setdefault(k, []).append(i)
    for k in sorted(by_kind, key=lambda a: a.value):
        idx = np.array(by_kind[k])
        rng.shuffle(idx)
        n_train = max(1, int(round(fraction * len(idx))))
        train.extend(int(i) for i in idx[:n_train])
    train = sorted(train)
    test = sorted(set(range(len(kinds_per_entry))) - set(train))
    return train, test


def build_dataset(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Generate and persist the full S/M/D dataset; returns the manifest."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory {out} is not writable: {exc}")

    entries = []
    kinds_per_entry = []
    for i in range(cfg.n_activities):
        kind = cfg.kinds[i % len(cfg.kinds)]
        act_seed = cfg.seed * 1_000_003 + i
        rng = np.random.default_rng(act_seed)
        start_xy = rng.uniform(-cfg.start_jitter_m, cfg.start_jitter_m, size=2)
        pose, vel, s_spec, m_spec, d_spec = simulate_activity(
            cfg, kind, act_seed, start_xy=start_xy)
        stem = f"act_{i:04d}"
        files = {
            "pose": f"{stem}_pose.dpc",
            "velocity": f"{stem}_vel.dpc",
            "spec_s": f"{stem}_spec_s.dpc",
            "spec_m": f"{stem}_spec_m.dpc",
            "spec_d": f"{stem}_spec_d.dpc",
        }
        pose.save(out / files["pose"])
        vel.save(out / files["velocity"])
        s_spec.save(out / files["spec_s"])
        m_spec.save(out / files["spec_m"])
        d_spec.save(out / files["spec_d"])
        doppler_bins = s_spec.values.shape[0]  # the same for every activity of one config
        entries.append({
            "index": i, "kind": kind.value, "seed": act_seed,
            "T": len(pose), "dt": cfg.dt, "files": files,
        })
        kinds_per_entry.append(kind)

    train_idx, test_idx = _stratified_split(kinds_per_entry, cfg.train_fraction, cfg.seed)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "doppler_bins": doppler_bins,
        "entries": entries,
        "split": {"train": train_idx, "test": test_idx},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def load_manifest(dataset_dir: str | Path) -> dict:
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {dataset_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def load_entry(dataset_dir: str | Path, entry: dict):
    """Load one manifest entry: (pose, velocity, spec_s, spec_m, spec_d)."""
    base = Path(dataset_dir)
    f = entry["files"]
    return (PoseSequence.load(base / f["pose"]),
            VelocitySequence.load(base / f["velocity"]),
            Spectrogram.load(base / f["spec_s"]),
            Spectrogram.load(base / f["spec_m"]),
            Spectrogram.load(base / f["spec_d"]))


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------

def train_velocity_model(cfg: ExperimentConfig, dataset_dir: str | Path,
                         checkpoint_path: str | Path, history_path: str | Path) -> VelModel:
    """Train the velocity net on the train split's clean (S) spectrograms."""
    manifest = load_manifest(dataset_dir)
    base = Path(dataset_dir)
    data = []
    for i in manifest["split"]["train"]:
        entry = manifest["entries"][i]
        spec = Spectrogram.load(base / entry["files"]["spec_s"])
        vel = VelocitySequence.load(base / entry["files"]["velocity"])
        data.append((spec, vel))
    model = VelModel(manifest["doppler_bins"], seed=cfg.vel_train.seed)
    history = vel_train(model, data, cfg.vel_train)
    return _save_trained(model, cfg.vel_train, history, checkpoint_path, history_path)


def train_opt_model(cfg: ExperimentConfig, dataset_dir: str | Path,
                    checkpoint_path: str | Path, history_path: str | Path) -> OptModel:
    """Train the optimization-vector net on the train split's mocap poses."""
    manifest = load_manifest(dataset_dir)
    base = Path(dataset_dir)
    mocap = [PoseSequence.load(base / manifest["entries"][i]["files"]["pose"])
             for i in manifest["split"]["train"]]
    model = OptModel(seed=cfg.opt_train_cfg.seed)
    history = opt_train(model, mocap, cfg.opt_train_cfg, n_pairs=cfg.opt_pairs,
                        window=cfg.opt_window)
    return _save_trained(model, cfg.opt_train_cfg, history, checkpoint_path, history_path)


def _save_trained(model, train_cfg: TrainConfig, history: list,
                  checkpoint_path: str | Path, history_path: str | Path):
    """Write the checkpoint, with the epoch count and final loss as meta, and the history."""
    final_loss = history[-1]["train_loss"] if history else None
    model.save(checkpoint_path, meta={"epochs": train_cfg.epochs, "final_train_loss": final_loss})
    save_history_csv(history_path, history)
    return model


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def root_relative_positions(positions: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Translate each frame so the pelvis coincides exactly with ground truth."""
    out = positions + (truth[:, :1, :] - positions[:, :1, :])
    out[:, 0, :] = truth[:, 0, :]
    return out


def mm_per_frame(meters_per_second, dt: float):
    """Unit bridge used in all reports: mm/frame = (m/s) * dt * 1000."""
    return meters_per_second * dt * 1000.0


def velocity_mae_mm_frame(pred: VelocitySequence, truth: VelocitySequence,
                          root_relative: bool = True) -> np.ndarray:
    """Per-joint velocity MAE in mm/frame (L1 over the 3 components)."""
    p, t = pred.values, truth.values
    if root_relative:
        p = p - p[:, :1, :]
        t = t - t[:, :1, :]
    per_joint = np.abs(p - t).sum(axis=2).mean(axis=0)  # m/s
    return mm_per_frame(per_joint, truth.dt)


def position_mae_mm(pred: PoseSequence, truth: PoseSequence,
                    root_relative: bool = True) -> np.ndarray:
    """Per-joint mean Euclidean position error in mm."""
    p = pred.positions
    if root_relative:
        p = root_relative_positions(p, truth.positions)
    err = np.linalg.norm(p - truth.positions, axis=2).mean(axis=0)
    return err * 1000.0


@dataclass
class MetricsReport:
    kinds: list    # the test split's activity kinds, sorted
    errors: dict   # variant -> kind or "overall" -> mean (quantity, frame, joint) array


def held_out_entries(manifest: dict) -> list:
    """The manifest's test-split entries; an empty test split is an error."""
    entries = [manifest["entries"][i] for i in manifest["split"]["test"]]
    if not entries:
        raise ValueError("dataset has no test entries")
    return entries


def reconstruct(cfg: ExperimentConfig, vel_model: VelModel, opt_model: OptModel | None,
                spec: Spectrogram, truth: np.ndarray | None = None):
    """Estimated velocities, the reconstructed pose sequence and the optimizer trace.

    The initial pose is optimized from `t_pose()`; `truth` (the true first
    frame) only changes what the trace records, see `optimize_initial_pose`.
    With `optimization.max_epochs` 0 `opt_model` is never called and may be None.
    """
    est = vel_forward(vel_model, spec)
    p0, trace = optimize_initial_pose(opt_model, t_pose(), est, cfg.opt_config, truth=truth)
    return est, reconstruct_long_term(opt_model, p0, est, cfg.opt_config), trace


def evaluate(cfg: ExperimentConfig, dataset_dir: str | Path, vel_model: VelModel,
             opt_model: OptModel | None) -> MetricsReport:
    """Velocity and pose errors over the manifest's test split.

    "overall" pools the entries, in sorted-kind order. With
    `optimization.max_epochs` 0 the poses are the estimated velocities
    integrated from `t_pose()`, and `opt_model` is never called (it may be None).
    """
    entries = held_out_entries(load_manifest(dataset_dir))
    kinds = sorted({e["kind"] for e in entries})
    by_kind = {k: [] for k in kinds}  # one (variant, quantity, frame, joint) array per entry
    for entry in entries:
        pose, vel, _, m_spec, d_spec = load_entry(dataset_dir, entry)
        err = np.empty((len(VARIANTS), 2, 2, N_JOINTS))
        for v, spec in enumerate((m_spec, d_spec)):  # in VARIANTS order
            est, rec, _ = reconstruct(cfg, vel_model, opt_model, spec)
            err[v, 0] = [velocity_mae_mm_frame(est, vel, root_relative=r)
                         for r in (True, False)]
            err[v, 1] = [position_mae_mm(rec, pose, root_relative=r) for r in (True, False)]
        by_kind[entry["kind"]].append(err)
    means = {k: np.mean(by_kind[k], axis=0) for k in kinds}
    means["overall"] = np.mean([e for k in kinds for e in by_kind[k]], axis=0)
    return MetricsReport(kinds, {variant: {k: m[v] for k, m in means.items()}
                                 for v, variant in enumerate(VARIANTS)})


def write_metrics_csv(path: str | Path, report: MetricsReport, absolute: bool = False):
    """One row per (activity, joint), then per-joint overall rows, then a grand row."""
    frame = int(absolute)
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["activity", "joint"]
        for v in report.errors:
            cols += [f"vel_mae_{v.lower()}_mm_frame", f"pos_mae_{v.lower()}_mm"]
        fh.write(",".join(cols) + "\n")
        for kind in report.kinds + ["overall"]:
            for j in range(N_JOINTS):
                cells = [f"{x:.3f}" for by_kind in report.errors.values()
                         for x in by_kind[kind][:, frame, j]]
                fh.write(",".join([kind, str(j + 1)] + cells) + "\n")
        cells = [f"{np.mean(by_kind['overall'][q, frame]):.3f}"
                 for by_kind in report.errors.values() for q in range(2)]
        fh.write(",".join(["overall", "all"] + cells) + "\n")


def write_metrics_table(path: str | Path, report: MetricsReport):
    """Plain-text root-relative table: activities x joints, one row per variant."""
    lines = []
    header = "activity variant " + " ".join(f"{j + 1:>6d}" for j in range(N_JOINTS)) \
        + "  overall"
    for q, name in enumerate(("velocity mm/frame", "position mm")):
        lines += [f"== {name} ==", header]
        for kind in report.kinds + ["overall"]:
            for variant, by_kind in report.errors.items():
                vals = by_kind[kind][q, 0]
                cells = " ".join(f"{x:6.1f}" for x in vals)
                lines.append(f"{kind:>8s} {variant:>7s} {cells}  {np.mean(vals):7.1f}")
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
