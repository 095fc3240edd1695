"""End-to-end experiment harness: dataset builds, training and metric tables.

A dataset is a directory of containers plus a JSON manifest. For every
generated activity it holds the ground-truth pose sequence and three
spectrogram variants: "S" (clean synthesis, no interference), "M" (full
interference, CLEAN-processed) and "D" (denoised M). Ground-truth velocities
are not stored: they are the pose's backward difference (`differentiate`),
taken on load. The manifest also freezes the train/test split so training and
evaluation always agree; `load_manifest` checks its shape, entries included.

The dataset build and the CLI's `simulate` and `caf` stages share one recipe:
`render_channels` makes a scene's target-only (S) and full (M) channels, and
`process_channel` turns either into a spectrogram: one batched CAF over the
capture's frame-long CPIs, then for M (and the CLI's `caf` stage) one CLEAN pass.

Every random stream is seeded here, from the config's `seed`; the
other modules take their seeds as arguments and do no arithmetic on them:
- dataset activity i: its start jitter, motion and waveform from
  a = seed * 1_000_003 + i, its noise from a + 1 (activity i + 1's a)
- the train/test split: seed; the CLI's single-activity stages: a = seed
- VelModel: its init and `vel_train`'s split and shuffles, both from seed
- OptModel: its init and its pair sampling from seed + 1, its fit from seed + 2
Streams that share an integer are not independent of each other.

`evaluate` fills one error array of shape (2, 2, N_JOINTS) per test entry
and variant, indexed (quantity, frame, joint). Quantity 0 is velocity in
mm/frame, via the (m/s) * dt * 1000 conversion, and 1 is position in mm.
Frame 0 is root-relative: poses are translated so the pelvis matches ground
truth per frame, and velocities get the root velocity subtracted, which pins
joint 1 error to zero. Frame 1 is absolute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .caf import Spectrogram, check_doppler_span, doppler_axis, spectrogram_pipeline
from .denoise import denoise
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
    BasebandSignal,
    Clutter,
    Geometry,
    InterferenceConfig,
    MirrorPlane,
    ScattererModel,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)

SCHEMA_VERSION = 1
VARIANTS = ("M", "D")  # the spectrogram variants `evaluate` reports on
ENTRY_FILES = ("pose", "spec_s", "spec_m", "spec_d")  # the files of a manifest entry


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the field."""


def parse_kind(value, where: str) -> ActivityKind:
    """The activity kind whose value (e.g. "W+", not the name "WPLUS") is `value`."""
    try:
        return ActivityKind(value)
    except ValueError:
        raise ConfigError(f"{where}: unknown activity kind {value!r}; "
                          f"choose from {[k.value for k in ActivityKind]}")


def _get_field(d: dict, path: str, typ, low=None):
    """The value at a dotted path; a numeric component indexes a list of objects.

    No field has a default: a missing node is a ConfigError naming its path,
    and so is the first node on the path that is not an object. The value must
    have `typ`'s JSON type, except that a float field also takes an integer;
    no field takes a bool. With `low`, it must be finite and at least `low`.
    """
    val = d
    parts = path.split(".")
    for depth, p in enumerate(parts):
        if isinstance(val, list) and p.isdigit():  # `entries` reads only indices it has
            val = val[int(p)]
        elif not isinstance(val, dict):
            raise ConfigError(f"config field {'.'.join(parts[:depth]) or '(top level)'}: "
                              f"expected an object, got {val!r}")
        elif p not in val:
            raise ConfigError(f"missing required config field: {'.'.join(parts[:depth + 1])}")
        else:
            val = val[p]
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


def _build(section: str, cls, *args, **fields):
    """cls(*args, **fields), a ValueError it raises a ConfigError naming `section`."""
    try:
        return cls(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"config field {section}: {exc}")


@dataclass
class ExperimentConfig:
    """Parsed experiment settings, every one read from the config file.

    A config sets every field; configs/default.json is the template to copy.
    The dataclasses' own defaults (TrainConfig, OptConfig, InterferenceConfig)
    serve library callers and never fill in a field a config leaves out.
    """

    seed: int
    geometry: Geometry
    bandwidth_hz: float
    sample_rate_hz: float
    scatterer: ScattererModel
    interference: InterferenceConfig
    doppler_span_hz: float
    doppler_oversample: int
    denoise_quantile: float
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
    """Validate a config dict that sets every field; nothing here has a default.

    configs/default.json is the template to copy. A missing field, a section
    that is not an object, and a field this function never reads are each a
    ConfigError naming the dotted path. `apply_overrides` (the CLI's `--set`)
    only sets values in `data` before this runs; an unknown key is still an error.
    """
    read = set()

    def get(path, typ, low=None):
        read.add(path)
        return _get_field(data, path, typ, low)

    if get("schema_version", int) != SCHEMA_VERSION:
        raise ConfigError(f"config field schema_version: expected {SCHEMA_VERSION}")
    seed = get("seed", int, low=0)

    def section(path, cls, **fields):
        """cls(**fields) of the object at `path`, each field read by `get` at its type."""
        return _build(path, cls, **{name: get(f"{path}.{name}", typ)
                                    for name, typ in fields.items()})

    def entries(path, cls, **fields):
        """`section` of each object in the list at `path`."""
        return [section(f"{path}.{i}", cls, **fields) for i in range(len(get(path, list)))]

    geometry = section("geometry", Geometry, tx_pos=list, rx_sur_pos=list, rx_ref_pos=list,
                       carrier_hz=float)
    interference = _build(
        "interference", InterferenceConfig,
        clutter=entries("interference.clutter", Clutter, position=list, amplitude=float),
        multipath=entries("interference.multipath", MirrorPlane,
                          point=list, normal=list, amplitude=float),
        dsi_amplitude=get("interference.dsi_amplitude", float),
        noise_floor=get("interference.noise_floor", float),
    )

    kinds = [parse_kind(k, "config field dataset.kinds") for k in get("dataset.kinds", list)]
    if not kinds:
        raise ConfigError("config field dataset.kinds: must name at least one activity kind")

    quantile = get("denoise.quantile", float)
    if not 0.0 <= quantile < 1.0:
        raise ConfigError(f"config field denoise.quantile: must be in [0, 1), got {quantile}")

    train_fraction = get("dataset.train_fraction", float)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("config field dataset.train_fraction: must be in (0, 1)")

    train = dict(learning_rate=float, batch_size=int, epochs=int, val_fraction=float)

    n_activities = get("dataset.n_activities", int, low=1)
    duration_s = _build("dataset.duration_s", check_duration, get("dataset.duration_s", float))
    dt = get("dataset.dt", float)
    if not 0.0 < dt <= duration_s / 2:
        raise ConfigError(f"config field dataset.dt: must be positive and leave at least "
                          f"2 frames of dataset.duration_s {duration_s}, got {dt}")

    sample_rate_hz = get("waveform.sample_rate_hz", float)
    if not 0.0 < sample_rate_hz < np.inf:
        raise ConfigError(f"config field waveform.sample_rate_hz: must be positive and finite, "
                          f"got {sample_rate_hz}")
    bandwidth_hz = get("waveform.bandwidth_hz", float)
    if not 0.0 < bandwidth_hz <= sample_rate_hz:
        raise ConfigError(f"config field waveform.bandwidth_hz: must be in (0, sample rate "
                          f"{sample_rate_hz:g}], got {bandwidth_hz}")
    # A frame is one CPI; its poses and spectrogram columns only line up when
    # it holds a whole number of samples.
    cpi_samples = dt * sample_rate_hz
    if abs(cpi_samples - round(cpi_samples)) > 1e-6 or round(cpi_samples) < 2:
        raise ConfigError(f"config field dataset.dt: a frame of {dt} s holds {cpi_samples:.8g} "
                          f"samples at {sample_rate_hz:g} Hz, not a whole number of at least 2")
    doppler_span_hz = _build("processing.doppler_span_hz", check_doppler_span,
                             get("processing.doppler_span_hz", float), sample_rate_hz)

    cfg = ExperimentConfig(
        seed=seed,
        geometry=geometry,
        bandwidth_hz=bandwidth_hz,
        sample_rate_hz=sample_rate_hz,
        scatterer=section("scatterer", ScattererModel, path_loss_exponent=float),
        interference=interference,
        doppler_span_hz=doppler_span_hz,
        doppler_oversample=get("processing.doppler_oversample", int, low=1),
        denoise_quantile=quantile,
        n_activities=n_activities,
        duration_s=duration_s,
        dt=dt,
        kinds=kinds,
        start_jitter_m=get("dataset.start_jitter_m", float, low=0.0),
        train_fraction=train_fraction,
        vel_train=section("training.vel", TrainConfig, **train),
        opt_train_cfg=section("training.opt", TrainConfig, **train),
        opt_pairs=get("training.opt.n_pairs", int, low=1),
        opt_window=get("training.opt.window", int, low=2),
        opt_config=section("optimization", OptConfig,
                           optr=float, max_epochs=int, tol=float, period=int),
    )
    if cfg.opt_config.period < 2:  # OptConfig takes 1: an oracle predictor can run it
        raise ConfigError(f"config field optimization.period: must be >= 2, the frames a drift "
                          f"correction hands OptModel, got {cfg.opt_config.period}")
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

def render_channels(cfg: ExperimentConfig, pose: PoseSequence, seed: int):
    """The (reference, target-only, full surveillance) signals of `pose`, lasting
    `len(pose) * pose.dt`: the waveform drawn from `seed`, the noise from `seed + 1`."""
    u = generate_waveform(cfg.bandwidth_hz, len(pose) * pose.dt, cfg.sample_rate_hz, seed=seed)
    targets, full = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry,
                                            cfg.interference, seed + 1)
    return synthesize_reference(u, cfg.geometry), targets, full


def process_channel(cfg: ExperimentConfig, sur: BasebandSignal, ref: BasebandSignal,
                    clean: bool) -> Spectrogram:
    """`spectrogram_pipeline` of one surveillance channel at the config's processing
    settings, frame-long CPIs, with one CLEAN pass when `clean` is set."""
    return spectrogram_pipeline(sur, ref, cpi_s=cfg.dt, doppler_span_hz=cfg.doppler_span_hz,
                                doppler_oversample=cfg.doppler_oversample, clean=clean)


def doppler_bins(cfg: ExperimentConfig) -> int:
    """The Doppler bins of every spectrogram `process_channel` makes."""
    return len(doppler_axis(cpi_s=cfg.dt, sample_rate_hz=cfg.sample_rate_hz,
                            doppler_span_hz=cfg.doppler_span_hz,
                            doppler_oversample=cfg.doppler_oversample))


def simulate_activity(cfg: ExperimentConfig, kind: ActivityKind, seed: int,
                      start_xy=(0.0, 0.0)):
    """Render one activity to its (pose, S, M, D) tuple."""
    pose = generate_activity(kind, cfg.duration_s, seed, dt=cfg.dt, start_xy=start_xy)
    ref, targets, full = render_channels(cfg, pose, seed)
    s_spec = process_channel(cfg, targets, ref, False)
    m_spec = process_channel(cfg, full, ref, True)
    return pose, s_spec, m_spec, denoise(m_spec, cfg.denoise_quantile)


def dataset_split(cfg: ExperimentConfig):
    """Sorted (train, test) indices of the entries `build_dataset` writes, known before it
    renders: per kind, in value order, a shuffle drawn from the config seed whose first
    round(train_fraction * count) entries, at least 1, train."""
    kinds_per_entry = [cfg.kinds[i % len(cfg.kinds)] for i in range(cfg.n_activities)]
    rng = np.random.default_rng(cfg.seed)
    train = []
    for k in sorted(set(kinds_per_entry), key=lambda a: a.value):
        idx = np.flatnonzero([e == k for e in kinds_per_entry])
        rng.shuffle(idx)
        train += idx[:max(1, int(round(cfg.train_fraction * len(idx))))].tolist()
    return sorted(train), sorted(set(range(len(kinds_per_entry))) - set(train))


def build_dataset(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Generate and persist the full S/M/D dataset; returns the manifest."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    entries = []
    for i in range(cfg.n_activities):
        kind = cfg.kinds[i % len(cfg.kinds)]
        act_seed = cfg.seed * 1_000_003 + i
        rng = np.random.default_rng(act_seed)
        start_xy = rng.uniform(-cfg.start_jitter_m, cfg.start_jitter_m, size=2)
        pose, s_spec, m_spec, d_spec = simulate_activity(cfg, kind, act_seed,
                                                         start_xy=start_xy)
        files = {key: f"act_{i:04d}_{key}.dpc" for key in ENTRY_FILES}
        for key, item in zip(ENTRY_FILES, (pose, s_spec, m_spec, d_spec)):
            item.save(out / files[key])
        entries.append({
            "index": i, "kind": kind.value, "seed": act_seed,
            "T": len(pose), "dt": cfg.dt, "files": files,
        })

    train_idx, test_idx = dataset_split(cfg)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "doppler_bins": doppler_bins(cfg),
        "entries": entries,
        "split": {"train": train_idx, "test": test_idx},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def load_manifest(dataset_dir: str | Path) -> dict:
    """The dataset's manifest.json; a shape `build_dataset` does not write is a
    ValueError naming the file and the key."""
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {dataset_dir}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc

    def check(ok, key, what):
        if not ok:
            raise ValueError(f"{path}: {key} must be {what}")

    check(isinstance(manifest, dict), "the manifest", "a JSON object")
    check(isinstance(manifest.get("entries"), list), "entries", "a list")
    for k, entry in enumerate(manifest["entries"]):
        files = entry.get("files") if isinstance(entry, dict) else None
        check(isinstance(files, dict) and type(entry.get("index")) is int
              and isinstance(entry.get("kind"), str)
              and all(isinstance(files.get(key), str) for key in ENTRY_FILES),
              f"entries.{k}", "an object with an integer index, a string kind and a "
              f"files object naming {', '.join(ENTRY_FILES)} as strings")
    check(isinstance(manifest.get("split"), dict), "split", "an object")
    n = len(manifest["entries"])
    for key in ("train", "test"):
        idx = manifest["split"].get(key)
        check(isinstance(idx, list) and all(type(i) is int and 0 <= i < n for i in idx),
              f"split.{key}", f"a list of indices into the {n} entries")
    check(type(manifest.get("doppler_bins")) is int, "doppler_bins", "an integer")
    return manifest


def _entry_paths(dataset_dir: str | Path, entry: dict) -> list:
    """The paths of a manifest entry's files, in `ENTRY_FILES` order."""
    return [Path(dataset_dir) / entry["files"][key] for key in ENTRY_FILES]


def load_entry(dataset_dir: str | Path, entry: dict):
    """Load one manifest entry: (pose, velocity, spec_s, spec_m, spec_d).

    The velocity is `differentiate(pose)`; a stored velocity file, which
    older datasets list, is not read.
    """
    pose_path, *spec_paths = _entry_paths(dataset_dir, entry)
    pose = PoseSequence.load(pose_path)
    return (pose, differentiate(pose), *(Spectrogram.load(p) for p in spec_paths))


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------

def train_velocity_model(cfg: ExperimentConfig, dataset_dir: str | Path,
                         checkpoint_path: str | Path, history_path: str | Path) -> VelModel:
    """Train the velocity net on the train split's clean (S) spectrograms."""
    manifest = load_manifest(dataset_dir)
    data = []
    for i in manifest["split"]["train"]:
        pose_path, s_path, _, _ = _entry_paths(dataset_dir, manifest["entries"][i])
        data.append((Spectrogram.load(s_path), differentiate(PoseSequence.load(pose_path))))
    model = VelModel(manifest["doppler_bins"], seed=cfg.seed)
    history = vel_train(model, data, cfg.vel_train, cfg.seed)
    model.save(checkpoint_path)
    save_history_csv(history_path, history)
    return model


def train_opt_model(cfg: ExperimentConfig, dataset_dir: str | Path,
                    checkpoint_path: str | Path, history_path: str | Path) -> OptModel:
    """Train the optimization-vector net on the train split's mocap poses."""
    manifest = load_manifest(dataset_dir)
    mocap = [PoseSequence.load(_entry_paths(dataset_dir, manifest["entries"][i])[0])
             for i in manifest["split"]["train"]]
    model = OptModel(seed=cfg.seed + 1)
    history = opt_train(model, mocap, cfg.opt_train_cfg, cfg.seed + 1, cfg.seed + 2,
                        n_pairs=cfg.opt_pairs, window=cfg.opt_window)
    model.save(checkpoint_path)
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
    manifest = load_manifest(dataset_dir)
    entries = [manifest["entries"][i] for i in manifest["split"]["test"]]
    if not entries:
        raise ValueError("dataset has no test entries")
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
