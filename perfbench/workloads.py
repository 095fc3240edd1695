"""The three benchmark workloads: dataset, train and reconstruct.

Each workload derives its inputs from the benchmark seed, prepares them in
`setup`, and then runs operations one after another (closed loop). An
operation calls the same public entry points as the CLI stage it stands for;
`collect` turns its result into named arrays for the checks, and `check`
returns a list of failure messages (empty when the output is right).

Every dopplerpose function is called through its module attribute
(`harness.build_dataset`, `velest.vel_forward`, ...) so that the tracer's
rebinding reaches these calls too.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
from pathlib import Path

import numpy as np

from dopplerpose import harness, motion, poseopt, velest, wavesim

from . import checks

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.json"
CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"


def _set(data: dict, dotted: str, value) -> None:
    node = data
    parts = dotted.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def _file_bytes(directory: Path, skip=()) -> dict:
    """Every file's bytes in a directory, as arrays for `checks.digest`."""
    return {p.name: np.frombuffer(p.read_bytes(), dtype=np.uint8)
            for p in directory.iterdir() if p.name not in skip}


class Workload:
    """Shared plumbing: the default config plus this workload's overrides."""

    name = ""
    # Sizes and config overrides; TINY is for the benchmark's own tests.
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, seed: int, tmp: Path, *, tiny: bool = False):
        self.seed = int(seed) % 2 ** 32  # numpy seeds must be non-negative
        self.tmp = Path(tmp)
        self.sizes = self.TINY if tiny else self.FULL
        self.raw = json.loads(CONFIG.read_text(encoding="utf-8"))
        self.kinds = list(self.raw["dataset"]["kinds"])
        self.refs = None if tiny else checks.References(self.name)
        self._made = 0
        self._first = {}

    def config(self, overrides: dict) -> harness.ExperimentConfig:
        data = copy.deepcopy(self.raw)
        for key, value in {**self.sizes.get("config", {}), **overrides}.items():
            _set(data, key, value)
        return harness.parse_config(data)

    def fresh_dir(self, stem: str) -> Path:
        self._made += 1
        d = self.tmp / f"{stem}_{self._made}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def reference(self, index: int):
        return self.refs.get(self.seed, index) if self.refs is not None else None

    def same_as_first(self, key, dig: str) -> bool:
        """True unless an earlier run of the same operation gave other output."""
        return self._first.setdefault(key, dig) == dig

    def cleanup(self, result) -> None:
        pass


# ---------------------------------------------------------------------------
# dataset: render activities to pose/vel/S/M/D containers
# ---------------------------------------------------------------------------

class DatasetWorkload(Workload):
    """One operation renders one activity with `harness.build_dataset`.

    Kinds cycle through all nine in config order; each operation has its own
    activity seed, so no two operations share inputs. Setup renders one
    more activity (index -1) as a warm-up.
    """

    name = "dataset"
    TINY = {"config": {"dataset.duration_s": 2.0}}

    def setup(self):
        # Warm-up: the first activity of a process pays one-off costs (FFT
        # plans, first-touch memory) that a real dataset build amortizes.
        result = self.op(-1)
        fails = self.check(-1, result, *self.collect(result))
        self.cleanup(result)
        if fails:
            raise RuntimeError(f"warm-up activity failed its checks: {fails}")
        return self

    def pass_size(self) -> int:
        return len(self.kinds)

    def op(self, i: int):
        kind = self.kinds[i % len(self.kinds)]
        cfg = self.config({"seed": 1000 * (self.seed + 1) + i, "dataset.n_activities": 1,
                           "dataset.kinds": [kind]})
        out = self.fresh_dir(f"op_{i}")
        manifest = harness.build_dataset(cfg, out)
        return {"dir": out, "manifest": manifest, "cfg": cfg, "kind": kind}

    def collect(self, result):
        entry = result["manifest"]["entries"][0]
        pose, vel, s, m, d = harness.load_entry(result["dir"], entry)
        arrays = {"pose": pose.positions, "vel": vel.values, "S": s.values,
                  "M": m.values, "D": d.values, "axis": s.doppler_axis}
        return arrays, checks.digest(_file_bytes(result["dir"]))

    def cleanup(self, result):
        shutil.rmtree(result["dir"], ignore_errors=True)

    def check(self, i: int, result, arrays, dig: str) -> list:
        cfg, manifest = result["cfg"], result["manifest"]
        t_len = int(round(cfg.duration_s / cfg.dt))
        bins = manifest["doppler_bins"]
        fails = []
        if [e["kind"] for e in manifest["entries"]] != [result["kind"]]:
            fails.append("manifest does not hold exactly the requested activity")
        for key in ("pose", "vel"):
            fails += checks.shape(key, arrays[key], (t_len, motion.N_JOINTS, 3))
        for key in ("S", "M", "D"):
            fails += checks.shape(key, arrays[key], (bins, t_len))
        for key, arr in arrays.items():
            fails += checks.finite(key, arr)
        if fails:
            return fails
        fails += checks.max_normalized("S", arrays["S"])
        fails += checks.max_normalized("M", arrays["M"])
        fails += checks.max_normalized("D", arrays["D"], exact_peak=False)
        pose = motion.PoseSequence(arrays["pose"], cfg.dt)
        step = np.abs(motion.differentiate(pose).values - arrays["vel"]).max()
        if not step <= 1e-4:
            fails.append(f"stored velocity is not the pose derivative ({step:.3g} m/s)")
        fails += self._doppler_track(cfg, arrays)
        ref = self.reference(i)
        if ref is not None:
            spec_tol = checks.SPEC_ATOL + checks.F32_STEP
            fails += checks.compare_fingerprint("S", arrays["S"], ref["S"], spec_tol)
            fails += checks.compare_fingerprint("M", arrays["M"], ref["M"], spec_tol)
            fails += checks.compare_fingerprint("D", arrays["D"], ref["D"], 10 * spec_tol)
            for key in ("pose", "vel"):
                fails += checks.compare_fingerprint(key, arrays[key], ref[key], 0.0,
                                                    checks.F32_NET_RTOL)
        return fails

    @staticmethod
    def _doppler_track(cfg, arrays) -> list:
        """The S spectrogram follows the pelvis' bistatic Doppler.

        Per frame, the pelvis Doppler comes from `wavesim.bistatic_doppler`.
        Over 9 kinds x 15 seeds with start jitter, at 2 s and 5 s durations,
        at least 89% of frames hold a quarter of the column peak within one
        bin of it, and the typical column median is at most 8% of the column
        peak (the columns are peaked, so "near" is not met by a flat map).
        The check asks for 75% and 25%.
        """
        pos, axis, s = arrays["pose"], arrays["axis"], arrays["S"]
        near, flat = [], []
        for t in range(1, pos.shape[0]):
            v = (pos[t, 0] - pos[t - 1, 0]) / cfg.dt
            x = 0.5 * (pos[t, 0] + pos[t - 1, 0])
            k = int(np.argmin(np.abs(axis - wavesim.bistatic_doppler(cfg.geometry, x, v))))
            col = s[:, t]
            near.append(col[max(k - 1, 0): k + 2].max() >= 0.25 * col.max())
            flat.append(np.median(col) / col.max())
        if not (np.mean(near) >= 0.75 and np.median(flat) <= 0.25):
            return [f"S spectrogram does not follow the pelvis Doppler (near "
                    f"{np.mean(near):.2f}, column median/peak {np.median(flat):.2f})"]
        return []

    def record(self, i, result, arrays) -> dict:
        return {key: checks.fingerprint(arrays[key]) for key in ("pose", "vel", "S", "M", "D")}


# ---------------------------------------------------------------------------
# train: velocity and optimization-vector training rounds
# ---------------------------------------------------------------------------

class TrainWorkload(Workload):
    """One operation is a training round through the harness entry points:
    `train_velocity_model` then `train_opt_model`, each from its seeded
    initialization, on a small dataset that setup renders.

    The default config's 200-activity dataset has a train split of 45
    entries (5 per kind), so `vel_train` holds out 4 for validation and runs
    one batch of 41 per epoch. Setup renders 4 activities and lists them over
    and over in a train split of the same 45 entries, so the batches have
    the real size without rendering 45 activities.

    Every round computes the same thing, so every round's output must equal
    the first bit for bit.
    """

    name = "train"

    FULL = {"activities": 4, "train_entries": 45, "config": {
        "training.vel.epochs": 1, "training.opt.epochs": 1,
        "training.opt.n_pairs": 256}}
    TINY = {"activities": 2, "train_entries": 3, "config": {
        "dataset.duration_s": 2.0, "training.vel.epochs": 1,
        "training.opt.epochs": 1, "training.opt.n_pairs": 16,
        "training.opt.batch_size": 8, "training.opt.window": 10}}

    def setup(self):
        self.data = self.fresh_dir("train_data")
        k = self.seed % len(self.kinds)  # vary the kinds with the seed
        self.cfg = self.config({"seed": self.seed + 1,
                                "dataset.n_activities": self.sizes["activities"],
                                "dataset.kinds": self.kinds[k:] + self.kinds[:k]})
        manifest = harness.build_dataset(self.cfg, self.data)
        n = len(manifest["entries"])
        manifest["split"] = {"train": [j % n for j in range(self.sizes["train_entries"])],
                             "test": []}
        (self.data / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return self

    def pass_size(self) -> int:
        return 1

    def op(self, i: int):
        out = self.fresh_dir(f"round_{i}")
        vel = harness.train_velocity_model(self.cfg, self.data, out / "vel_model.dpc",
                                           out / "vel_history.csv")
        opt = harness.train_opt_model(self.cfg, self.data, out / "opt_model.dpc",
                                      out / "opt_history.csv")
        return {"dir": out, "vel": vel, "opt": opt}

    @staticmethod
    def _losses(path: Path) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return np.array([[float(r["train_loss"]), float(r["val_loss"])] for r in rows])

    def collect(self, result):
        out = result["dir"]
        arrays = {"vel_losses": self._losses(out / "vel_history.csv"),
                  "opt_losses": self._losses(out / "opt_history.csv")}
        for tag in ("vel", "opt"):
            for k, p in enumerate(result[tag].params()):
                arrays[f"{tag}_param{k}"] = p.data
        # The histories carry wall-clock columns; the checkpoints do not.
        files = _file_bytes(out, skip=("vel_history.csv", "opt_history.csv"))
        return arrays, checks.digest({**arrays, **files})

    def cleanup(self, result):
        shutil.rmtree(result["dir"], ignore_errors=True)

    def check(self, i: int, result, arrays, dig: str) -> list:
        fails = []
        for tag, epochs in (("vel", self.cfg.vel_train.epochs),
                            ("opt", self.cfg.opt_train_cfg.epochs)):
            losses = arrays[f"{tag}_losses"]
            fails += checks.shape(f"{tag} history", losses, (epochs, 2))
            if not (np.isfinite(losses).all() and (losses >= 0).all()):
                fails.append(f"{tag} losses are not finite and non-negative")
        for key, arr in arrays.items():
            fails += checks.finite(key, arr)
        out = result["dir"]
        for tag, cls in (("vel", velest.VelModel), ("opt", poseopt.OptModel)):
            loaded = cls.load(out / f"{tag}_model.dpc").params()
            if not all(np.array_equal(a.data, b.data)
                       for a, b in zip(loaded, result[tag].params())):
                fails.append(f"{tag} checkpoint does not reload to the trained weights")
        if not self.same_as_first("round", dig):
            fails.append("round output differs from the first round of this run")
        ref = self.reference(0)
        if ref is not None:
            for tag in ("vel", "opt"):
                got, want = arrays[f"{tag}_losses"], np.array(ref[f"{tag}_losses"])
                if got.shape != want.shape or not np.allclose(got, want, rtol=checks.LOSS_RTOL,
                                                              atol=0.0):
                    fails.append(f"{tag} losses {got.ravel().tolist()} differ from the "
                                 f"reference {want.ravel().tolist()}")
        return fails

    def record(self, i, result, arrays) -> dict:
        return {"vel_losses": arrays["vel_losses"].tolist(),
                "opt_losses": arrays["opt_losses"].tolist()}


# ---------------------------------------------------------------------------
# reconstruct: vel_forward + optimize_initial_pose + reconstruct_long_term
# ---------------------------------------------------------------------------

class ReconstructWorkload(Workload):
    """One operation is the `dopplerpose reconstruct` path on one entry and
    variant: velocity regression, initial-pose optimization, then long-term
    reconstruction with drift corrections every `period` frames.

    Setup renders one activity of each of the config's first three kinds and
    loads the pinned checkpoints in perfbench/checkpoints, so retraining
    never moves this workload's inputs. Operations cycle over (entry,
    variant) with variant M then D, the order `evaluate` uses; a repeated
    operation must reproduce its first output. A reconstruction makes about
    200 predictor calls (20 epochs x 2 calls x 5 optimizations; a halved
    step adds calls, up to 261 seen), so the work per operation barely
    depends on the entry.
    """

    name = "reconstruct"

    FULL = {"activities": 3, "config": {"optimization.period": 10,
                                        "optimization.max_epochs": 20}}
    TINY = {"activities": 1, "config": {"dataset.duration_s": 2.0,
                                        "optimization.period": 5,
                                        "optimization.max_epochs": 2}}

    def setup(self):
        data = self.fresh_dir("rec_data")
        self.cfg = self.config({"seed": self.seed + 1,
                                "dataset.n_activities": self.sizes["activities"]})
        harness.build_dataset(self.cfg, data)
        manifest = harness.load_manifest(data)
        # The pinned checkpoints never saw these activities: all are test entries.
        self.entries = [harness.load_entry(data, e) for e in manifest["entries"]]
        self.vel_model = velest.VelModel.load(CHECKPOINTS / "vel_model.dpc")
        self.opt_model = poseopt.OptModel.load(CHECKPOINTS / "opt_model.dpc")
        return self

    def pass_size(self) -> int:
        return 2 * len(self.entries)

    def op(self, i: int):
        pose, _vel, _s, m_spec, d_spec = self.entries[(i // 2) % len(self.entries)]
        spec = d_spec if i % 2 else m_spec
        cfg = self.cfg.opt_config
        est = velest.vel_forward(self.vel_model, spec)
        p0, trace = poseopt.optimize_initial_pose(self.opt_model, motion.t_pose(), est, cfg,
                                                  truth=pose.positions[0])
        rec = poseopt.reconstruct_long_term(self.opt_model, p0, est, cfg)
        return {"est": est, "p0": p0, "trace": trace, "rec": rec}

    def collect(self, result):
        arrays = {"est": result["est"].values, "p0": np.asarray(result["p0"]),
                  "trace": np.asarray(result["trace"], dtype=np.float64),
                  "rec": result["rec"].positions}
        return arrays, checks.digest(arrays)

    def check(self, i: int, result, arrays, dig: str) -> list:
        t_len = self.entries[0][0].positions.shape[0]
        period = self.cfg.opt_config.period
        fails = checks.shape("est", arrays["est"], (t_len, motion.N_JOINTS, 3))
        fails += checks.shape("p0", arrays["p0"], (motion.N_JOINTS, 3))
        fails += checks.shape("rec", arrays["rec"], (t_len, motion.N_JOINTS, 3))
        for key, arr in arrays.items():
            fails += checks.finite(key, arr)
        if fails:
            return fails
        trace = arrays["trace"]
        if len(trace) < 1 or (trace < 0).any():
            fails.append("initial-pose trace is empty or has negative errors")
        rec, est = arrays["rec"], arrays["est"]
        if not np.array_equal(rec[0], arrays["p0"]):
            fails.append("reconstruction does not start at the optimized pose")
        plain = [t for t in range(1, t_len) if not (t % period == 0 and t_len - t >= 2)]
        drift = np.abs(rec[plain] - (rec[[t - 1 for t in plain]] + est[plain] * self.cfg.dt))
        if plain and not drift.max() <= 1e-9:
            fails.append("frames between corrections do not follow the velocities")
        key = i % self.pass_size()
        if not self.same_as_first(key, dig):
            fails.append("repeated reconstruction differs from its first run")
        ref = self.reference(key)
        if ref is not None:
            for name in ("est", "p0", "trace", "rec"):
                fails += checks.compare_fingerprint(name, arrays[name], ref[name], 0.0,
                                                    checks.F32_NET_RTOL)
        return fails

    def record(self, i, result, arrays) -> dict:
        return {key: checks.fingerprint(arrays[key]) for key in ("est", "p0", "trace", "rec")}


WORKLOADS = {w.name: w for w in (DatasetWorkload, TrainWorkload, ReconstructWorkload)}
