"""Outside-in tracing: wrap public functions of the dopplerpose modules.

Nothing in the program knows it is traced. `Tracer.installed()` replaces each
target function by a wrapper and rebinds every name under which a loaded
`dopplerpose` module can reach it (for example `harness` imports
`synthesize_surveillance` by name, and `caf.spectrogram_pipeline` calls
`compute_caf` through its module globals). Methods are replaced on their
class. Leaving the context restores every original object, so untraced code
runs the program exactly as shipped.

Each call records a span: name, start, end and parent span. Spans stay in
memory until `write_jsonl` at the end of a run. A layer's self time is its
span duration minus the time covered by its direct child spans.

Some wrappers also run a hook after the call to derive a counter from the
call's inputs and outputs (bytes written, CLEAN residual energy, optimizer
epochs, training frames and samples). Hook time is recorded as a `trace.hook`
child span, so it is excluded from the parent's self time and from every
layer total.

A target that no longer exists makes `install` raise (after restoring what
it had patched), and a hook that no longer fits its function's signature
raises from the traced call: either fails the traced operation, so a program
change that moves a target is met by a deliberate update of `TARGETS`, not by
per-layer figures that silently read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

HOOK = "trace.hook"


def _hook_write_container(tr, args, kwargs, result):
    tr.count("containers.write_container.bytes", os.path.getsize(args[0]))


def _hook_read_container(tr, args, kwargs, result):
    tr.count("containers.read_container.bytes", os.path.getsize(args[0]))


def _zero_doppler_energy(caf_map) -> float:
    import numpy as np

    m0 = int(np.argmin(np.abs(caf_map.doppler_axis)))
    col = caf_map.grid[:, m0]
    return float(np.sum(col.real ** 2 + col.imag ** 2))


def _hook_clean_dsi(tr, args, kwargs, result):
    tr.count("caf.clean_dsi.energy_before", _zero_doppler_energy(args[0]))
    tr.count("caf.clean_dsi.energy_after", _zero_doppler_energy(result))


def _hook_optimize_initial_pose(tr, args, kwargs, result):
    trace = result[1]
    with_truth = kwargs.get("truth") is not None
    tr.count("poseopt.epochs", len(trace) - (1 if with_truth else 0))


def _hook_vel_train(tr, args, kwargs, result):
    dataset, cfg = args[1], args[2]
    n_val = int(round(len(dataset) * cfg.val_fraction))
    tr.count("velest.train_seqs", (len(dataset) - n_val) * cfg.epochs)


def _hook_opt_train(tr, args, kwargs, result):
    tr.count("poseopt.train_pairs", kwargs["n_pairs"] * args[2].epochs)


def _hook_train_frames(tr, args, kwargs, result):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    if training:
        b, t_len = args[1].data.shape[:2]
        tr.count("nncore.train_frames", b * t_len)


# (module, attribute path, span name, hook). The span name is
# "<layer>.<function>", the layer being the dopplerpose module.
TARGETS = [
    ("dopplerpose.motion", "generate_activity", "motion.generate_activity", None),
    ("dopplerpose.motion", "differentiate", "motion.differentiate", None),
    ("dopplerpose.motion", "integrate", "motion.integrate", None),
    ("dopplerpose.wavesim", "generate_waveform", "wavesim.generate_waveform", None),
    ("dopplerpose.wavesim", "synthesize_reference", "wavesim.synthesize_reference", None),
    ("dopplerpose.wavesim", "synthesize_surveillance", "wavesim.synthesize_surveillance",
     None),
    ("dopplerpose.caf", "compute_caf", "caf.compute_caf", None),
    ("dopplerpose.caf", "self_caf", "caf.self_caf", None),
    ("dopplerpose.caf", "clean_dsi", "caf.clean_dsi", _hook_clean_dsi),
    ("dopplerpose.caf", "assemble_spectrogram", "caf.assemble_spectrogram", None),
    ("dopplerpose.caf", "spectrogram_pipeline", "caf.spectrogram_pipeline", None),
    ("dopplerpose.denoise", "denoise", "denoise.denoise", None),
    ("dopplerpose.containers", "write_container", "containers.write_container",
     _hook_write_container),
    ("dopplerpose.containers", "read_container", "containers.read_container",
     _hook_read_container),
    ("dopplerpose.nncore.tensor", "Tensor.backward", "nncore.Tensor.backward", None),
    ("dopplerpose.nncore.layers", "LSTM.__call__", "nncore.LSTM", None),
    ("dopplerpose.nncore.layers", "Conv1d.__call__", "nncore.Conv1d", None),
    ("dopplerpose.nncore.layers", "BatchNorm1d.__call__", "nncore.BatchNorm1d", None),
    ("dopplerpose.nncore.layers", "Linear.__call__", "nncore.Linear", None),
    ("dopplerpose.nncore.optim", "Adam.step", "nncore.Adam.step", None),
    ("dopplerpose.velest", "VelModel.forward", "velest.VelModel.forward",
     _hook_train_frames),
    ("dopplerpose.velest", "vel_forward", "velest.vel_forward", None),
    ("dopplerpose.velest", "vel_train", "velest.vel_train", _hook_vel_train),
    ("dopplerpose.poseopt", "OptModel.forward", "poseopt.OptModel.forward",
     _hook_train_frames),
    ("dopplerpose.poseopt", "OptModel.opt_vectors", "poseopt.OptModel.opt_vectors", None),
    ("dopplerpose.poseopt", "build_training_pairs", "poseopt.build_training_pairs", None),
    ("dopplerpose.poseopt", "opt_train", "poseopt.opt_train", _hook_opt_train),
    ("dopplerpose.poseopt", "optimize_initial_pose", "poseopt.optimize_initial_pose",
     _hook_optimize_initial_pose),
    ("dopplerpose.poseopt", "reconstruct_long_term", "poseopt.reconstruct_long_term", None),
]

LAYERS = ("motion", "wavesim", "caf", "denoise", "containers", "nncore", "velest",
          "poseopt")


class Tracer:
    """Span and counter recorder that patches the program from outside."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []       # index -> (name, start, end, parent index or -1)
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []       # (module or class, attribute, original)

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = self.clock()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, t0, self.clock(), parent)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, clock = tracer.spans, tracer._stack, tracer.clock
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                h = len(spans)
                spans.append(None)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    spans[h] = (HOOK, t1, clock(), parent)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dopplerpose" or n.startswith("dopplerpose."))]
        for mod_name, attr, name, hook in self.targets:
            cls_name, _, key = attr.rpartition(".")
            holder = sys.modules.get(mod_name)
            if cls_name:
                holder = getattr(holder, cls_name, None)
            original = vars(holder).get(key) if holder is not None else None
            if not callable(original):
                self.uninstall()
                raise LookupError(f"trace target {name} ({mod_name}.{attr}) is not in "
                                  f"the program; update perfbench/tracer.py TARGETS")
            if cls_name:
                self._undo.append((holder, key, original))
                setattr(holder, key, self._wrap(original, name, hook))
                continue
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------------

    def self_times(self, first: int = 0):
        """{span name: (self seconds, calls)} over spans[first:]."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= first:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, t0, t1, _parent) in enumerate(spans, start=first):
            entry = out[name]
            entry[0] += (t1 - t0) - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def inclusive(self, name: str) -> float:
        """Summed duration of the `name` spans (children included)."""
        return sum(t1 - t0 for n, t0, t1, _p in self.spans if n == name)

    def count_children(self, child: str, parent: str, first: int = 0) -> int:
        """Number of `child` spans in spans[first:] whose parent is a `parent` span."""
        spans = self.spans
        return sum(1 for name, _t0, _t1, p in spans[first:]
                   if name == child and p >= 0 and spans[p][0] == parent)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
