"""Measurement loops, metric reduction and the result line.

`run_untraced` gives the end-to-end metrics: it sets the workload up, then
runs operations back to back for the requested seconds and reports the
median and tail operation time and the peak resident memory. It repeats the
setup at even intervals through those seconds and reports the median: the
host's speed drifts over tens of seconds, so setups spread over the run see
the same speeds as its operations, where setups made back to back at the
start would see only the first second's.

`run_traced` gives the per-layer metrics. It repeats a fixed pass of
operations; each operation runs once untraced and once traced (alternating
which goes first), and the two outputs must be bit-identical. The median
traced/untraced time ratio of these pairs, minus one, is the tracing
overhead. Counters are reported per pass and must repeat exactly from pass
to pass.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from .tracer import HOOK, LAYERS, TARGETS, Tracer
from .workloads import WORKLOADS

SETUP_REPEATS = 5

# Time bounds are wide because on the baseline host (2 vCPUs of a shared VM
# host) speed drifts by 10-30% over seconds to minutes; peak memory barely
# moves.
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [(f"{t[2]}.self_s", "s", "lower") for t in TARGETS] + [
    (f"{t[2]}.calls", "count", "lower") for t in TARGETS] + [
    ("vel_train_seqs_per_s", "1/s", "higher"),
    ("opt_train_pairs_per_s", "1/s", "higher"),
    ("caf.clean_residual_ratio", "ratio", "lower"),
    ("containers.write_container.bytes", "B", "lower"),
    ("containers.read_container.bytes", "B", "lower"),
    ("nncore.backward_us_per_frame", "us", "lower"),
    ("poseopt.epochs", "count", "lower"),
    ("poseopt.predictions_per_epoch", "1/epoch", "lower"),
    ("poseopt.drift_corrections", "count", "higher"),
] + [(f"layer.{m}.self_s", "s", "lower") for m in LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Integer counters that must repeat exactly from pass to pass.
_EXACT_COUNTERS = ("containers.write_container.bytes", "containers.read_container.bytes",
                   "poseopt.epochs", "nncore.train_frames", "velest.train_seqs",
                   "poseopt.train_pairs")


def tail(times):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, at percentile
    100 * (n - 10) / n. With 10 or fewer samples no percentile qualifies and
    the minimum is reported at percentile 0.
    """
    s = sorted(times)
    n = len(s)
    k = max(n - 10, 1)
    return s[k - 1], (100.0 * (n - 10) / n if n > 10 else 0.0), n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _attempt(wl, i: int, tracer: Tracer | None = None):
    """Run, time, collect and check operation i: (seconds, digest, failures)."""
    try:
        if tracer is None:
            result, dt = _timed(wl.op, i)
        else:
            with tracer.installed(), tracer.span("bench.op"):
                result, dt = _timed(wl.op, i)
        arrays, dig = wl.collect(result)
        fails = wl.check(i, result, arrays, dig)
        wl.cleanup(result)
    except Exception as exc:  # an operation that raises counts as failed
        return None, None, [f"op {i} raised {type(exc).__name__}: {exc}"]
    return dt, dig, [f"op {i}: {f}" for f in fails]


def run_untraced(name: str, seed: int, seconds: float, tmp: Path, *, tiny=False,
                 import_s: float = 0.0) -> dict:
    def set_up(k: int):
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, tmp / f"setup{k}", tiny=tiny).setup()
        return wl, time.perf_counter() - t0

    wl, first = set_up(0)
    setup_times = [first]
    times, failures, attempted, failed = [], [], 0, 0
    t_begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_begin
        if attempted and elapsed >= seconds:
            break
        k = len(setup_times)
        if attempted and k < SETUP_REPEATS and elapsed >= seconds * k / SETUP_REPEATS:
            setup_times.append(set_up(k)[1])
            shutil.rmtree(tmp / f"setup{k}", ignore_errors=True)
            continue
        dt, _dig, fails = _attempt(wl, attempted)
        attempted += 1
        if fails:
            failed += 1
            failures.extend(fails)
        else:
            times.append(dt)

    value, pct, n = tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s_p50": statistics.median(times) if times else 0.0,
        "op_s_tail": value,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics,
            "detail": {"setup_times": setup_times, "import_s": import_s,
                       "op_times": times, "tail_percentile": pct, "samples": n,
                       "measured_s": time.perf_counter() - t_begin}}


def run_traced(name: str, seed: int, seconds: float, tmp: Path, *, tiny=False) -> dict:
    wl = WORKLOADS[name](seed, tmp / "setup", tiny=tiny).setup()
    tracer = Tracer()
    failures, attempted, failed = [], 0, 0
    ratios, traced_s = [], 0.0  # traced / untraced seconds of each op pair
    passes = []  # per pass: {counter name: value}
    t_begin = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - t_begin + last <= seconds:
        p0, first_span = time.perf_counter(), len(tracer.spans)
        before = dict(tracer.counters)
        for i in range(wl.pass_size()):
            digests, seconds_by = {}, {}
            for traced in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
                dt, dig, fails = _attempt(wl, i, tracer if traced else None)
                attempted += 1
                if fails:
                    failed += 1
                    failures.extend(f"{'traced' if traced else 'untraced'} {f}" for f in fails)
                    continue
                digests[traced], seconds_by[traced] = dig, dt
            if len(digests) == 2:
                ratios.append(seconds_by[True] / seconds_by[False])
                traced_s += seconds_by[True]
                if digests[True] != digests[False]:
                    failed += 1
                    failures.append(f"op {i}: traced output differs from untraced output")
        pass_counters = {f"{k}.calls": c
                         for k, (_s, c) in tracer.self_times(first_span).items()}
        for key in _EXACT_COUNTERS:
            pass_counters[key] = tracer.counters.get(key, 0.0) - before.get(key, 0.0)
        pass_counters["poseopt.drift_corrections"] = tracer.count_children(
            "poseopt.optimize_initial_pose", "poseopt.reconstruct_long_term", first_span)
        passes.append(pass_counters)
        last = time.perf_counter() - p0
    run_failures = []
    if any(p != passes[0] for p in passes[1:]):
        run_failures.append("counters differ between passes of identical operations")

    n_pass = len(passes)
    st = tracer.self_times()
    c = tracer.counters
    metrics = {}
    for key, _unit, _better in PER_LAYER:
        if key.endswith(".self_s") and not key.startswith("layer."):
            metrics[key] = st.get(key[:-len(".self_s")], (0.0, 0))[0] / n_pass
        elif key.endswith(".calls"):
            metrics[key] = passes[0].get(key, 0)
    for m in LAYERS:
        metrics[f"layer.{m}.self_s"] = sum(s for k, (s, _n) in st.items()
                                           if k.split(".")[0] == m) / n_pass
    before_e = c.get("caf.clean_dsi.energy_before", 0.0)
    metrics["caf.clean_residual_ratio"] = (c.get("caf.clean_dsi.energy_after", 0.0) / before_e
                                           if before_e else 0.0)
    for key in ("containers.write_container.bytes", "containers.read_container.bytes",
                "poseopt.epochs", "poseopt.drift_corrections"):
        metrics[key] = passes[0].get(key, 0)
    for key, counter, span in (("vel_train_seqs_per_s", "velest.train_seqs", "velest.vel_train"),
                               ("opt_train_pairs_per_s", "poseopt.train_pairs",
                                "poseopt.opt_train")):
        busy = tracer.inclusive(span)
        metrics[key] = c.get(counter, 0.0) / busy if busy else 0.0
    frames = c.get("nncore.train_frames", 0.0)
    metrics["nncore.backward_us_per_frame"] = (
        st.get("nncore.Tensor.backward", (0.0, 0))[0] / frames * 1e6 if frames else 0.0)
    epochs = passes[0]["poseopt.epochs"]
    metrics["poseopt.predictions_per_epoch"] = (
        passes[0].get("poseopt.OptModel.opt_vectors.calls", 0) / epochs if epochs else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1.0 if ratios else 0.0

    layer_s = {m: metrics[f"layer.{m}.self_s"] for m in LAYERS}
    op_s = st.get("bench.op", (0.0, 0))
    return {"attempted": attempted, "failed": failed,
            "failures": run_failures + failures, "metrics": metrics, "tracer": tracer,
            "detail": {"passes": n_pass, "ops_per_pass": wl.pass_size(),
                       "largest_layer": max(layer_s, key=layer_s.get),
                       "layer_self_s": layer_s,
                       "unattributed_s": op_s[0] / n_pass,
                       "hook_s": st.get(HOOK, (0.0, 0))[0] / n_pass,
                       "traced_op_s": traced_s / n_pass,
                       "measured_s": time.perf_counter() - t_begin}}


def result_line(res: dict, trace: bool) -> str:
    units = {k: u for k, u, *_ in (PER_LAYER if trace else END_TO_END)}
    return json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]} for k in units},
    })


def report(res: dict, trace: bool, out=sys.stderr) -> None:
    d = res["detail"]
    if trace:
        print(f"largest layer self time: {d['largest_layer']} "
              f"({d['layer_self_s'][d['largest_layer']]:.3f} s per pass of "
              f"{d['ops_per_pass']} ops, traced op time {d['traced_op_s']:.3f} s)", file=out)
        print(f"trace overhead ratio {res['metrics']['trace.overhead_ratio']:.4f} over "
              f"{d['passes']} passes", file=out)
    else:
        print(f"{d['samples']} ops, p50 {res['metrics']['op_s_p50']:.4f} s, tail "
              f"p{d['tail_percentile']:.0f} {res['metrics']['op_s_tail']:.4f} s, setup "
              f"{res['metrics']['setup_s']:.3f} s", file=out)
    for f in res["failures"][:20]:
        print(f"FAILED {f}", file=out)
