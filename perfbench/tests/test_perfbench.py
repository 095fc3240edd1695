"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, checks
from perfbench.tracer import TARGETS, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)

COUNTERS = ("poseopt.epochs", "poseopt.drift_corrections", "caf.compute_caf.calls",
            "containers.write_container.bytes", "containers.read_container.bytes")


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name, tmp_path):
    res = bench.run_untraced(name, 3, 0.0, tmp_path, tiny=True)
    assert res["failures"] == []
    assert res["attempted"] == 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m[0] for m in bench.END_TO_END}
    assert all(v > 0 for v in res["metrics"].values())
    line = json.loads(bench.result_line(res, trace=False))
    assert line["correct"] is True


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_are_transparent_and_repeat_counters(name, tmp_path):
    # Each traced run compares every traced output with the untraced one bit
    # for bit and fails the run on any difference.
    runs = [bench.run_traced(name, 4, 0.0, tmp_path / str(k), tiny=True) for k in range(2)]
    for res in runs:
        assert res["failures"] == []
        assert set(res["metrics"]) == {m[0] for m in bench.PER_LAYER}
    first, second = (r["metrics"] for r in runs)
    counted = [k for k in first if k.endswith(".calls") or k in COUNTERS]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    layer = runs[0]["detail"]["largest_layer"]
    assert runs[0]["detail"]["layer_self_s"][layer] > 0
    if name == "reconstruct":
        assert first["poseopt.drift_corrections"] > 0
        assert first["poseopt.OptModel.opt_vectors.calls"] > 0
    if name == "dataset":
        assert first["caf.compute_caf.calls"] > 0
        assert 0 < first["caf.clean_residual_ratio"] < 1
    if name == "train":
        assert first["nncore.backward_us_per_frame"] > 0


def test_tracer_restores_every_original():
    import dopplerpose.harness as harness
    import dopplerpose.nncore.layers as layers

    before = (harness.synthesize_surveillance, layers.LSTM.__dict__["__call__"])
    tracer = Tracer()
    with tracer.installed():
        assert harness.synthesize_surveillance is not before[0]
        assert harness.synthesize_surveillance.__wrapped__ is before[0]
        assert layers.LSTM.__dict__["__call__"] is not before[1]
    assert (harness.synthesize_surveillance, layers.LSTM.__dict__["__call__"]) == before
    assert len({t[2] for t in TARGETS}) == len(TARGETS)


@pytest.mark.parametrize("attr", ["no_such_function", "NoClass.method"])
def test_tracer_refuses_targets_the_program_lacks(attr):
    import dopplerpose.motion as motion

    before = motion.integrate
    tracer = Tracer(targets=[("dopplerpose.motion", "integrate", "motion.integrate", None),
                             ("dopplerpose.motion", attr, "motion.gone", None)])
    with pytest.raises(LookupError, match="motion.gone"):
        tracer.install()
    assert motion.integrate is before


def test_a_failing_hook_fails_the_traced_call():
    import dopplerpose.motion as motion

    def hook(tr, args, kwargs, result):
        raise KeyError("gone")

    tracer = Tracer(targets=[("dopplerpose.motion", "t_pose", "motion.t_pose", hook)])
    with tracer.installed(), pytest.raises(KeyError):
        motion.t_pose()
    assert [s[0] for s in tracer.spans] == ["motion.t_pose", "trace.hook"]


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    st = tracer.self_times()
    assert st["outer"] == (8.0, 1) and st["inner"] == (2.0, 1)


def test_tail_has_ten_samples_beyond():
    times = list(range(1, 41))
    value, pct, n = bench.tail(times)
    assert value == 30 and n == 40 and pct == 75.0
    assert sum(t > value for t in times) == 10


def test_fingerprint_tolerance():
    rng = np.random.default_rng(0)
    ref = checks.fingerprint(rng.random((81, 50)))
    same = np.random.default_rng(0).random((81, 50))
    assert checks.compare_fingerprint("x", same + 5e-10, ref, 1e-9) == []
    moved = same.copy()
    moved[3, 4] += 1e-3
    assert checks.compare_fingerprint("x", moved, ref, 1e-9) != []


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in bench.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dataset",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
