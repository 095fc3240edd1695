"""Benchmark entry point.

    python3 perfbench/run.py --workload {dataset,train,reconstruct} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports `dopplerpose` from
./src and reads configs/default.json. It sets single-threaded BLAS before
numpy is imported, writes scratch files under .perfbench_tmp/ (removed on
exit) and a summary (plus, when traced, the spans as JSONL) under
.perfbench_out/. Human-readable notes go to stderr; the last line of stdout
is the JSON result. Exit status is 0 after a completed run (even one whose
checks failed: `correct` says so), 2 when the program or its inputs are
missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Deterministic BLAS rounding: the pose optimizer's halving decisions
# depend on it. One thread also keeps runs independent of other processes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _load_program():
    """Import dopplerpose from this checkout's src/ and the benchmark package."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(src))
    import dopplerpose

    if src not in Path(dopplerpose.__file__).resolve().parents:
        raise ImportError(f"dopplerpose was imported from {dopplerpose.__file__}, "
                          f"not from {src}")
    from perfbench import bench, workloads

    for needed in (workloads.CONFIG, workloads.CHECKPOINTS / "vel_model.dpc",
                   workloads.CHECKPOINTS / "opt_model.dpc"):
        if not needed.is_file():
            raise FileNotFoundError(f"missing benchmark input {needed}")
    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dopplerpose benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["dataset", "train", "reconstruct"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bench = _load_program()
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res = bench.run_traced(args.workload, args.seed, args.seconds, tmp)
        else:
            res = bench.run_untraced(args.workload, args.seed, args.seconds, tmp,
                                     import_s=import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out_dir.mkdir(exist_ok=True)
    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{tag}.spans.jsonl")
    (out_dir / f"{tag}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    bench.report(res, bool(args.trace))
    print(bench.result_line(res, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
