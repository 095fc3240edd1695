"""Record the reference fingerprints the benchmark checks outputs against.

    python3 perfbench/record_reference.py --commit <id> [--seeds 0-19]

Run from the repository root at the commit whose outputs are the reference.
For each seed it runs every workload's first operations (the invariant
checks must pass) and writes perfbench/reference/<workload>.json. Running it
again at a later commit would move the reference; do that only on purpose.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Operations recorded per seed: one cycle of the nine kinds for dataset (its
# operations all differ; later ones get the invariant checks only), one
# round for train (rounds repeat) and one pass of reconstruct (3 entries x
# M, D).
OPS = {"dataset": 9, "train": 1, "reconstruct": 6}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit id recorded in the files")
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=ROOT))
    try:
        for name in OPS:
            data = {"recorded_at": args.commit, "seeds": {}}
            for seed in _seeds(args.seeds):
                wl = WORKLOADS[name](seed, tmp / f"{name}-{seed}")
                wl.refs = None
                wl.setup()
                ops = []
                for i in range(OPS[name]):
                    result = wl.op(i)
                    arrays, dig = wl.collect(result)
                    fails = wl.check(i, result, arrays, dig)
                    if fails:
                        print(f"{name} seed {seed} op {i}: {fails}", file=sys.stderr)
                        return 1
                    ops.append(wl.record(i, result, arrays))
                    wl.cleanup(result)
                data["seeds"][str(seed)] = ops
                print(f"{name} seed {seed}: {len(ops)} ops", file=sys.stderr, flush=True)
            (checks.REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
