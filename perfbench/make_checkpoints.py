"""Train the pinned checkpoints that the `reconstruct` workload loads.

Runs the CLI stages build-dataset, train-vel and train-opt under
configs/default.json, single-threaded, and copies the two checkpoints plus a
provenance note into perfbench/checkpoints/. Run it from the repository root:

    python3 perfbench/make_checkpoints.py --workdir <scratch dir>

The scratch dir receives the 200-activity dataset (about 25 MB) and the
training histories; only the checkpoints and the note are kept. Takes about
ten minutes on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dopplerpose import cli  # noqa: E402

CONFIG = ROOT / "configs" / "default.json"
OUT = Path(__file__).resolve().parent / "checkpoints"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for the dataset and histories")
    parser.add_argument("--commit", default="unknown",
                        help="commit id of the source tree, recorded in the note")
    args = parser.parse_args()
    work = Path(args.workdir)
    data, models = work / "dataset", work / "models"
    stages = [
        ["build-dataset", "--config", str(CONFIG), "--out", str(data)],
        ["train-vel", "--config", str(CONFIG), "--data", str(data), "--out", str(models)],
        ["train-opt", "--config", str(CONFIG), "--data", str(data), "--out", str(models)],
    ]
    seconds = {}
    for argv in stages:
        t0 = time.perf_counter()
        status = cli.main(argv)
        seconds[argv[0]] = round(time.perf_counter() - t0, 1)
        if status != 0:
            print(f"stage {argv[0]} failed with status {status}", file=sys.stderr)
            return status

    OUT.mkdir(parents=True, exist_ok=True)
    note = {
        "made_by": "python3 perfbench/make_checkpoints.py --workdir <dir>",
        "source_commit": args.commit,
        "config": "configs/default.json",
        "config_sha256": _sha256(CONFIG),
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stage_seconds": seconds,
        "files": {},
    }
    for name, hist in (("vel_model.dpc", "vel_history.csv"),
                       ("opt_model.dpc", "opt_history.csv")):
        shutil.copyfile(models / name, OUT / name)
        last = (models / hist).read_text(encoding="utf-8").strip().splitlines()[-1]
        note["files"][name] = {"sha256": _sha256(OUT / name),
                               "last_history_row": last}
    (OUT / "provenance.json").write_text(json.dumps(note, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps(note, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
