#!/usr/bin/env python3
"""Time `wikilink pipeline` on the train-heavy corpus at given scales.

    python3 scripts/scale_probe.py [--src DIR] [SCALE ...]    # default scales: 40 160

For each scale, a child runs `bench/corpus.py` to write the seed-5
`train-heavy` corpus to a temporary directory, and another child runs
`python -m wikilink.cli pipeline ... --epochs 3 --batch-size 32` on it,
importing the package from `--src` (default: this checkout's `src/`).
One JSON line per scale: the scale, the pipeline child's wall and CPU
seconds, its own peak RSS in MiB (`ru_maxrss` from `os.wait4`), the
share of the model's 2^hash_bits + 4 slots that hold a stored weight
(read from `model.json`), and the SHA-256 of each of its five artifacts.

This process imports the standard library only. A child's `ru_maxrss`
starts from the RSS of the process that forked it, so a probe that
loaded numpy or the package would inflate every peak it reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv")
WORKLOAD, SEED, FLAGS = "train-heavy", 5, ("--epochs", "3", "--batch-size", "32")


def run(argv: list[str], env: dict | None = None) -> tuple[float, resource.struct_rusage]:
    """Run `argv` to completion; return its wall seconds and its rusage.
    A child that fails stops the probe with its stderr."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                     + err.read().decode("utf-8", "replace"))
    return wall, usage


def probe(scale: float, src: Path, tmp: Path) -> dict:
    inputs, out = tmp / "inputs", tmp / "out"
    run([sys.executable, str(ROOT / "bench" / "corpus.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--scale", str(scale), "--out", str(inputs)])
    wall, usage = run(
        [sys.executable, "-m", "wikilink.cli", "pipeline", "--nodes", str(inputs / "nodes.tsv"),
         "--train-pairs", str(inputs / "train.csv"), "--test-pairs", str(inputs / "test.csv"),
         "--output-dir", str(out), *FLAGS],
        dict(os.environ, PYTHONPATH=str(src)))
    with open(out / "model.json", encoding="utf-8") as f:
        model = json.load(f)
    return {
        "scale": scale,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "own_peak_mib": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
        # one gap per stored weight, and the dense block follows the hashed slots
        "filled_slot_share": round(
            len(model["gaps"]) / ((1 << model["config"]["hash_bits"]) + 4), 6),
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scales", nargs="*", type=float, default=[40.0, 160.0],
                        help="corpus scales (bench/corpus.py --scale)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the wikilink package")
    args = parser.parse_args()
    for scale in args.scales:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(probe(scale, args.src.resolve(), Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
