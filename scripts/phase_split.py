#!/usr/bin/env python3
"""Split each `wikilink pipeline` process into its fixed-cost phases.

    python3 scripts/phase_split.py [--src DIR] [--runs N] [--seed S] [--workload NAME]

For each bench workload (`--workload`, default all), writes its corpus
(`bench/corpus.py`) to a temporary directory and runs N pipeline
children with the workload's flags, one at a time, importing the package
from `--src` (default: this checkout's `src/`). A child is the console
script's body, `sys.exit(wikilink.cli.main())` with the arguments in
`sys.argv`, stamped with CLOCK_MONOTONIC, which every process shares:

- `first_line_s`: from spawn to the child's first line of Python;
- `import_s`: importing `wikilink.cli`;
- `main_s`: `main()`;
- `exit_s`: from `main()`'s return until this process has reaped the child.

One JSON line per workload holds each phase's median and quartiles, in
seconds, and the median wall time. Nothing is normalised for host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import corpus  # noqa: E402

PHASES = ("first_line_s", "import_s", "main_s", "exit_s")
CHILD = """import time
t0 = time.monotonic_ns()
import sys
import wikilink.cli
t1 = time.monotonic_ns()
stamps, sys.argv = sys.argv[1], ["wikilink", *sys.argv[2:]]
try:
    status = wikilink.cli.main()
finally:
    with open(stamps, "w") as f:
        f.write(f"{t0} {t1} {time.monotonic_ns()}")
sys.exit(status)
"""


def one_run(argv: list[str], env: dict, stamps: Path) -> dict:
    start = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(stamps), *argv], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = proc.communicate()[1]
    end = time.monotonic_ns()
    if proc.returncode != 0:
        sys.exit(f"pipeline exited {proc.returncode}:\n" + err.decode("utf-8", "replace"))
    t0, t1, t2 = map(int, stamps.read_text().split())
    return dict(zip(PHASES + ("wall_s",), (x / 1e9 for x in
                                           (t0 - start, t1 - t0, t2 - t1, end - t2, end - start))))


def split(name: str, seed: int, runs: int, env: dict, tmp: Path) -> dict:
    inputs = corpus.write_inputs(corpus.generate(name, seed), tmp / "inputs")
    argv = ["pipeline", "--nodes", str(inputs["nodes.tsv"]),
            "--train-pairs", str(inputs["train.csv"]), "--test-pairs", str(inputs["test.csv"]),
            "--output-dir", str(tmp / "out"), *corpus.WORKLOADS[name].flags]
    one_run(argv, env, tmp / "stamps")  # warm the page cache
    samples = [one_run(argv, env, tmp / "stamps") for _ in range(runs)]
    result: dict = {"workload": name, "seed": seed, "runs": runs}
    for key in PHASES:
        q1, median, q3 = statistics.quantiles([s[key] for s in samples], n=4,
                                              method="inclusive")
        result[key] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    result["wall_s"] = round(statistics.median(s["wall_s"] for s in samples), 4)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"], default="all")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the wikilink package")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2: each phase reports quartiles")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), PYTHONHASHSEED=str(args.seed))
    for name in corpus.WORKLOADS if args.workload == "all" else [args.workload]:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(split(name, args.seed, args.runs, env, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
