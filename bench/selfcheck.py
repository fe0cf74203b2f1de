"""Tiny-size self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload at a small scale, untraced and traced, and fails
unless each run is correct and reports every metric BENCHMARK.json names,
with the unit it declares. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.5"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
                "--seed", "7", "--seconds", "0", "--trace", trace, "--scale", SCALE]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"--trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            problems.append(f"--trace {trace}: not correct\n{proc.stdout}")
        for workload in workloads:
            for metric in spec[group]:
                got = result["metrics"].get(f"{workload}/{metric['name']}")
                if got is None:
                    problems.append(f"--trace {trace}: {workload} lacks {metric['name']}")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"--trace {trace}: {workload} {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
