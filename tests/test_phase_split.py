"""The phase split of `scripts/scale_probe.py`, run as it is on one workload
with two children."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("first_line_s", "import_s", "main_s", "exit_s")


def test_one_workload_prints_every_phase():
    proc = subprocess.run([sys.executable, "-B", str(ROOT / "scripts" / "scale_probe.py"),
                           "--src", str(ROOT / "src"), "--workload", "train-heavy",
                           "--runs", "2", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line, = proc.stdout.splitlines()
    result = json.loads(line)
    assert {*PHASES, "wall_s"} <= set(result)
    assert (result["workload"], result["scale"], result["runs"]) == ("train-heavy", 1.0, 2)
    for phase in PHASES:
        stats = result[phase]
        assert 0 < stats["q1"] <= stats["median"] <= stats["q3"], phase
    # Of two runs the median is the mean, so the phases' medians add up to the wall time's.
    assert abs(sum(result[phase]["median"] for phase in PHASES)
               - result["wall_s"]["median"]) < 1e-3
