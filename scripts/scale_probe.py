#!/usr/bin/env python3
"""Time `wikilink pipeline`, phase by phase, on bench workload corpora at given scales.

    python3 scripts/scale_probe.py [--workload NAME|all] [--runs N] [--src DIR] [SCALE ...]

Defaults: `--workload train-heavy --runs 3 40 160`. For each workload and
scale, one child writes the seed-5 corpus (`bench/corpus.py`) to a
temporary directory and prints the workload's pipeline flags, and one
uncounted child imports `wikilink.cli` to warm the caches. Then N children
run the console script's body, `sys.exit(wikilink.cli.main())`, with
`pipeline` and those flags, one at a time, importing the package from
`--src` (default: this checkout's `src/`). Each child is stamped with
CLOCK_MONOTONIC, which every process shares:

- `first_line_s`: from spawn to the child's first line of Python;
- `import_s`: importing `wikilink.cli`;
- `main_s`: `main()`;
- `exit_s`: from `main()`'s return until this process has reaped the child.

One JSON line per workload and scale holds the median, q1 and q3 of each
phase, of the wall and CPU seconds (`wall_s`, `cpu_s`) and of the own
peak RSS in MiB (`own_peak_mib`, `ru_maxrss` from `os.wait4`); the share
of the model's 2^hash_bits + 4 slots that hold a stored weight
(`filled_slot_share`, read from `model.json`); the macro F1 of
`predictions.csv` against the test gold, which the corpus child writes
outside the pipeline's inputs (`macro_f1`, by `wikilink.evaluate`'s
formulas); and the SHA-256 of each of the five artifacts. A run whose
artifacts differ from the first run's stops the probe with a non-zero
exit. The probe does not pin the hash seed, so this also checks that the
artifacts do not depend on it.
Nothing is normalised for host speed.

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
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv")
PHASES = ("first_line_s", "import_s", "main_s", "exit_s")
SEED = 5
BENCH = dict(os.environ, PYTHONPATH=str(ROOT / "bench"))  # children that import bench/corpus.py
CORPUS = f"""import json, sys
from pathlib import Path
import corpus
name, scale, out, gold = sys.argv[1:]
data = corpus.generate(name, {SEED}, float(scale))
corpus.write_inputs(data, Path(out))
Path(gold).write_text(json.dumps(dict(zip(data.test_ids, data.test_gold))))
print(json.dumps(corpus.WORKLOADS[name].flags))
"""
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


def run(argv: list[str], env: dict) -> tuple[str, resource.struct_rusage, int, int]:
    """Run `argv` to completion; return its stdout, its rusage, and the
    CLOCK_MONOTONIC nanoseconds at which it was spawned and reaped. A child
    that fails stops the probe with its stderr."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"a child exited {proc.returncode}:\n" + err.read().decode("utf-8", "replace"))
        out.seek(0)
        return out.read().decode(), usage, start, end


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def macro_f1(predictions: Path, gold: dict[str, int]) -> float:
    """The mean over both classes of F1 with that class as the positive one,
    by the formulas of `wikilink.evaluate`, so the float is the same."""
    counts = {(y, yhat): 0 for y in (0, 1) for yhat in (0, 1)}  # (gold, predicted)
    lines = predictions.read_text().splitlines()[1:]  # after the header `id,prob,label`
    if len(lines) != len(gold):
        sys.exit(f"{predictions} holds {len(lines)} predictions for {len(gold)} test pairs")
    for pair_id, _, label in (line.split(",") for line in lines):
        counts[gold[pair_id], int(label)] += 1

    def f1(tp: int, fp: int, fn: int) -> float:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    return (f1(counts[0, 0], counts[1, 0], counts[0, 1])
            + f1(counts[1, 1], counts[0, 1], counts[1, 0])) / 2


def probe(name: str, scale: float, runs: int, env: dict, tmp: Path) -> dict:
    inputs, out, stamps, gold = tmp / "inputs", tmp / "out", tmp / "stamps", tmp / "gold.json"
    flags = json.loads(run([sys.executable, "-B", "-c", CORPUS, name, str(scale), str(inputs),
                            str(gold)], BENCH)[0])
    run([sys.executable, "-c", "import wikilink.cli"], env)  # warm the caches, uncounted
    argv = [sys.executable, "-c", CHILD, str(stamps), "pipeline",
            "--nodes", str(inputs / "nodes.tsv"), "--train-pairs", str(inputs / "train.csv"),
            "--test-pairs", str(inputs / "test.csv"), "--output-dir", str(out), *flags]
    samples, digests = [], []
    for _ in range(runs):
        _, usage, start, end = run(argv, env)
        t0, t1, t2 = map(int, stamps.read_text().split())
        spans = (t0 - start, t1 - t0, t2 - t1, end - t2, end - start)
        samples.append({**{key: ns / 1e9 for key, ns in zip(PHASES + ("wall_s",), spans)},
                        "cpu_s": usage.ru_utime + usage.ru_stime,
                        "own_peak_mib": usage.ru_maxrss / 1024})  # Linux reports KiB
        digests.append({artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                        for artifact in ARTIFACTS})
        if digests[-1] != digests[0]:
            sys.exit(f"{name} at scale {scale}: run {len(digests)} wrote other artifacts")
    model = json.loads((out / "model.json").read_bytes())
    return {
        "workload": name, "scale": scale, "runs": runs,
        **{key: quartiles([s[key] for s in samples]) for key in samples[0]},
        # one gap per stored weight, and the dense block follows the hashed slots
        "filled_slot_share": round(
            len(model["gaps"]) / ((1 << model["config"]["hash_bits"]) + 4), 6),
        "macro_f1": macro_f1(out / "predictions.csv", json.loads(gold.read_text())),
        "sha256": digests[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scales", nargs="*", type=float, default=[40.0, 160.0], metavar="SCALE",
                        help="corpus scales (bench/corpus.py --scale)")
    parser.add_argument("--workload", default="train-heavy", help="a bench workload, or all")
    parser.add_argument("--runs", type=int, default=3, help="timed children per corpus")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the wikilink package")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2: each figure reports quartiles")
    names = run([sys.executable, "-B", "-c", "import corpus; print(*corpus.WORKLOADS)"],
                BENCH)[0].split()
    if args.workload not in [*names, "all"]:
        parser.error(f"--workload must be all or one of: {', '.join(names)}")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name in names if args.workload == "all" else [args.workload]:
        for scale in args.scales:
            with tempfile.TemporaryDirectory() as tmp:
                print(json.dumps(probe(name, scale, args.runs, env, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
