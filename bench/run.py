"""Pipeline benchmark for `wikilink pipeline`.

    python3 bench/run.py --workload train-heavy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each run generates one workload's inputs from the seed
(bench/corpus.py), then repeats closed-loop `wikilink pipeline`
subprocesses, one at a time from this single-threaded process, until
`--seconds` have passed (at least two runs). Every run's outputs are
checked; a run that exits non-zero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics: wall_norm_s and cpu_norm_s
of the children (CPU from each child's own rusage via os.wait4), the
median peak_rss_mib, setup_s (a fresh interpreter importing
wikilink.cli, once before each child and at least SETUP_SAMPLES times),
macro_f1 against the gold labels the benchmark keeps, and model_mib.

The speed of a shared host drifts by a fifth or more over minutes, so
the times are normalised. A fixed reference kernel is timed before each
set-up sample and before and after each child (each a mean of
REFERENCE_REPEATS). wall_norm_s is the run's mean child wall time times
REFERENCE_NOMINAL_S / the mean reference time, and likewise cpu_norm_s;
setup_s is the median of set-up samples normalised one by one. They
read as seconds on a host where the kernel takes REFERENCE_NOMINAL_S.
The raw medians are printed too.

--trace 1 alternates untraced runs with traced in-process runs
(bench/tracer.py) and reports the per-layer metrics, medians over the
traced runs.

All child processes run with one fixed PYTHONHASHSEED derived from the
seed, because the program's model.json and predictions.csv bytes depend
on the hash seed. With --trace 1, a last probe run with another hash
seed reports whether the artifacts still match; its verdict is printed,
not counted.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Nothing here pins CPUs or drops caches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
ARTIFACTS = ("model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
REFERENCE_NOMINAL_S = 0.025  # about the kernel's mean time on a 2 GHz Xeon vCPU
REFERENCE_REPEATS = 4

# name -> (unit, better)
END_TO_END = {
    "wall_norm_s": ("s", "lower"),
    "cpu_norm_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "macro_f1": ("score", "higher"),
    "model_mib": ("MiB", "lower"),
}
PER_LAYER = {
    "textclean.clean_s": ("s", "lower"),
    "textclean.balance_s": ("s", "lower"),
    "textclean.debrace_s": ("s", "lower"),
    "textclean.depunct_s": ("s", "lower"),
    "textclean.despace_s": ("s", "lower"),
    "textclean.chars_in": ("count", "lower"),
    "textclean.chars_removed_debrace": ("count", "lower"),
    "dataset.parse_nodes_s": ("s", "lower"),
    "dataset.node_rows_parsed": ("count", "lower"),
    "dataset.parse_pairs_s": ("s", "lower"),
    "dataset.join_s": ("s", "lower"),
    "pairs.build_s": ("s", "lower"),
    "pairs.pairs_built": ("count", "lower"),
    "pairs.truncated_side_frac": ("ratio", "lower"),
    "pairs.write_prepared_s": ("s", "lower"),
    "baseline.train_s": ("s", "lower"),
    "baseline.featurize_s": ("s", "lower"),
    "baseline.featurize_calls": ("count", "lower"),
    "baseline.nnz_per_pair": ("count", "lower"),
    "baseline.loss_grad_s": ("s", "lower"),
    "baseline.adamw_s": ("s", "lower"),
    "baseline.adamw_steps": ("count", "lower"),
    "baseline.fnv_calls": ("count", "lower"),
    "baseline.fnv_s": ("s", "lower"),
    "baseline.hash_key_distinct_frac": ("ratio", "higher"),
    "baseline.predict_s": ("s", "lower"),
    "baseline.load_model_s": ("s", "lower"),
    "baseline.save_model_s": ("s", "lower"),
    "evaluate.write_predictions_s": ("s", "lower"),
    "evaluate.read_predictions_s": ("s", "lower"),
    "evaluate.emit_submission_s": ("s", "lower"),
    "cli.pipeline_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


_REF_WORDS = [f"w{i * 7919 % 5000}" + ",."[i % 3:] for i in range(12000)]
_REF_ARRAYS = (np.linspace(0.0, 1.0, 2**18), np.zeros(2**18))


def reference_kernel() -> int:
    """Fixed work in the program's two styles: token loops and numpy passes."""
    counts: dict[str, int] = {}
    h = 0
    for word in _REF_WORDS:
        token = word.strip(",.")
        counts[token] = counts.get(token, 0) + 1
        for byte in token.encode():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    x, y = _REF_ARRAYS
    for _ in range(16):
        y *= 0.5
        y += x * 0.25
    return h ^ len(counts)


def reference_seconds() -> float:
    """Mean time of REFERENCE_REPEATS reference kernels.

    A mean, not a median: the host flips between a fast and a slow state
    within tens of milliseconds, and the mean weighs the two as a child
    running seconds would.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_kernel()
    return (time.perf_counter() - start) / REFERENCE_REPEATS


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def run_child(argv: list[str], env: dict, log_path: Path | None = None):
    """Spawn, wait with os.wait4, and return (exit code, wall s, rusage)."""
    out = open(log_path, "w") if log_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT if log_path else out)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage
    finally:
        if log_path:
            out.close()


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def setup_seconds(env: dict) -> float:
    """Wall seconds for a fresh interpreter to import wikilink.cli."""
    code, wall, _ = run_child([sys.executable, "-c", "import wikilink.cli"], env)
    if code != 0:
        raise SystemExit(f"importing wikilink.cli failed with exit code {code}")
    return wall


class Checker:
    """Checks one pipeline run's artifacts against what the generator knows."""

    def __init__(self, wl: corpus.Workload, data: corpus.Corpus):
        from wikilink import dataset, evaluate

        self.evaluate = evaluate
        self.wl = wl
        self.data = data
        self.gold = [dataset.PairRecord(i, 0, 0, y) for i, y in zip(data.test_ids, data.test_gold)]
        self.reference: dict[str, str] | None = None

    def check(self, out: Path) -> tuple[list[str], dict]:
        failures: list[str] = []
        digests = {}
        for name in ARTIFACTS:
            path = out / name
            if not path.is_file():
                failures.append(f"{name} missing")
                continue
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if failures:
            return failures, {}
        if (out / "nodes.clean.tsv").read_text(encoding="utf-8") != self.data.clean_tsv:
            failures.append("nodes.clean.tsv differs from the generator's clean text")
        if (out / "prepared.tsv").read_text(encoding="utf-8") != self.data.prepared_tsv:
            failures.append("prepared.tsv differs from the generator's clean tokens")

        sub = (out / "submission.csv").read_text(encoding="utf-8").splitlines()
        sub_rows = [line.split(",") for line in sub[1:]]
        if sub[:1] != ["id,label"]:
            failures.append("submission.csv header is not id,label")
        if [r[0] for r in sub_rows] != self.data.test_ids:
            failures.append("submission.csv rows are not the test pairs in input order")

        pred = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in pred[1:]]
        if [r[0] for r in rows] != self.data.test_ids:
            failures.append("predictions.csv rows are not the test pairs in input order")
        for pair_id, prob, label in rows:
            p = float(prob)
            if not (math.isfinite(p) and 0.0 < p < 1.0):
                failures.append(f"probability {prob} of {pair_id} is outside (0, 1)")
                break
            if label != str(int(p >= self.wl.threshold)):
                failures.append(f"label of {pair_id} disagrees with threshold {self.wl.threshold}")
                break
        if [r[1] for r in sub_rows] != [r[2] for r in rows]:
            failures.append("submission.csv labels differ from predictions.csv")

        with open(out / "predictions.csv", encoding="utf-8") as handle:
            predictions = list(self.evaluate.read_predictions(handle))
        f1 = self.evaluate.macro_f1(self.evaluate.confusion(predictions, self.gold))
        if f1 < corpus.F1_FLOOR:
            failures.append(f"macro F1 {f1:.4f} below the floor {corpus.F1_FLOOR}")
        measured = {"macro_f1": f1, "model_mib": (out / "model.json").stat().st_size / 2**20,
                    "digests": digests}
        return failures, measured

    def same_bytes(self, digests: dict) -> list[str]:
        """Names of artifacts that differ from the first checked run's."""
        if self.reference is None:
            self.reference = digests
        return [n for n in ARTIFACTS if digests.get(n) != self.reference.get(n)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    wl = corpus.WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    data = corpus.generate(name, seed, scale)
    inputs = corpus.write_inputs(data, work / "inputs")
    checker = Checker(wl, data)
    hash_seed = seed % 2**32
    env = child_env(hash_seed)
    pipeline_args = ["pipeline", "--nodes", str(inputs["nodes.tsv"]),
                     "--train-pairs", str(inputs["train.csv"]),
                     "--test-pairs", str(inputs["test.csv"]), *wl.flags]

    setup_seconds(env)  # warm the bytecode and page caches
    setup: list[tuple[float, float]] = []  # (raw, normalised) seconds
    runs: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []

    def sample_setup(reference: float) -> None:
        raw = setup_seconds(env)
        setup.append((raw, raw * REFERENCE_NOMINAL_S / reference))

    def one_run(kind: str, run_env: dict) -> dict:
        out = work / f"run{len(runs)}"
        argv_tail = [*pipeline_args, "--output-dir", str(out)]
        if kind == "traced":
            result_path = work / f"trace{len(runs)}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), "--result", str(result_path),
                    "--spans", str(work / f"spans{len(runs)}.tsv"), "--", *argv_tail]
        else:
            argv = [sys.executable, "-m", "wikilink.cli", *argv_tail]
        reference = reference_seconds()
        if kind == "plain":  # set-up samples spread over the run, like the runs
            sample_setup(reference)
        code, wall, usage = run_child(argv, run_env, work / f"run{len(runs)}.log")
        reference = (reference + reference_seconds()) / 2  # bracket the child
        record = {"kind": kind, "exit_code": code, "wall_s": wall,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "reference_s": reference,
                  "peak_rss_mib": usage.ru_maxrss / 1024, "failures": []}
        if code != 0:
            record["failures"].append(f"exit code {code}")
        else:
            try:
                problems, measured = checker.check(out)
            except Exception as exc:  # malformed outputs fail the run, not the benchmark
                problems, measured = [f"unreadable outputs: {exc!r}"], {}
            record["failures"] += problems
            record.update(measured)
            if kind == "traced":
                record["trace"] = json.loads(result_path.read_text())
        runs.append(record)
        for problem in record["failures"]:
            failures.append(f"run {len(runs) - 1} ({kind}): {problem}")
        shutil.rmtree(out, ignore_errors=True)
        return record

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < 2:
        record = one_run("plain", env)
        if trace and record["exit_code"] == 0:
            traced.append(one_run("traced", env))
    while len(setup) < SETUP_SAMPLES:
        sample_setup(reference_seconds())
    for i, record in enumerate(runs):
        if "digests" in record:
            differ = checker.same_bytes(record["digests"])
            if differ:
                failures.append(f"run {i}: {', '.join(differ)} not byte-identical to the first run")
                record["failures"].append("not byte-identical")
    probe_differs = None
    if trace:  # diagnostic only, so it costs the timed runs nothing
        probe = one_run("probe", child_env((hash_seed + 1) % 2**32))
        probe_differs = checker.same_bytes(probe["digests"]) if "digests" in probe else None

    plain = [r for r in runs if r["kind"] == "plain" and not r["failures"]]
    result = {
        "workload": name, "seed": seed, "why": wl.why, "properties": data.properties,
        "attempted": len(runs), "failed": sum(1 for r in runs if r["failures"]),
        "failures": failures,
        "hashseed_probe": {"hash_seeds": [hash_seed, (hash_seed + 1) % 2**32],
                           "artifacts_differing": probe_differs},
        "samples": {key: [round(r[key], 4) for r in plain]
                    for key in ("wall_s", "cpu_s", "reference_s")},
    }
    metrics: dict[str, float] = {}
    if plain:
        # Means over the run, not medians: the host flips between states
        # within a run, and the means of the child and of the reference
        # samples taken beside it weigh those states alike.
        speed = REFERENCE_NOMINAL_S / statistics.fmean(r["reference_s"] for r in plain)
        for key in ("wall", "cpu"):
            metrics[f"{key}_norm_s"] = statistics.fmean(r[f"{key}_s"] for r in plain) * speed
        for key in ("wall_s", "cpu_s", "peak_rss_mib", "macro_f1", "model_mib"):
            metrics[key] = statistics.median(r[key] for r in plain)
        metrics["setup_s"] = statistics.median(norm for _, norm in setup)
        metrics["setup_raw_s"] = statistics.median(raw for raw, _ in setup)
    good_traces = [r["trace"] for r in traced if not r["failures"]]
    if trace and good_traces and plain:
        layer = {}
        for key in PER_LAYER:
            values = [t["metrics"][key] for t in good_traces if key in t["metrics"]]
            if values:
                layer[key] = statistics.median(values)
        main_s = statistics.median(t["main_s"] for t in good_traces)
        layer["trace.overhead_frac"] = (main_s + metrics["setup_raw_s"]) / metrics["wall_s"] - 1
        result["absent"] = sorted(set(PER_LAYER) - set(layer))
        result["layer_metrics"] = layer
    result["metrics"] = metrics
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return result


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_pinning": "none", "cache_dropping": "none",
            "load": "closed loop, one client, one pipeline run at a time"}


def report(result: dict, trace: bool, prefix: str = "") -> dict:
    """Print one workload's human-readable lines; return its metric entries."""
    print("workload " + json.dumps({k: result[k] for k in ("workload", "seed", "why", "properties")}))
    print("hashseed_probe " + json.dumps(result["hashseed_probe"]))
    for problem in result["failures"]:
        print(f"FAILED {problem}")
    table, values = (PER_LAYER, result.get("layer_metrics", {})) if trace else (END_TO_END, result["metrics"])
    entries = {}
    for key, (unit, better) in table.items():
        if key in values:
            print(f"{prefix}{key:34s} {values[key]:14.6f} {unit:6s} ({better} is better)")
            entries[prefix + key] = {"value": values[key], "unit": unit}
    if trace:
        print("absent " + json.dumps(result.get("absent", [])))
    else:
        for key in ("wall_s", "cpu_s", "setup_raw_s"):
            if key in values:
                print(f"{prefix}{key:34s} {values[key]:14.6f} s      (raw, not normalised)")
    rate = result["failed"] / result["attempted"]
    print(f"{prefix}error_rate {rate:.4f} ({result['failed']} of {result['attempted']} runs failed)")
    print("samples " + json.dumps(result["samples"]))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description="wikilink pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload count (self-check only)")
    args = parser.parse_args()
    if not (SRC / "wikilink" / "cli.py").is_file():
        print(f"no wikilink sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env " + json.dumps(environment()))
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    entries, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        prefix = f"{name}/" if args.workload == "all" else ""
        entries.update(report(result, bool(args.trace), prefix))
        if args.workload == "all":
            entries[prefix + "error_rate"] = {"value": result["failed"] / result["attempted"],
                                              "unit": "ratio"}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["failed"] and bool(result["metrics"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": entries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
