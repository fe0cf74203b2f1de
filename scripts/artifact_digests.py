#!/usr/bin/env python3
"""Print the SHA-256 of the five `wikilink pipeline` artifacts over a fixed set of runs.

    python3 scripts/artifact_digests.py > digests.txt

The runs are the bundled fixture under several flag sets, the fixture
with its nodes reused (each pair again with its sides swapped, and one
self-pair per file) under default flags, then the seed-5 corpus of each
benchmark workload (generated by bench/corpus.py) under that workload's
flags. Each run is a `python -m wikilink.cli` child that imports the
package from this checkout's `src/`, and writes under a temporary
directory. One line per artifact, `<run> <artifact>
<sha256>`, so two checkouts produce byte-identical artifacts exactly
when `diff` of their outputs is empty. One more line per run,
`<run> model.weights <sha256>`, digests the weight vector that this
checkout's `load_model` reads back from `model.json`: it stays equal
across a change of the model file's layout that leaves the weights as
they were.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "synthetic"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))
import corpus  # noqa: E402
from wikilink.baseline import load_model  # noqa: E402

ARTIFACTS = ("model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv")
STAGES = ("balance", "debrace", "depunct", "despace")
FIXTURE_FLAGS = {
    "default": (),
    "hash-bits-4": ("--hash-bits", "4"),
    "hash-bits-10-max-tokens-2": ("--hash-bits", "10", "--max-tokens", "2"),
    "no-decay-batch-7-epochs-2": ("--weight-decay", "0", "--batch-size", "7", "--epochs", "2"),
    **{f"no-{stage}": (f"--no-{stage}",) for stage in STAGES},
}
BENCH_SEED = 5


def pipeline(inputs: Path, out: Path, flags) -> dict[str, str]:
    argv = [sys.executable, "-m", "wikilink.cli", "pipeline",
            "--nodes", str(inputs / "nodes.tsv"), "--train-pairs", str(inputs / "train.csv"),
            "--test-pairs", str(inputs / "test.csv"), "--output-dir", str(out), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    with open(out / "model.json", encoding="utf-8") as src:
        digests["model.weights"] = hashlib.sha256(load_model(src).weights.tobytes()).hexdigest()
    return digests


def node_reuse_inputs(out: Path) -> Path:
    """The fixture with each pair repeated, sides swapped, and one self-pair
    (id1 == id2) added to each pairs file."""
    out.mkdir(parents=True)
    shutil.copyfile(FIXTURE / "nodes.tsv", out / "nodes.tsv")
    for name in ("train.csv", "test.csv"):
        header, *rows = (FIXTURE / name).read_text().splitlines()
        fields = [row.split(",") for row in rows]
        swapped = [",".join([f"r{pair_id}", id2, id1, *label])
                   for pair_id, id1, id2, *label in fields]
        _, id1, _, *label = fields[0]
        self_pair = ",".join(["self", id1, id1, *label])
        (out / name).write_text("\n".join([header, *rows, *swapped, self_pair]) + "\n")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(f"fixture/{name}", FIXTURE, flags) for name, flags in FIXTURE_FLAGS.items()]
        runs.append(("fixture-node-reuse/default",
                     node_reuse_inputs(tmp / "inputs" / "fixture-node-reuse"), ()))
        for workload, wl in corpus.WORKLOADS.items():
            inputs = tmp / "inputs" / workload
            corpus.write_inputs(corpus.generate(workload, BENCH_SEED, 1.0), inputs)
            runs.append((f"{workload}/seed-{BENCH_SEED}", inputs, wl.flags))
        for run, inputs, flags in runs:
            for name, digest in pipeline(inputs, tmp / "out" / run, flags).items():
                print(f"{run} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
