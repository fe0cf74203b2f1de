"""`scripts/scale_probe.py`, run as it is at scale 1: one JSON line whose
digests are those of the same pipeline run in this process."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from wikilink.cli import main

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = {"model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv"}


def test_scale_1_digests_match_an_in_process_run(monkeypatch, tmp_path):
    proc = subprocess.run([sys.executable, "-B", str(ROOT / "scripts" / "scale_probe.py"),
                           "--src", str(ROOT / "src"), "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line, = proc.stdout.splitlines()
    result = json.loads(line)
    assert set(result) == {"scale", "wall_s", "cpu_s", "own_peak_mib", "filled_slot_share",
                           "sha256"}
    assert result["scale"] == 1.0
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["own_peak_mib"] > 0
    assert 0 < result["filled_slot_share"] < 1
    assert set(result["sha256"]) == ARTIFACTS

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # its dataclasses look it up
    spec.loader.exec_module(corpus)
    inputs = corpus.write_inputs(corpus.generate("train-heavy", 5, 1.0), tmp_path / "inputs")
    out = tmp_path / "out"
    assert main(["pipeline", "--nodes", str(inputs["nodes.tsv"]),
                 "--train-pairs", str(inputs["train.csv"]),
                 "--test-pairs", str(inputs["test.csv"]), "--epochs", "3", "--batch-size", "32",
                 "--output-dir", str(out)]) == 0
    assert result["sha256"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in ARTIFACTS}
