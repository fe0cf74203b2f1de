"""The places where `bench/run.py` stops itself, kept working here.

The benchmark imports `wikilink.cli` in a fresh interpreter to time
start-up, and its `Checker` imports `wikilink.dataset` and
`wikilink.evaluate` to check each run's artifacts; if either fails, the
benchmark exits without its JSON line. Its traced run (`bench/tracer.py`)
wraps library functions by name and observes their arguments, so a
library change can leave a per-layer metric absent. The bench sources
are loaded and run as they are, without writing bytecode next to them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wikilink.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # run.py imports corpus by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return _load("corpus", monkeypatch), _load("run", monkeypatch)


def test_fresh_interpreter_imports_the_cli():
    proc = subprocess.run([sys.executable, "-c", "import wikilink.cli"],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_passes_the_benchmark_checker(bench, tmp_path):
    corpus, run = bench
    # The scale and seed of bench/selfcheck.py.
    wl, data = corpus.WORKLOADS["train-heavy"], corpus.generate("train-heavy", 7, 0.5)
    inputs = corpus.write_inputs(data, tmp_path / "inputs")
    out = tmp_path / "out"
    assert main(["pipeline", "--nodes", str(inputs["nodes.tsv"]),
                 "--train-pairs", str(inputs["train.csv"]),
                 "--test-pairs", str(inputs["test.csv"]), *wl.flags,
                 "--output-dir", str(out)]) == 0
    failures, _ = run.Checker(wl, data).check(out)  # the F1 floor included
    assert failures == []


def _traced_run(corpus, tmp_path) -> dict:
    """The JSON that `bench/tracer.py` writes for one pipeline run."""
    # The scale and seed of bench/selfcheck.py.
    wl, data = corpus.WORKLOADS["train-heavy"], corpus.generate("train-heavy", 7, 0.5)
    inputs = corpus.write_inputs(data, tmp_path / "inputs")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "tracer.py"), "--result", str(result),
         "--spans", str(tmp_path / "spans.tsv"), "--", "pipeline",
         "--nodes", str(inputs["nodes.tsv"]), "--train-pairs", str(inputs["train.csv"]),
         "--test-pairs", str(inputs["test.csv"]), *wl.flags,
         "--output-dir", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_pipeline_reports_every_metric(bench, tmp_path):
    payload = _traced_run(bench[0], tmp_path)
    assert payload["exit_code"] == 0 and payload["absent"] == []


def test_traced_pipeline_times_every_clean_stage(bench, tmp_path):
    # `clean` calls each stage through its module name, so the tracer's
    # wrapper sees it; a stage inlined into `clean` would read 0 here.
    metrics = _traced_run(bench[0], tmp_path)["metrics"]
    for stage in ("balance", "debrace", "depunct", "despace"):
        assert metrics[f"textclean.{stage}_s"] > 0, stage
