"""`scripts/scale_probe.py`, run as it is on the scale-1 `train-heavy` corpus
with two timed children (the session's `scale_1_probe`): one JSON line of
quartiles, whose digests and macro F1 are those of the same pipeline run in
this process. `tests/test_phase_split.py` checks the phases themselves."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from wikilink import dataset, evaluate
from wikilink.cli import main

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = {"model.json", "predictions.csv", "submission.csv", "prepared.tsv", "nodes.clean.tsv"}
PHASES = ("first_line_s", "import_s", "main_s", "exit_s")


def test_scale_1_digests_match_an_in_process_run(scale_1_probe, monkeypatch, tmp_path):
    result = scale_1_probe
    summaries = (*PHASES, "wall_s", "cpu_s", "own_peak_mib")
    assert set(result) == {"workload", "scale", "runs", *summaries, "filled_slot_share",
                           "macro_f1", "sha256"}
    assert (result["workload"], result["scale"], result["runs"]) == ("train-heavy", 1.0, 2)
    for key in summaries:
        assert set(result[key]) == {"median", "q1", "q3"}, key
        assert 0 < result[key]["q1"] <= result[key]["median"] <= result[key]["q3"], key
    assert 0 < result["filled_slot_share"] < 1

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # its dataclasses look it up
    spec.loader.exec_module(corpus)
    data = corpus.generate("train-heavy", 5, 1.0)
    inputs = corpus.write_inputs(data, tmp_path / "inputs")
    out = tmp_path / "out"
    assert main(["pipeline", "--nodes", str(inputs["nodes.tsv"]),
                 "--train-pairs", str(inputs["train.csv"]), "--test-pairs", str(inputs["test.csv"]),
                 "--output-dir", str(out), *corpus.WORKLOADS["train-heavy"].flags]) == 0
    assert result["sha256"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in ARTIFACTS}
    gold = [dataset.PairRecord(i, 0, 0, y) for i, y in zip(data.test_ids, data.test_gold)]
    with open(out / "predictions.csv", encoding="utf-8") as predictions:
        f1 = evaluate.macro_f1(evaluate.confusion(evaluate.read_predictions(predictions), gold))
    assert result["macro_f1"] == f1
