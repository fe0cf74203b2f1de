import argparse
import binascii
import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wikilink
from wikilink import baseline, cli, dataset, pairs, textclean
from wikilink.cli import main, make_parser

SRC = str(Path(wikilink.__file__).resolve().parents[1])

ARTIFACTS = ("model.json", "submission.csv", "predictions.csv",
             "prepared.tsv", "nodes.clean.tsv")
# SHA-256 of the fixture artifacts under default flags. A change to the
# order of any float sum changes the low digits of model.json, so it fails
# here. Computed with CPython's math.exp/math.log on x86-64 glibc.
GOLDEN_SHA256 = {
    "model.json": "cb28761c9252a93bc2da4279c9b8badcc3684867bbff541c216b9a97035cb018",
    "submission.csv": "a0c20750c241bc511356e9c62c562dd374c6747b4e435b758ffdc69fac1a7666",
    "predictions.csv": "c51bd8ac3185408f35a89c9ee4849e846f4b4b8b58e484dfb86e2ee22cad892d",
    "prepared.tsv": "027f715b130295973757058bd10371b8dd88dde7787c5e136f1a8e719a58dcbc",
    "nodes.clean.tsv": "4dc7ec772dd59abec709fe8172878cfec46c5e4e8ca1be35d8ba3e68bff2b261",
}


# The JSON report lines on the fixture, byte for byte. `eval` on the fixture's
# predictions is exact; `eval` with every third label flipped is not.
CLEAN_REPORT_LINE = ('clean-report {"braces_removed_balance": 68, "chars_removed_debrace": 8820, '
                     '"input_length": 27392, "missing_text": 0, "output_length": 15655}')
STATS_LINE = 'stats {"count_0": 103, "count_1": 97, "pct_0": 51.5, "pct_1": 48.5}'
EVAL_LINE = ('eval {"f1_0": 1.0, "f1_1": 1.0, "macro_f1": 1.0, '
             '"matrix": {"fn": 0, "fp": 0, "tn": 103, "tp": 97}, "precision_0": 1.0, '
             '"precision_1": 1.0, "recall_0": 1.0, "recall_1": 1.0}')
EVAL_FLIPPED_LINE = (
    'eval {"f1_0": 0.676328502415459, "f1_1": 0.6528497409326426, '
    '"macro_f1": 0.6645891216740508, "matrix": {"fn": 34, "fp": 33, "tn": 70, "tp": 63}, '
    '"precision_0": 0.6730769230769231, "precision_1": 0.65625, '
    '"recall_0": 0.6796116504854369, "recall_1": 0.6494845360824743}')


def pipeline_argv(fixture_dir, out_dir, *extra):
    return [
        "pipeline",
        "--nodes", str(fixture_dir / "nodes.tsv"),
        "--train-pairs", str(fixture_dir / "train.csv"),
        "--test-pairs", str(fixture_dir / "test.csv"),
        "--output-dir", str(out_dir),
        *extra,
    ]


def src_env(**extra):
    """The environment with this checkout's `src` first on PYTHONPATH."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        # Bytes underneath, as the process's stdin has: `open_input` reads its buffer.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode()),
                                                          encoding="utf-8"))
    return main(argv)


class TestClean:
    def test_stdin_stdout(self, monkeypatch, capsys):
        code = run_cli(["clean"], "1\tHello, {{junk}} world!\n", monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "1\tHello world\n"

    def test_stage_flags(self, monkeypatch, capsys):
        code = run_cli(
            ["clean", "--no-depunct", "--no-despace"],
            "1\ta,  {{b}} c\n", monkeypatch,
        )
        assert code == 0
        assert capsys.readouterr().out == "1\ta,   c\n"

    def test_report_line(self, monkeypatch, capsys):
        code = run_cli(["clean"], "1\t{{abc}} x\n", monkeypatch)
        assert code == 0
        err = capsys.readouterr().err
        report_line = next(l for l in err.splitlines() if l.startswith("clean-report "))
        payload = json.loads(report_line.split(" ", 1)[1])
        assert payload["chars_removed_debrace"] == 7

    def test_report_counts_code_points(self, monkeypatch, capsys):
        # The span holds 2-, 3- and 4-byte characters: 7 code points, 13 UTF-8 bytes.
        code = run_cli(["clean"], "1\t{é日😀 x}é b.\n", monkeypatch)
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "1\té b\n"
        report_line = next(l for l in err.splitlines() if l.startswith("clean-report "))
        payload = json.loads(report_line.split(" ", 1)[1])
        assert (payload["input_length"], payload["chars_removed_debrace"],
                payload["output_length"]) == (11, 7, 3)

    def test_report_counts_node_lines_without_text(self, monkeypatch, capsys):
        code = run_cli(["clean"], "1\tabc\n2\n3\tx y\n", monkeypatch)
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "1\tabc\n2\t\n3\tx y\n"
        report_line = next(l for l in err.splitlines() if l.startswith("clean-report "))
        assert json.loads(report_line.split(" ", 1)[1])["missing_text"] == 1

    def test_report_of_no_nodes_is_all_zero(self, monkeypatch, capsys):
        assert run_cli(["clean"], "", monkeypatch) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "clean: 0 nodes",
            'clean-report {"braces_removed_balance": 0, "chars_removed_debrace": 0, '
            '"input_length": 0, "missing_text": 0, "output_length": 0}']

    def test_report_sums_every_node(self, monkeypatch, capsys):
        # Balance and debrace are off, so their counts stay 0 though the text has braces.
        code = run_cli(["clean", "--no-balance", "--no-debrace"], "1\t{{a}} b.\n2\n", monkeypatch)
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "1\t{{a}} b\n2\t\n"
        assert err.splitlines()[-1] == (
            'clean-report {"braces_removed_balance": 0, "chars_removed_debrace": 0, '
            '"input_length": 8, "missing_text": 1, "output_length": 7}')

    def test_file_output(self, tmp_path, fixture_dir):
        out = tmp_path / "cleaned.tsv"
        code = run_cli([
            "clean", "--input", str(fixture_dir / "nodes.tsv"), "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 400
        assert all("{" not in l and "," not in l for l in lines)

    def test_fixture_report_line_is_pinned(self, tmp_path, fixture_dir, capsys):
        assert run_cli(["clean", "--input", str(fixture_dir / "nodes.tsv"),
                        "--output", str(tmp_path / "cleaned.tsv")]) == 0
        assert CLEAN_REPORT_LINE + "\n" in capsys.readouterr().err

    def test_parse_error_exit_code(self, monkeypatch, capsys):
        code = run_cli(["clean"], "bogus line without id\n", monkeypatch)
        assert code == 2
        assert "error [parse]" in capsys.readouterr().err


class TestStats:
    def test_fixture_counts(self, fixture_dir, fixture_manifest, capsys):
        code = run_cli(["stats", "--pairs", str(fixture_dir / "train.csv")])
        assert code == 0
        out = capsys.readouterr().out
        machine = next(l for l in out.splitlines() if l.startswith("stats "))
        payload = json.loads(machine.split(" ", 1)[1])
        assert payload["count_0"] == fixture_manifest["count_0"]
        assert payload["count_1"] == fixture_manifest["count_1"]
        assert f"{fixture_manifest['count_0']:,}" in out

    def test_fixture_output_is_pinned(self, fixture_dir, capsys):
        assert run_cli(["stats", "--pairs", str(fixture_dir / "train.csv")]) == 0
        assert capsys.readouterr().out == (
            "               Non-related (0)   Related (1)\n"
            "Frequency                  103            97\n"
            "Percentage              51.50%        48.50%\n" + STATS_LINE + "\n")

    def test_repeated_pair_id_exits_3(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "train.csv").read_text().splitlines(keepends=True)
        (tmp_path / "train.csv").write_text("".join(lines) + lines[1])
        code = run_cli(["stats", "--pairs", str(tmp_path / "train.csv")])
        captured = capsys.readouterr()
        assert code == 3
        pair_id = lines[1].split(",")[0]
        assert f"duplicate pair id {pair_id!r} at line {len(lines) + 1}" in captured.err
        assert "Traceback" not in captured.err and "stats " not in captured.out

    def test_missing_file_is_io_error(self, capsys):
        code = run_cli(["stats", "--pairs", "/nonexistent/train.csv"])
        assert code == 4
        assert "error [io]" in capsys.readouterr().err


class TestPrepare:
    def test_output_format(self, tmp_path, fixture_dir):
        out = tmp_path / "prepared.tsv"
        code = run_cli([
            "prepare",
            "--pairs", str(fixture_dir / "train.csv"),
            "--nodes", str(fixture_dir / "nodes.tsv"),
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200
        fields = lines[0].split("\t")
        assert len(fields) == 4
        assert fields[0] == "p0"
        assert fields[1] in {"0", "1"}

    def test_missing_node_strict_fails(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        nodes = tmp_path / "nodes.tsv"
        pairs.write_text("id,id1,id2,label\np0,1,99,1\n")
        nodes.write_text("1\ta\n")
        code = run_cli([
            "prepare", "--pairs", str(pairs), "--nodes", str(nodes),
            "--output", str(tmp_path / "out.tsv"),
        ])
        assert code == 3
        assert not (tmp_path / "out.tsv").exists()  # atomic: no partial file

    def test_missing_node_lenient_skips(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        nodes = tmp_path / "nodes.tsv"
        pairs.write_text("id,id1,id2,label\np0,1,99,1\np1,1,1,0\n")
        nodes.write_text("1\ta\n")
        out = tmp_path / "out.tsv"
        code = run_cli([
            "prepare", "--pairs", str(pairs), "--nodes", str(nodes),
            "--output", str(out), "--lenient-join",
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1


@pytest.fixture(scope="module")
def artifacts(fixture_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("artifacts")
    cleaned = work / "nodes.clean.tsv"
    assert main(["clean", "--input", str(fixture_dir / "nodes.tsv"),
                 "--output", str(cleaned)]) == 0
    model = work / "model.json"
    assert main(["train", "--pairs", str(fixture_dir / "train.csv"),
                 "--nodes", str(cleaned), "--model", str(model)]) == 0
    preds = work / "predictions.csv"
    assert main(["predict", "--model", str(model),
                 "--pairs", str(fixture_dir / "test.csv"),
                 "--nodes", str(cleaned), "--output", str(preds)]) == 0
    return work


class TestPredictTokenBudget:
    @pytest.fixture
    def model(self, fixture_dir, tmp_path):
        path = tmp_path / "model.json"
        assert main(["train", "--pairs", str(fixture_dir / "train.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv"),
                     "--max-tokens", "2", "--model", str(path)]) == 0
        return path

    def predict(self, fixture_dir, model, out, *extra):
        return main(["predict", "--model", str(model), "--pairs", str(fixture_dir / "train.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv"),
                     "--output", str(out), *extra])

    def test_predict_uses_the_model_budget(self, fixture_dir, model, tmp_path, monkeypatch):
        budgets, tokenize = set(), pairs.tokenize

        def recording_tokenize(text, max_tokens):
            budgets.add(max_tokens)
            return tokenize(text, max_tokens)

        monkeypatch.setattr(pairs, "tokenize", recording_tokenize)
        assert self.predict(fixture_dir, model, tmp_path / "p.csv") == 0
        assert budgets == {2}

    def test_other_budget_rejected(self, fixture_dir, model, tmp_path, capsys):
        """No flag sets predict's budget, not even to the model's own: it is a usage error."""
        for budget in ("2", "128"):
            with pytest.raises(SystemExit) as exc:
                self.predict(fixture_dir, model, tmp_path / "p.csv", "--max-tokens", budget)
            assert exc.value.code == 2
            assert "unrecognized arguments: --max-tokens" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    # [train] section of predict's config -> key named in the error, or None to pass.
    @pytest.mark.parametrize("section,named", [
        ("max_tokens = 128", "max_tokens"),
        ("epochs = 7", "epochs"),
        ("max_tokens = 2\nlearning_rate = 0.5", "learning_rate"),
        ("hash_bits = 10", "hash_bits"),
        ("max_tokens = 2\nepochs = 3\nlearning_rate = 0.01", None),
        ("", None),
    ])
    def test_config_train_values_must_equal_the_model(self, fixture_dir, model, tmp_path,
                                                      capsys, section, named):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[train]\n{section}\n")
        code = self.predict(fixture_dir, model, tmp_path / "p.csv", "--config", str(cfg))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if named is None:
            assert code == 0
            assert (tmp_path / "p.csv").read_bytes() == self.reference(fixture_dir, model, tmp_path)
        else:
            assert code == 3
            assert f"differs from the model's {named}" in err
            assert not (tmp_path / "p.csv").exists()

    def reference(self, fixture_dir, model, tmp_path):
        assert self.predict(fixture_dir, model, tmp_path / "ref.csv") == 0
        return (tmp_path / "ref.csv").read_bytes()


class TestTrainPredictEvalSubmit:
    def test_model_written(self, artifacts):
        payload = json.loads((artifacts / "model.json").read_text())
        assert payload["format"] == "wikilink-baseline-v3"
        assert payload["layout"] == baseline.FEATURE_LAYOUT

    def test_predict_on_model_json_matches_pipeline(self, artifacts, fixture_dir, tmp_path):
        """Standalone `predict` on model.json writes the pipeline's predictions.csv."""
        assert main(["predict", "--model", str(artifacts / "model.json"),
                     "--pairs", str(fixture_dir / "test.csv"),
                     "--nodes", str(artifacts / "nodes.clean.tsv"),
                     "--output", str(tmp_path / "p.csv")]) == 0
        assert (tmp_path / "p.csv").read_bytes() == (artifacts / "predictions.csv").read_bytes()

    def test_predictions_cover_all_pairs(self, artifacts):
        lines = (artifacts / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,prob,label"
        assert len(lines) == 201

    def test_eval_reports_high_f1(self, artifacts, fixture_dir, capsys):
        code = main(["eval", "--predictions", str(artifacts / "predictions.csv"),
                     "--pairs", str(fixture_dir / "train.csv")])
        assert code == 0
        out = capsys.readouterr().out
        machine = next(l for l in out.splitlines() if l.startswith("eval "))
        payload = json.loads(machine.split(" ", 1)[1])
        assert payload["macro_f1"] >= 0.95

    def test_eval_report_lines_are_pinned(self, artifacts, fixture_dir, tmp_path, capsys):
        header, *rows = (artifacts / "predictions.csv").read_text().splitlines()
        flipped = [f"{row[:-1]}{1 - int(row[-1])}" if k % 3 == 0 else row
                   for k, row in enumerate(rows)]
        (tmp_path / "flipped.csv").write_text("\n".join([header, *flipped]) + "\n")
        for predictions, line in ((artifacts / "predictions.csv", EVAL_LINE),
                                  (tmp_path / "flipped.csv", EVAL_FLIPPED_LINE)):
            assert main(["eval", "--predictions", str(predictions),
                         "--pairs", str(fixture_dir / "train.csv")]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == line

    def test_eval_of_no_pairs_exits_3(self, tmp_path, capsys):
        (tmp_path / "predictions.csv").write_text("id,prob,label\n")
        (tmp_path / "gold.csv").write_text("id,id1,id2,label\n")
        assert main(["eval", "--predictions", str(tmp_path / "predictions.csv"),
                     "--pairs", str(tmp_path / "gold.csv")]) == 3
        captured = capsys.readouterr()
        assert "error [validation]: no pairs to evaluate" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_submit_format(self, artifacts, tmp_path):
        out = tmp_path / "submission.csv"
        code = main(["submit", "--predictions", str(artifacts / "predictions.csv"),
                     "--output", str(out)])
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 201
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestPipeline:
    def run_pipeline(self, fixture_dir, out_dir):
        return main(pipeline_argv(fixture_dir, out_dir))

    def test_end_to_end(self, fixture_dir, tmp_path):
        assert self.run_pipeline(fixture_dir, tmp_path / "out") == 0
        submission = (tmp_path / "out" / "submission.csv").read_text()
        assert len(submission.splitlines()) == 201

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        assert self.run_pipeline(fixture_dir, tmp_path / "a") == 0
        assert self.run_pipeline(fixture_dir, tmp_path / "b") == 0
        for name in ARTIFACTS:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_artifacts_match_golden_digests(self, fixture_dir, tmp_path):
        assert self.run_pipeline(fixture_dir, tmp_path / "out") == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
        assert digests == GOLDEN_SHA256

    def test_header_only_test_file_writes_empty_outputs(self, fixture_dir, tmp_path):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("nodes.tsv", "train.csv"):
            (inputs / name).write_bytes((fixture_dir / name).read_bytes())
        (inputs / "test.csv").write_text("id,id1,id2\n")
        assert main(pipeline_argv(inputs, tmp_path / "out")) == 0
        assert (tmp_path / "out" / "predictions.csv").read_text() == "id,prob,label\n"
        assert (tmp_path / "out" / "submission.csv").read_text() == "id,label\n"

    def test_missing_input_fails_with_io(self, tmp_path, capsys):
        code = main([
            "pipeline", "--nodes", str(tmp_path / "missing.tsv"),
            "--train-pairs", str(tmp_path / "missing.csv"),
            "--test-pairs", str(tmp_path / "missing2.csv"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 4

    def test_no_temp_files_left(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert self.run_pipeline(fixture_dir, out) == 0
        assert not list(out.glob("*.tmp"))

    def test_each_input_parsed_once(self, fixture_dir, tmp_path, monkeypatch):
        counts = {"node_rows": 0, "pairs_built": 0}
        parse_nodes, build_pair = dataset.parse_nodes, pairs.build_pair

        def counting_parse_nodes(*args, **kwargs):
            for rec in parse_nodes(*args, **kwargs):
                counts["node_rows"] += 1
                yield rec

        def counting_build_pair(*args, **kwargs):
            counts["pairs_built"] += 1
            return build_pair(*args, **kwargs)

        monkeypatch.setattr(dataset, "parse_nodes", counting_parse_nodes)
        monkeypatch.setattr(pairs, "build_pair", counting_build_pair)
        assert self.run_pipeline(fixture_dir, tmp_path / "out") == 0
        assert counts == {"node_rows": 400, "pairs_built": 200 + 200}

    def test_one_node_table_per_run(self, fixture_dir, tmp_path, monkeypatch):
        """`pipeline` builds one node table, and trains and predicts from it."""
        built, used = [], []
        train, predict = baseline.train, baseline.predict

        class CountingTable(baseline.NodeTable):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def recording_train(examples, config, table):
            used.append(table)
            return train(examples, config, table)

        def recording_predict(model, examples, table):
            used.append(table)
            return predict(model, examples, table)

        monkeypatch.setattr(baseline, "NodeTable", CountingTable)
        monkeypatch.setattr(baseline, "train", recording_train)
        monkeypatch.setattr(baseline, "predict", recording_predict)
        assert self.run_pipeline(fixture_dir, tmp_path / "out") == 0
        assert len(built) == 1
        assert used[0] is built[0] and used[1] is built[0] and len(used) == 2

    def test_cleaned_table_dropped_before_training(self, fixture_dir, tmp_path, monkeypatch):
        """`pipeline` holds no cleaned node text once both pairs files are tokenized."""
        refs, alive = [], []
        clean_records, train = textclean.clean_records, baseline.train

        class Text(str):  # unlike a str, a subclass instance can be weakly referenced
            pass

        def watched_clean_records(records, config):
            for node_id, text, report in clean_records(records, config):
                text = Text(text)
                refs.append(weakref.ref(text))
                yield node_id, text, report

        def checking_train(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            return train(*args)

        monkeypatch.setattr(textclean, "clean_records", watched_clean_records)
        monkeypatch.setattr(baseline, "train", checking_train)
        assert self.run_pipeline(fixture_dir, tmp_path / "out") == 0
        assert len(refs) == 400 and alive == [0]

    # test.csv text -> exit code
    @pytest.mark.parametrize("test_csv, code", [
        ("id,id1\n", 2),
        ("id,id1,id2\np1,1\n", 2),
        ("id,id1,id2\np1,x,2\n", 2),
        ("id,id1,id2\np1,1,2\np1,2,1\n", 3),
        ("id,id1,id2\np1,1,987654321\n", 3),
    ], ids=["header", "columns", "node id", "repeated id", "missing node"])
    def test_bad_test_file_fails_before_training(self, fixture_dir, tmp_path, capsys,
                                                  test_csv, code):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("nodes.tsv", "train.csv"):
            (inputs / name).write_bytes((fixture_dir / name).read_bytes())
        (inputs / "test.csv").write_text(test_csv)
        assert main(pipeline_argv(inputs, tmp_path / "out")) == code
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["nodes.clean.tsv"]

    def test_artifacts_independent_of_hash_seed(self, fixture_dir, tmp_path):
        for seed in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-m", "wikilink.cli",
                 *pipeline_argv(fixture_dir, tmp_path / f"seed{seed}")],
                capture_output=True, text=True, env=src_env(PYTHONHASHSEED=str(seed)),
            )
            assert proc.returncode == 0, proc.stderr
        for name in ARTIFACTS:
            assert (tmp_path / "seed1" / name).read_bytes() == (tmp_path / "seed2" / name).read_bytes(), name

    @pytest.mark.parametrize("shared", [False, True], ids=["fixture", "shared-nodes"])
    def test_each_node_tokenized_once_per_pairs_file(self, fixture_dir, tmp_path, monkeypatch,
                                                     shared):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "nodes.tsv").write_bytes((fixture_dir / "nodes.tsv").read_bytes())
        records = {}
        for name in ("train.csv", "test.csv"):
            header, *rows = (fixture_dir / name).read_text().splitlines()
            if shared:  # each pair again with its sides swapped: every node is in two pairs
                for pair_id, id1, id2, *label in [row.split(",") for row in rows]:
                    rows.append(",".join([f"r{pair_id}", id2, id1, *label]))
            (inputs / name).write_text("\n".join([header, *rows]) + "\n")
            with open(inputs / name) as f:
                records[name] = list(dataset.parse_pairs(f))
        calls, built = [], []
        tokenize, build_pair = pairs.tokenize, pairs.build_pair

        def counting_tokenize(*args, **kwargs):
            calls.append(args)
            return tokenize(*args, **kwargs)

        def recording_build_pair(record, *args, **kwargs):
            sp = build_pair(record, *args, **kwargs)
            built.append((record, sp))
            return sp

        monkeypatch.setattr(pairs, "tokenize", counting_tokenize)
        monkeypatch.setattr(pairs, "build_pair", recording_build_pair)
        assert self.run_pipeline(inputs, tmp_path / "out") == 0
        # One cache for both files: each node of either file is tokenized once.
        distinct = {i for recs in records.values() for r in recs for i in (r.id1, r.id2)}
        assert len(distinct) == 400
        assert len(calls) == len(distinct)
        assert len(built) == len(records["train.csv"]) + len(records["test.csv"])
        reused = 0
        tokens_of = {}
        for record, sp in built:
            for node_id, tokens in ((record.id1, sp.premise_tokens),
                                    (record.id2, sp.hypothesis_tokens)):
                reused += node_id in tokens_of
                assert tokens_of.setdefault(node_id, tokens) is tokens
        assert reused == (1200 if shared else 400)


def _without_labels(path: Path) -> str:
    """The text of the labeled pairs file at `path`, its label column dropped."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())


class TestPairsHeader:
    """A pairs file's header says whether it carries labels: only the steps
    that read labels reject a file without them."""

    # command -> (its arguments but the pairs file, the error for rows, for the header alone)
    CONSUMERS = {
        "train": (["--model", "model.json"], "pair p0 is unlabeled",
                  "cannot train on an empty example set"),
        "stats": ([], "pair p0 is unlabeled", "no labeled pairs to summarize"),
        "eval": (["--predictions", "predictions.csv"], "gold pair p0 is unlabeled",
                 "pair id coverage mismatch; prediction-only ids: p0"),
    }

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "header only"])
    @pytest.mark.parametrize("command", CONSUMERS)
    def test_label_consumers_reject_unlabeled_pairs(self, command, rows, fixture_dir, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rest, for_rows, for_header = self.CONSUMERS[command]
        text = _without_labels(fixture_dir / "train.csv")
        Path("pairs.csv").write_text(text if rows else text.splitlines(keepends=True)[0])
        Path("predictions.csv").write_text("id,prob,label\np0,0.5,1\n")
        nodes = ["--nodes", str(fixture_dir / "nodes.tsv")] if command == "train" else []
        assert main([command, "--pairs", "pairs.csv", *nodes, *rest]) == 3
        err = capsys.readouterr().err
        assert f"error [validation]: {for_rows if rows else for_header}" in err
        assert "Traceback" not in err and not Path("model.json").exists()

    def test_prepare_reads_unlabeled_pairs(self, fixture_dir, tmp_path):
        out = tmp_path / "prepared.tsv"
        assert main(["prepare", "--pairs", str(fixture_dir / "test.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv"), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200 and {line.split("\t")[1] for line in lines} == {"-"}

    def test_predict_ignores_the_label_column(self, artifacts, fixture_dir, tmp_path):
        (tmp_path / "unlabeled.csv").write_text(_without_labels(fixture_dir / "train.csv"))
        for name, pairs_file in (("labeled", fixture_dir / "train.csv"),
                                 ("unlabeled", tmp_path / "unlabeled.csv")):
            assert main(["predict", "--model", str(artifacts / "model.json"),
                         "--pairs", str(pairs_file), "--nodes", str(artifacts / "nodes.clean.tsv"),
                         "--output", str(tmp_path / f"{name}.out")]) == 0
        labeled = (tmp_path / "labeled.out").read_bytes()
        assert labeled == (tmp_path / "unlabeled.out").read_bytes()
        assert len(labeled.splitlines()) == 201

    def test_pipeline_with_unlabeled_train_file_writes_only_clean_nodes(self, fixture_dir,
                                                                        tmp_path, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("nodes.tsv", "test.csv"):
            (inputs / name).write_bytes((fixture_dir / name).read_bytes())
        (inputs / "train.csv").write_text(_without_labels(fixture_dir / "train.csv"))
        assert main(pipeline_argv(inputs, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "error [validation]: pair p0 is unlabeled" in err and "Traceback" not in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["nodes.clean.tsv"]

    def test_pipeline_with_labeled_test_file_matches_golden_digests(self, fixture_dir, tmp_path):
        """Labels in test.csv change no artifact byte: the digests are the unlabeled file's."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("nodes.tsv", "train.csv"):
            (inputs / name).write_bytes((fixture_dir / name).read_bytes())
        _, *rows = (fixture_dir / "test.csv").read_text().splitlines()
        (inputs / "test.csv").write_text(
            "id,id1,id2,label\n" + "".join(f"{row},{k % 2}\n" for k, row in enumerate(rows)))
        assert main(pipeline_argv(inputs, tmp_path / "out")) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
        assert digests == GOLDEN_SHA256


class TestConfigFile:
    def test_config_file_and_flag_precedence(self, fixture_dir, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text(
            "[paths]\n"
            f"nodes = {fixture_dir / 'nodes.tsv'}\n"
            f"train_pairs = {fixture_dir / 'train.csv'}\n"
            f"test_pairs = {fixture_dir / 'test.csv'}\n"
            f"output_dir = {tmp_path / 'out'}\n"
            "[train]\n"
            "epochs = 1\n"
            "seed = 7\n"
        )
        assert main(["pipeline", "--config", str(cfg)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["config"]["epochs"] == 1
        assert model["config"]["seed"] == 7

        # flag overrides the config file
        assert main(["pipeline", "--config", str(cfg), "--epochs", "2",
                     "--output-dir", str(tmp_path / "out2")]) == 0
        model2 = json.loads((tmp_path / "out2" / "model.json").read_text())
        assert model2["config"]["epochs"] == 2
        assert model2["config"]["seed"] == 7

    def test_unknown_train_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text("[train]\nbogus = 1\n")
        code = main(["train", "--config", str(cfg), "--pairs", "x", "--nodes", "y"])
        assert code == 3

    def test_default_section_fails_closed(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text("[DEFAULT]\nepochs = 2\n")
        assert main(["train", "--config", str(cfg), "--pairs", str(fixture_dir / "train.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv"),
                     "--model", str(tmp_path / "model.json")]) == 3
        assert "error [validation]" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_percent_in_a_path_is_literal(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_text(f"[paths]\nnodes = {tmp_path / '100%.tsv'}\n")
        code = main(["pipeline", "--config", str(cfg),
                     "--train-pairs", str(fixture_dir / "train.csv"),
                     "--test-pairs", str(fixture_dir / "test.csv"),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "does not exist" in err and "100%.tsv" in err and "Traceback" not in err

    # [paths] lines of train's config -> where train writes the model without --model
    @pytest.mark.parametrize("paths,written", [
        ("", "out/model.json"),
        ("model = {d}/explicit.json", "explicit.json"),
        ("output_dir = {d}/out", "out/model.json"),
        ("output_dir = {d}/out\nmodel = {d}/explicit.json", "explicit.json"),
    ])
    def test_train_model_path_without_flag(self, fixture_dir, tmp_path, monkeypatch,
                                           paths, written):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.ini"
        cfg.write_text("[paths]\n" + paths.format(d=tmp_path) + "\n")
        assert main(["train", "--config", str(cfg), "--epochs", "1",
                     "--pairs", str(fixture_dir / "train.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv")]) == 0
        payload = json.loads((tmp_path / written).read_text())
        assert payload["format"] == baseline.MODEL_FORMAT
        written_files = {p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*.json")}
        assert written_files == {written}

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_token_budget_reaches_pairs_and_model(self, fixture_dir, tmp_path, how):
        cfg = tmp_path / "config.ini"
        cfg.write_text("[train]\nmax_tokens = 2\n" if how == "config" else "[train]\n")
        extra = ["--max-tokens", "2"] if how == "flag" else []
        assert main(pipeline_argv(fixture_dir, tmp_path / "out", "--config", str(cfg), *extra)) == 0
        for line in (tmp_path / "out" / "prepared.tsv").read_text().splitlines():
            _, _, premise, hypothesis = line.split("\t")
            assert len(premise.split()) <= 2 and len(hypothesis.split()) <= 2
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["config"]["max_tokens"] == 2


# case -> (config file text or bytes, extra flags, nodes.tsv bytes or None, exit code,
#          named in the error)
BAD_SETTINGS = {
    "epochs flag zero": ("", ["--epochs", "0"], None, 3, "epochs"),
    "max-tokens flag zero": ("", ["--max-tokens", "0"], None, 3, "max_tokens"),
    "max-tokens flag past 64 bits": ("", ["--max-tokens", str(2**64)], None, 3, "max_tokens"),
    "max_tokens in config past 64 bits": (f"[train]\nmax_tokens = {2**63}\n", [], None, 3,
                                          "max_tokens"),
    "NUL in a [paths] value": (b"[paths]\nmodel = m\0.json\n", [], None, 3, "model"),
    "NUL in a [paths] value a flag overrides": (b"[paths]\nnodes = n\0.tsv\n", [], None, 3,
                                                "nodes"),
    "fractional epochs in config": ("[train]\nepochs = 2.5\n", [], None, 3, "2.5"),
    "bad boolean in config": ("[run]\nstrict_join = maybe\n", [], None, 3, "maybe"),
    "unknown section": ("[pairs]\nmax_tokens = 2\n", [], None, 3, "[pairs]"),
    "unknown run option": ("[run]\nthreads = 1\n", [], None, 3, "threads"),
    "key under DEFAULT": ("[DEFAULT]\nepochs = 2\n", [], None, 3, "epochs"),
    "interpolation syntax in config": ("[train]\nepochs = %(x)s\n", [], None, 3, "bad setting"),
    "no section header": ("epochs = 1\n", [], None, 2, "section header"),
    "nodes not utf-8": ("", [], b"1\tcaf\xe9\n", 2, "utf-8"),
    "config not utf-8": (b"[train]\nepochs = caf\xe9\n", [], None, 2, "utf-8"),
}


# A node id whose digits str.isdigit takes but that are not ASCII: "²"
# made int() raise, "١٢" was read as node 12.
@pytest.mark.parametrize("token, ascii_id", [("\u00b2", "2"), ("\u0661\u0662", "12")])
@pytest.mark.parametrize("name", ["nodes.tsv", "train.csv"])
def test_non_ascii_digit_node_id_exits_2(name, token, ascii_id, fixture_dir, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for file in ("nodes.tsv", "train.csv", "test.csv"):
        (inputs / file).write_bytes((fixture_dir / file).read_bytes())
    lines = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
    if name == "nodes.tsv":
        at = next(i for i, line in enumerate(lines) if line.startswith(ascii_id + "\t"))
        lines[at] = token + lines[at][len(ascii_id):]
    else:
        fields = lines[1].split(",")
        fields[1] = token
        lines[1] = ",".join(fields)
    (inputs / name).write_text("".join(lines), encoding="utf-8")
    assert main(pipeline_argv(inputs, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "error [" in err and repr(token) in err


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_settings_and_input_exit_with_code(case, fixture_dir, tmp_path, capsys):
    config_text, extra, nodes_bytes, code, named = BAD_SETTINGS[case]
    if nodes_bytes is not None:
        (tmp_path / "nodes.tsv").write_bytes(nodes_bytes)
        extra = [*extra, "--nodes", str(tmp_path / "nodes.tsv")]
    cfg = tmp_path / "config.ini"
    cfg.write_bytes(config_text if isinstance(config_text, bytes) else config_text.encode())
    assert main(pipeline_argv(fixture_dir, tmp_path / "out", "--config", str(cfg), *extra)) == code
    err = capsys.readouterr().err
    assert "error [" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unopenable_config_exits_4(kind, fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "config.ini"
    if kind == "directory":
        cfg.mkdir()
    assert main(pipeline_argv(fixture_dir, tmp_path / "out", "--config", str(cfg))) == 4
    err = capsys.readouterr().err
    assert "error [io]" in err and str(cfg) in err and "Traceback" not in err


# case -> (the subcommand and its input flag, input bytes, exit code, stdout it holds)
BARE_CR_INPUTS = {
    "nodes.tsv CR in a text": (["clean", "--input"], b"1\thello\rworld\n", 0, b"1\thello world\n"),
    "nodes.tsv CR before an id": (["clean", "--input"], b"1\tfoo\r42\tbar\n2\tsecond\n", 2, b""),
    "pairs CR in an id": (["stats", "--pairs"], b"id,id1,id2,label\na\rb,1,2,1\n", 0, b'"count_1": 1'),
    "pairs CR before an id": (["stats", "--pairs"], b"id,id1,id2,label\np1,1,2,1\rp2,3,4,0\n", 2, b""),
    "predictions CR in an id": (["submit", "--predictions"], b"id,prob,label\na\rb,0.5,1\n", 0,
                                b"id,label\na\rb,1\n"),
    "predictions CR before an id": (["submit", "--predictions"],
                                    b"id,prob,label\np1,0.5,1\rp2,0.2,0\n", 2, b""),
}


@pytest.mark.parametrize("case", BARE_CR_INPUTS)
def test_bare_cr_reads_alike_by_path_and_stdin(case, tmp_path):
    """A bare CR is field content: lines end at LF whether the input is a
    path or the process's own stdin, so both give one exit code and output."""
    argv, data, expected, out = BARE_CR_INPUTS[case]
    (tmp_path / "input").write_bytes(data)
    runs = [subprocess.run([sys.executable, "-m", "wikilink.cli", *argv, source], input=data,
                           capture_output=True, env=src_env())
            for source in (str(tmp_path / "input"), "-")]
    assert [run.returncode for run in runs] == [expected, expected], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert out in runs[0].stdout
    assert b"Traceback" not in runs[0].stderr + runs[1].stderr


# case -> (the subcommand and its input flag, input bytes holding 0xFF, the other arguments)
INVALID_UTF8_INPUTS = {
    "clean": (["clean", "--input"], b"1\tab\xff c\n2\tx y\n", []),
    "train nodes": (["train", "--nodes"], b"1\tab\xff c\n2\tx y\n",
                    ["--pairs", "pairs.csv", "--model", "model.json"]),
    "submit predictions": (["submit", "--predictions"], b"id,prob,label\nt\xff1,0.5,1\n",
                           ["--output", "submission.csv"]),
}


@pytest.mark.parametrize("case", INVALID_UTF8_INPUTS)
def test_invalid_utf8_exits_2_by_path_and_stdin(case, tmp_path):
    """Invalid UTF-8 is a parse error whether the input is a path or the
    process's own stdin, which in UTF-8 mode decodes with surrogateescape."""
    argv, data, rest = INVALID_UTF8_INPUTS[case]
    (tmp_path / "input").write_bytes(data)
    (tmp_path / "pairs.csv").write_text("id,id1,id2,label\np,1,2,1\n")
    for source in ("input", "-"):
        run = subprocess.run([sys.executable, "-m", "wikilink.cli", *argv, source, *rest],
                             input=data, capture_output=True, cwd=tmp_path,
                             env=src_env(PYTHONUTF8="1"))
        assert run.returncode == 2, (source, run.stderr)
        assert b"error [parse]" in run.stderr and b"Traceback" not in run.stderr
        assert run.stdout == b""
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "submission.csv").exists()


# case -> (the arguments, the shell redirection closing fd 0 or fd 1, the stream named)
CLOSED_STREAMS = {
    "clean with no stdin": (["clean"], "<&-", "stdin"),
    "stats with no stdin": (["stats", "--pairs", "-"], "<&-", "stdin"),
    "clean with no stdout": (["clean", "--input", "nodes.tsv"], ">&-", "stdout"),
    "stats with no stdout": (["stats", "--pairs", "pairs.csv"], ">&-", "stdout"),
    "eval with no stdout": (["eval", "--predictions", "predictions.csv", "--pairs", "pairs.csv"],
                            ">&-", "stdout"),
}


@pytest.mark.parametrize("case", CLOSED_STREAMS)
def test_closed_std_stream_exits_4(case, tmp_path):
    """A process started with fd 0 or fd 1 closed has no stdin or stdout
    object: reading or writing `-` there is an io error that names it."""
    argv, redirect, stream = CLOSED_STREAMS[case]
    (tmp_path / "nodes.tsv").write_text("1\ta b\n")
    (tmp_path / "pairs.csv").write_text("id,id1,id2,label\np,1,2,1\n")
    (tmp_path / "predictions.csv").write_text("id,prob,label\np,0.75,1\n")
    run = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh",
                          sys.executable, "-m", "wikilink.cli", *argv],
                         capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert run.returncode == 4, run.stderr
    assert "error [io]: cannot " in run.stderr and stream in run.stderr
    assert "Traceback" not in run.stderr


# case -> (the arguments, the input file's name and text, what the output must hold)
NON_ASCII_OUTPUTS = {
    "clean": (["clean", "--input", "nodes.tsv"], "nodes.tsv", "1\tcafé 日本 {x}\n",
              "1\tcafé 日本\n"),
    "submit": (["submit", "--predictions", "predictions.csv"], "predictions.csv",
               "id,prob,label\ncafé-日本,0.75,1\n", "id,label\ncafé-日本,1\n"),
}


@pytest.mark.parametrize("case", NON_ASCII_OUTPUTS)
def test_stdout_output_is_utf8_whatever_the_locale(case, tmp_path):
    """`-` output is the UTF-8 a file gets, even where the locale's encoding is ASCII."""
    argv, name, text, expected = NON_ASCII_OUTPUTS[case]
    (tmp_path / name).write_text(text, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "wikilink.cli", *argv, "--output", "-"],
                         capture_output=True, cwd=tmp_path, env=src_env(PYTHONIOENCODING="ascii"))
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected.encode("utf-8")


class TestPredictionsFileReadClosed:
    """A predictions file obeys the pairs CSV's id rules in `eval` and `submit` alike."""

    def run_command(self, command, predictions, tmp_path):
        (tmp_path / "predictions.csv").write_text(predictions)
        (tmp_path / "gold.csv").write_text("id,id1,id2,label\na,1,2,1\nb,1,3,0\n")
        return main([command, "--predictions", str(tmp_path / "predictions.csv"), *(
            ["--pairs", str(tmp_path / "gold.csv")] if command == "eval"
            else ["--output", str(tmp_path / "submission.csv")])])

    @pytest.mark.parametrize("command", ["eval", "submit"])
    def test_repeated_id_exits_3(self, command, tmp_path, capsys):
        code = self.run_command(command, "id,prob,label\na,0.5,1\nb,0.25,0\na,0.75,1\n",
                                tmp_path)
        captured = capsys.readouterr()
        assert code == 3
        assert "error [validation]: duplicate pair id 'a' at line 4" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err
        assert not (tmp_path / "submission.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "submit"])
    def test_tab_in_id_exits_3(self, command, tmp_path, capsys):
        code = self.run_command(command, "id,prob,label\na,0.5,1\nb\t,0.25,0\n", tmp_path)
        assert code == 3
        assert "error [validation]: pair id 'b\\t' at line 3 holds a tab" in capsys.readouterr().err
        assert not (tmp_path / "submission.csv").exists()

    def test_submit_from_stdin_matches_the_path(self, tmp_path, monkeypatch):
        text = "id,prob,label\r\na,0.5,1\n\nb,0.25,0\n"
        (tmp_path / "predictions.csv").write_text(text)
        assert main(["submit", "--predictions", str(tmp_path / "predictions.csv"),
                     "--output", str(tmp_path / "by_path.csv")]) == 0
        assert run_cli(["submit", "--predictions", "-", "--output",
                        str(tmp_path / "by_stdin.csv")], text, monkeypatch) == 0
        assert (tmp_path / "by_stdin.csv").read_bytes() == (
            tmp_path / "by_path.csv").read_bytes() == b"id,label\na,1\nb,0\n"


def test_pairs_line_checks_its_label_before_its_node_ids(tmp_path, capsys):
    """Each CSV line is checked in one order: shape, id, label, then the
    format's own fields, so a bad label is reported before a bad node id."""
    (tmp_path / "pairs.csv").write_text("id,id1,id2,label\np0,x,2,7\n")
    assert main(["stats", "--pairs", str(tmp_path / "pairs.csv")]) == 3
    assert "error [validation]: line 2: label must be 0 or 1, got '7'" in capsys.readouterr().err


def test_vocabulary_bound_exits_3(fixture_dir, tmp_path, monkeypatch, capsys):
    """A run with more distinct tokens than int32 ids hold is a validation error."""
    monkeypatch.setattr(pairs, "_MAX_ID", 3)
    model = tmp_path / "model.json"
    assert main(["train", "--pairs", str(fixture_dir / "train.csv"),
                 "--nodes", str(fixture_dir / "nodes.tsv"), "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert "error [validation]: more than 3 distinct tokens" in err and "Traceback" not in err
    assert not model.exists()


def test_unallocatable_hash_bits_exit_3(fixture_dir, tmp_path, limit_zeros, capsys):
    """hash_bits 30 on a host that cannot map its weight vectors: `train`
    and `predict` exit 3 and name hash_bits and the bytes needed."""
    model = tmp_path / "model.json"
    payload = copy.deepcopy(BAD_MODEL)
    payload["config"]["hash_bits"] = 30
    model.write_text(json.dumps(payload))
    limit_zeros(1 << 20)
    out = tmp_path / "trained.json"
    assert main(["train", "--pairs", str(fixture_dir / "train.csv"), "--hash-bits", "30",
                 "--nodes", str(fixture_dir / "nodes.tsv"), "--model", str(out)]) == 3
    assert main(["predict", "--model", str(model), "--pairs", str(fixture_dir / "test.csv"),
                 "--nodes", str(fixture_dir / "nodes.tsv"), "--output", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("error [validation]: hash_bits 30 needs 8,589,934,624 bytes") == 2
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "p.csv").exists()


def test_unallocatable_slot_ranks_exit_3(fixture_dir, tmp_path, monkeypatch, capsys):
    """`train` renumbers the touched slots with one int32 rank per hash
    slot; a host that cannot map that array exits 3 like one that cannot
    map the weights, and writes no model."""
    zeros = np.zeros

    def no_int32(shape, dtype=float, *args, **kwargs):
        if np.dtype(dtype) == np.int32:
            raise MemoryError(f"cannot allocate {shape} int32")
        return zeros(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_int32)
    model = tmp_path / "model.json"
    assert main(["train", "--pairs", str(fixture_dir / "train.csv"),
                 "--nodes", str(fixture_dir / "nodes.tsv"), "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert "error [validation]: hash_bits 18 needs 1,048,592 bytes, one int32 per slot" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_openblas_threads_default_to_one(preset, expected):
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, wikilink.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_start_up_loads_no_dataclasses_or_configparser():
    """A fresh `import wikilink.cli` loads numpy and every package module, but
    not `dataclasses`, nor `configparser`, which only a --config run needs."""
    code = "import json, sys, wikilink.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    modules = {f"wikilink.{p.stem}" for p in Path(SRC, "wikilink").glob("[!_]*.py")}
    assert "wikilink.cli" in modules and {"numpy", "wikilink", *modules} <= loaded
    assert not {"dataclasses", "configparser"} & loaded


def test_pipeline_loads_no_numpy_ma(fixture_dir, tmp_path):
    """A whole `pipeline` run in a fresh process never imports `numpy.ma`. A
    plain `np.unique(x)` would: its hash path calls `np.ma.is_masked`, and the
    first such call costs a process about 16 ms."""
    code = ("import json, sys, wikilink.cli\n"
            "status = wikilink.cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *pipeline_argv(fixture_dir, tmp_path)],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "wikilink.baseline" in loaded and "numpy.ma" not in loaded


class TestHeapFreeze:
    """Only the process entry, `main()` with no argv, freezes the import-time heap."""

    def test_in_process_main_leaves_gc_state(self, fixture_dir, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["stats", "--pairs", str(fixture_dir / "train.csv")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before
        assert STATS_LINE in capsys.readouterr().out

    def test_process_entry_freezes(self, fixture_dir):
        code = ("import gc, sys, wikilink.cli\n"
                "before = gc.get_freeze_count()\n"
                "sys.argv = ['wikilink', 'stats', '--pairs', sys.argv[1]]\n"
                "status = wikilink.cli.main()\n"
                "print(before, gc.get_freeze_count(), gc.isenabled())\n"
                "sys.exit(status)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(fixture_dir / "train.csv")],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert STATS_LINE in proc.stdout
        before, frozen, enabled = proc.stdout.splitlines()[-1].split()
        assert before == "0" and int(frozen) > 0 and enabled == "True"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_console_script_entrypoint(self, fixture_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "wikilink.cli", "stats",
             "--pairs", str(fixture_dir / "train.csv")],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert "Frequency" in proc.stdout

    # "subcommand --flag" -> its other arguments; the subcommand never reads the flag's setting.
    @pytest.mark.parametrize("case,rest", [
        ("train --no-debrace", ["--pairs", "p.csv", "--nodes", "n.tsv"]),
        ("predict --no-depunct", ["--model", "m.json", "--pairs", "p.csv", "--nodes", "n.tsv"]),
        ("prepare --no-balance", ["--pairs", "p.csv", "--nodes", "n.tsv"]),
        ("clean --max-tokens", ["3"]),
        ("clean --lenient-join", []),
        ("clean --report", []),
        ("prepare --unlabeled", ["--pairs", "p.csv", "--nodes", "n.tsv"]),
        ("predict --labeled", ["--model", "m.json", "--pairs", "p.csv", "--nodes", "n.tsv"]),
        ("predict --max-tokens",
         ["2", "--model", "m.json", "--pairs", "p.csv", "--nodes", "n.tsv"]),
    ])
    def test_unread_flag_is_a_usage_error(self, case, rest, capsys):
        command, flag = case.split()
        with pytest.raises(SystemExit) as exc:
            main([command, flag, *rest])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


_CONFIG = {"--config"}
_CLEAN_FLAGS = {"--no-balance", "--no-debrace", "--no-depunct", "--no-despace"}
_JOIN_FLAGS = {"--lenient-join"}
_TOKEN_FLAGS = {"--max-tokens"}
_TRAIN_FLAGS = {"--batch-size", "--learning-rate", "--epochs", "--seed", "--hash-bits",
                "--weight-decay", "--decision-threshold"}
# subcommand -> (its option strings besides -h/--help, the required ones)
CLI_SURFACE = {
    "clean": ({"--input", "--output"} | _CONFIG | _CLEAN_FLAGS, set()),
    "stats": ({"--pairs"}, {"--pairs"}),
    "prepare": ({"--pairs", "--nodes", "--output"} | _CONFIG | _JOIN_FLAGS | _TOKEN_FLAGS,
                {"--pairs", "--nodes"}),
    "train": ({"--pairs", "--nodes", "--model"} | _CONFIG | _JOIN_FLAGS | _TOKEN_FLAGS
              | _TRAIN_FLAGS, {"--pairs", "--nodes"}),
    "predict": ({"--model", "--pairs", "--nodes", "--output"} | _CONFIG | _JOIN_FLAGS,
                {"--model", "--pairs", "--nodes"}),
    "eval": ({"--predictions", "--pairs"}, {"--predictions", "--pairs"}),
    "submit": ({"--predictions", "--output"}, {"--predictions"}),
    "pipeline": ({"--nodes", "--train-pairs", "--test-pairs", "--output-dir", "--model"}
                 | _CONFIG | _CLEAN_FLAGS | _JOIN_FLAGS | _TOKEN_FLAGS | _TRAIN_FLAGS, set()),
}


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_cli_surface(command):
    (subparsers,) = [a for a in make_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(CLI_SURFACE)
    actions = [a for a in subparsers.choices[command]._actions if "--help" not in a.option_strings]
    options, required = CLI_SURFACE[command]
    assert {s for a in actions for s in a.option_strings} == options
    assert {s for a in actions if a.required for s in a.option_strings} == required


def _with(part, key, value):
    """An edit setting payload[part][key] = value, then writing the JSON."""
    def edit(payload):
        payload[part][key] = value
        return json.dumps(payload)
    return edit


def _set(**items):
    """An edit replacing top-level keys, then writing the JSON."""
    return lambda payload: json.dumps({**payload, **items})


def _b64(raw: bytes) -> str:
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


# The bad-model files hold a hash_bits 4 model: 20 slots, with the stored
# weights at 0, 2, 5 and 19, the last slot.
BAD_MODEL_CONFIG = baseline.TrainConfig(hash_bits=4)._asdict()
STORED = [0.5, -0.25, -0.0, 2.0]
STORED_BYTES = struct.pack("<4d", *STORED)
BAD_MODEL = {"format": baseline.MODEL_FORMAT, "layout": baseline.FEATURE_LAYOUT,
             "config": BAD_MODEL_CONFIG, "gaps": [0, 1, 2, 13], "weights": _b64(STORED_BYTES)}
V3_WEIGHTS = BAD_MODEL["weights"]

# case -> (edit turning the payload into file text, exit code of `predict`)
BAD_MODELS = {
    "int learning_rate": (_with("config", "learning_rate", 1), 0),  # JSON has one number type
    "truncated json": (lambda p: json.dumps(p)[:100], 2),
    "top-level list": (lambda p: json.dumps([p]), 2),
    "list nested too deep": (lambda p: "[" * 100_000 + "]" * 100_000, 2),
    "unknown config key": (_with("config", "bogus", 1), 3),
    "no config": (lambda p: json.dumps({k: v for k, v in p.items() if k != "config"}), 3),
    "string epochs": (_with("config", "epochs", "3"), 3),
    "bool epochs": (_with("config", "epochs", True), 3),
    "zero max_tokens": (_with("config", "max_tokens", 0), 3),
    "negative gap": (_with("gaps", 2, -1), 3),
    "bool gap": (_with("gaps", 1, True), 3),
    "float gap": (_with("gaps", 1, 1.0), 3),
    "gap past the end": (_with("gaps", 0, 1), 3),  # each later weight moves a slot too
    "gap of 2**70": (_with("gaps", 0, 2**70), 3),
    "fewer gaps than weights": (lambda p: json.dumps({**p, "gaps": p["gaps"][:-1]}), 3),
    "int of 5000 digits": (lambda p: json.dumps(p).replace('"seed": 0', '"seed": ' + "9" * 5000), 2),
    "v3 unchanged": (json.dumps, 0),
    "v3 weights a list": (_set(weights=STORED), 3),
    "v3 weights not ASCII": (_set(weights=V3_WEIGHTS[:-4] + "\u00e9" + V3_WEIGHTS[-3:]), 3),
    "v3 whitespace in weights": (_set(weights=V3_WEIGHTS[:8] + " " + V3_WEIGHTS[8:]), 3),
    "v3 newline after weights": (_set(weights=V3_WEIGHTS + "\n"), 3),
    "v3 padding missing": (_set(weights=V3_WEIGHTS.rstrip("=")), 3),
    "v3 padding doubled": (_set(weights=V3_WEIGHTS + "="), 3),
    "v3 7 bytes": (_set(weights=_b64(STORED_BYTES[:7])), 3),
    "v3 9 bytes": (_set(weights=_b64(STORED_BYTES[:8] + b"\0")), 3),
    "v3 one weight fewer than gaps": (_set(weights=_b64(STORED_BYTES[:-8])), 3),
    "v3 nan weight": (_set(weights=_b64(struct.pack("<4d", 0.5, math.nan, 1.0, 2.0))), 3),
    "v3 inf weight": (_set(weights=_b64(struct.pack("<4d", 0.5, 1.0, 1.0, -math.inf))), 3),
    "v3 gap past the end": (_set(gaps=[0, 1, 2, 14]), 3),
    "v3 unknown layout": (_set(layout=baseline.FEATURE_LAYOUT + ";x"), 3),
    "v3 no layout": (lambda p: json.dumps({k: v for k, v in p.items() if k != "layout"}), 3),
    "v3 extra top-level key": (_set(hash_bits=4), 3),
    "v3 format tag of a list": (_set(format=[baseline.MODEL_FORMAT]), 3),
}

# The same model in the v1 (dense) and v2 (JSON-number weights) files,
# which no release reads any more.
OLD_MODELS = {
    "wikilink-baseline-v1": {"config": BAD_MODEL_CONFIG, "hash_bits": 4,
                             "weights": [0.5, 0.0, -0.25, 0.0, 0.0, -0.0] + [0.0] * 13 + [2.0]},
    "wikilink-baseline-v2": {"config": BAD_MODEL_CONFIG, "gaps": [0, 1, 2, 13], "weights": STORED},
}


def _predict_model(fixture_dir, tmp_path, text: bytes) -> tuple[int, str]:
    """Run `predict` on a model file holding `text`: its exit code and stderr."""
    model = tmp_path / "model.json"
    model.write_bytes(text)
    out = tmp_path / "p.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(model),
                     "--pairs", str(fixture_dir / "test.csv"),
                     "--nodes", str(fixture_dir / "nodes.tsv"), "--output", str(out)])
    assert out.exists() == (code == 0)
    return code, err.getvalue()


@pytest.mark.parametrize("case", BAD_MODELS)
def test_bad_model_file_fails_closed(case, fixture_dir, tmp_path):
    edit, expected = BAD_MODELS[case]
    code, err = _predict_model(fixture_dir, tmp_path, edit(copy.deepcopy(BAD_MODEL)).encode())
    assert code == expected, err
    assert "Traceback" not in err
    assert code == 0 or "error [" in err


@pytest.mark.parametrize("old", OLD_MODELS)
def test_old_model_format_exits_3(old, fixture_dir, tmp_path):
    text = json.dumps({"format": old, **OLD_MODELS[old]}).encode()
    code, err = _predict_model(fixture_dir, tmp_path, text)
    assert code == 3
    assert f"error [validation]: unsupported model format '{old}'" in err


def _fuzzed(data, valid: bytes, starts: list[int], span: int) -> bytes:
    """Arbitrary bytes, or 1 to 4 byte-level replacements, insertions and
    deletions in `valid`, each at most `span` bytes past one of `starts`."""
    if data.draw(st.booleans(), label="arbitrary bytes"):
        return data.draw(st.binary(max_size=300), label="bytes")
    text = bytearray(valid)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        lo = min(data.draw(st.sampled_from(starts), label="from"), len(text))
        at = data.draw(st.integers(lo, min(lo + span, len(text))), label="at")
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="kind")
        byte = data.draw(st.binary(min_size=1, max_size=1), label="byte")
        if kind == "insert" or at == len(text):
            text[at:at] = byte
        elif kind == "replace":
            text[at:at + 1] = byte
        else:
            del text[at]
    return bytes(text)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_model_file_fails_closed(data, fixture_dir, tmp_path):
    """`predict` on arbitrary bytes, or on byte-level mutations of a valid
    v3 file, exits 0, 2 or 3, never with a traceback. Half the mutations
    land in the gaps and weights, the last sixth of the file."""
    valid = json.dumps(BAD_MODEL).encode()
    text = _fuzzed(data, valid, [0, valid.index(b'"gaps"')], len(valid))
    code, err = _predict_model(fixture_dir, tmp_path, text)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


FUZZ_CONFIG = b"""[clean]
debrace = true
depunct = false
[train]
max_tokens = 64
learning_rate = 0.01
[run]
strict_join = true
"""


@pytest.fixture(scope="module")
def fuzz_inputs(fixture_dir) -> dict[str, bytes]:
    """The valid input files the fuzz test mutates: the fixture's, a
    config file and a predictions file for train.csv."""
    inputs = {name: (fixture_dir / name).read_bytes()
              for name in ("nodes.tsv", "train.csv", "test.csv")}
    with open(fixture_dir / "train.csv") as f:
        ids = [p.pair_id for p in dataset.parse_pairs(f)]
    inputs["predictions.csv"] = ("id,prob,label\n" + "".join(
        f"{pair_id},{0.25 + k % 2 / 2},{k % 2}\n" for k, pair_id in enumerate(ids))).encode()
    inputs["config.ini"] = FUZZ_CONFIG
    return inputs


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_inputs_fail_closed(data, fuzz_inputs, tmp_path):
    """Every input file but the model, as arbitrary bytes or with byte-level
    mutations near the start of a line: `pipeline` (nodes, pairs files),
    `prepare --config` (config file), or `eval` and `submit` (predictions
    file) exit 0, 2, 3 or 4, never with a traceback."""
    name = data.draw(st.sampled_from(sorted(fuzz_inputs)), label="input")
    valid = fuzz_inputs[name]
    starts = [0] + [i + 1 for i, byte in enumerate(valid) if byte == ord("\n")]
    for file, text in fuzz_inputs.items():
        (tmp_path / file).write_bytes(_fuzzed(data, valid, starts, 40) if file == name else text)
    paths = {file: str(tmp_path / file) for file in fuzz_inputs}
    out = tmp_path / "out"
    if name == "predictions.csv":
        command = data.draw(st.sampled_from(["eval", "submit"]), label="command")
        argv = [command, "--predictions", paths[name], *(
            ["--pairs", paths["train.csv"]] if command == "eval" else ["--output", str(out / "s.csv")])]
    elif name == "config.ini":
        argv = ["prepare", "--config", paths[name], "--pairs", paths["train.csv"],
                "--nodes", paths["nodes.tsv"], "--output", str(out / "prepared.tsv")]
    else:
        argv = ["pipeline", "--nodes", paths["nodes.tsv"], "--train-pairs", paths["train.csv"],
                "--test-pairs", paths["test.csv"], "--output-dir", str(out),
                "--epochs", "1", "--hash-bits", "10"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
