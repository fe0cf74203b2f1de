"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from wikilink import baseline, dataset, evaluate, pairs, textclean
from wikilink.cli import main

from oracles import (
    brute_force_macro_f1,
    dense_gradient,
    numeric_gradient,
    reference_balance,
    reference_remove_spans,
    rows_from_dicts,
    run_stage,
    scalar_adamw_trace,
    write_pairs,
)

ALPHABET = "{}abcdefgXYZ "


def _random_corpus(n, max_len, seed):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))
        for _ in range(n)
    ]


def test_pseudocode_fidelity():
    start = time.monotonic()
    worked = ["{{foo}}", "{{{foo}}", "foo}} ", "plain text", "a{{b}}c",
              "x{a{b}c}y", "}{ab", ""]
    corpus = worked + _random_corpus(10_000, 40, seed=1)
    for text in corpus:
        assert run_stage(textclean.balance_curly_braces, text) == reference_balance(text)
        # the published accumulator starts as a single space; the library
        # deliberately starts empty, so strip that one-space prefix
        assert " " + run_stage(textclean.remove_brace_spans, text) == reference_remove_spans(text)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS pseudocode fidelity ({len(corpus)} strings, {elapsed:.2f}s)")


def test_cleaning_invariants():
    corpus = _random_corpus(10_000, 40, seed=2)
    violations = 0
    for text in corpus:
        balanced = run_stage(textclean.balance_curly_braces, text)
        if balanced.count("{") != balanced.count("}"):
            violations += 1
        out, _ = textclean.clean(text)
        again, _ = textclean.clean(out)
        if again != out:
            violations += 1
        if any(c in textclean.DEFAULT_PUNCTUATION for c in out):
            violations += 1
        if re.search(r"\s\s", out):
            violations += 1
    assert violations == 0
    print(f"\nPASS cleaning invariants (0 violations on {len(corpus)} strings)")


def test_table_one_reproduction(fixture_dir, fixture_manifest, capsys):
    def competition_multiset():
        for i in range(512_389):
            yield dataset.PairRecord(f"z{i}", 0, 1, 0)
        for i in range(435_843):
            yield dataset.PairRecord(f"o{i}", 0, 1, 1)

    stats = dataset.label_stats(competition_multiset())
    assert (stats.count_0, stats.count_1) == (512_389, 435_843)
    assert (stats.pct_0, stats.pct_1) == (54.03, 45.97)

    assert main(["stats", "--pairs", str(fixture_dir / "train.csv")]) == 0
    machine = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("stats ")
    )
    payload = json.loads(machine.split(" ", 1)[1])
    assert payload["count_0"] == fixture_manifest["count_0"]
    assert payload["count_1"] == fixture_manifest["count_1"]
    with capsys.disabled():
        print("\nPASS Table I reproduction (512,389/435,843 -> 54.03/45.97; fixture matches manifest)")


def test_metric_oracle():
    start = time.monotonic()

    def preds(labels):
        return [baseline.Prediction(f"p{i}", 0.5, y) for i, y in enumerate(labels)]

    def gold(labels):
        return [dataset.PairRecord(f"p{i}", 0, 1, y) for i, y in enumerate(labels)]

    cases = 0
    for g in itertools.product((0, 1), repeat=8):
        for p in itertools.product((0, 1), repeat=8):
            ours = evaluate.macro_f1(evaluate.confusion(preds(p), gold(g)))
            assert ours == brute_force_macro_f1(list(g), list(p))
            cases += 1
    elapsed = time.monotonic() - start
    assert cases == 65_536
    assert elapsed < 60.0
    print(f"\nPASS metric oracle (65,536 cases exact, {elapsed:.1f}s)")


def test_gradient_check():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        dim = 10
        batch = []
        for _ in range(rng.randint(1, 8)):
            feats = {i: rng.uniform(-2, 2) for i in rng.sample(range(dim), rng.randint(1, 5))}
            batch.append((feats, rng.randint(0, 1)))
        w = np.array([rng.uniform(-1, 1) for _ in range(dim)])

        def loss_fn(weights):
            total = 0.0
            for feats, label in batch:
                p = baseline.sigmoid(sum(weights[i] * x for i, x in feats.items()))
                total -= math.log(p + 1e-12) if label else math.log(1 - p + 1e-12)
            return total / len(batch)

        _, grad = baseline.logistic_loss_and_gradient(
            w, rows_from_dicts([f for f, _ in batch]), [y for _, y in batch])
        numeric = numeric_gradient(loss_fn, list(w))
        for i in range(dim):
            analytic = grad[i]
            denom = max(abs(numeric[i]), 1e-3)
            worst = max(worst, abs(analytic - numeric[i]) / denom)
    assert worst <= 1e-5
    print(f"\nPASS gradient check (100 instances, worst relative error {worst:.2e})")


def test_adamw_scalar_checks():
    cfg = baseline.TrainConfig(weight_decay=0.0)
    # single step from zero state, single-coordinate gradient
    dim = (1 << cfg.hash_bits) + baseline.DENSE_BLOCK_SIZE
    for g in (2.0, -0.5, 1e-3):
        state = baseline.AdamWState(cfg, dim)
        baseline.adamw_step(state, dense_gradient({1: g}, dim))
        expected = scalar_adamw_trace(
            0.0, [g], cfg.learning_rate, cfg.adamw_beta1, cfg.adamw_beta2,
            cfg.adamw_eps, 0.0,
        )
        assert abs(state.weights[1] - expected) <= 1e-12 * abs(expected)
    # decoupled decay with zero gradient
    decay_cfg = baseline.TrainConfig(weight_decay=0.25)
    state = baseline.AdamWState(decay_cfg, dim)
    state.weights[0] = 1.5
    baseline.adamw_step(state, dense_gradient({}, dim))
    expected = 1.5 - decay_cfg.learning_rate * 0.25 * 1.5
    assert abs(state.weights[0] - expected) <= 1e-12 * abs(expected)
    print("\nPASS AdamW scalar checks (rel tol 1e-12)")


def test_end_to_end_learnability(fixture_dir, tmp_path, capsys):
    def run(out_dir):
        return main([
            "pipeline",
            "--nodes", str(fixture_dir / "nodes.tsv"),
            "--train-pairs", str(fixture_dir / "train.csv"),
            "--test-pairs", str(fixture_dir / "test.csv"),
            "--output-dir", str(out_dir),
        ])

    start = time.monotonic()
    assert run(tmp_path / "a") == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0

    submission = (tmp_path / "a" / "submission.csv").read_text()
    assert len(submission.splitlines()) == 201

    assert main(["eval",
                 "--predictions", str(tmp_path / "a" / "predictions.csv"),
                 "--pairs", str(fixture_dir / "train.csv")]) == 0
    machine = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("eval ")
    )
    macro = json.loads(machine.split(" ", 1)[1])["macro_f1"]
    assert macro >= 0.95

    assert run(tmp_path / "b") == 0
    for name in ("model.json", "submission.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    with capsys.disabled():
        print(f"\nPASS end-to-end learnability (macro F1 {macro:.4f}, "
              f"{elapsed:.1f}s, rerun byte-identical)")


def test_format_fidelity(fixture_dir):
    import io

    # submission grammar
    predictions = [baseline.Prediction(f"p{i}", 0.5, i % 2) for i in range(5)]
    buf = io.StringIO()
    evaluate.emit_submission(predictions, buf)
    assert re.fullmatch(r"id,label\n(?:[^,\n]+,[01]\n)*", buf.getvalue())

    # round-trip parse equality for the bundled fixture files
    with open(fixture_dir / "nodes.tsv") as f:
        nodes = list(dataset.parse_nodes(f))
    buf = io.StringIO()
    dataset.write_nodes(nodes, buf)
    buf.seek(0)
    assert list(dataset.parse_nodes(buf)) == nodes

    for name, labeled in (("train.csv", True), ("test.csv", False)):
        with open(fixture_dir / name) as f:
            records = list(dataset.parse_pairs(f))
        buf = io.StringIO()
        write_pairs(records, buf, labeled=labeled)
        buf.seek(0)
        assert list(dataset.parse_pairs(buf)) == records
        # and the serialization is byte-identical to the file on disk
        assert buf.getvalue() == (fixture_dir / name).read_text()

    print("\nPASS format fidelity (submission grammar, fixture round-trips)")
