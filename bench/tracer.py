"""Traced in-process run of the wikilink CLI, for the per-layer metrics.

Wraps the public functions of the six modules from outside, calls
`wikilink.cli.main(argv)` once in this process, and writes the per-layer
metrics as JSON:

    PYTHONPATH=src python3 bench/tracer.py --result r.json --spans s.tsv -- pipeline ...

Three kinds of wrapper:

- a span (name, start, end, parent) around each call of a function that
  runs once per node, pair or batch;
- a span around each `next()` of a generator, so streaming parsers are
  timed where they do their work and not where they are created;
- a bare counter on `fnv1a_64`, which runs millions of times per run. It
  counts calls and distinct outputs (64-bit hashes, standing in for their
  inputs) and keeps every 64th input; `baseline.fnv_s` is the time to
  replay that sample, scaled to the call count.

Spans stay in memory and are written once, after the run. A function the
program no longer has is reported as absent, and so is every metric
that needs it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

SPANNED = {
    "textclean": ("clean", "balance_curly_braces", "remove_brace_spans",
                  "strip_punctuation", "normalize_whitespace"),
    "dataset": ("build_node_table",),
    "pairs": ("build_pair", "write_prepared"),
    "baseline": ("train", "featurize", "logistic_loss_and_gradient", "adamw_step",
                 "predict", "save_model", "load_model"),
    "evaluate": ("write_predictions", "emit_submission"),
}
GENERATORS = {
    "dataset": ("parse_nodes", "parse_pairs", "join_pairs"),
    "evaluate": ("read_predictions",),
}
FNV = ("baseline", "fnv1a_64")
FNV_SAMPLE_EVERY = 64  # power of two: the wrapper tests `calls & (N - 1)`
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.fnv: _FnvCounter | None = None

    def _open(self):
        self.spans.append(None)
        self.stack.append(len(self.spans) - 1)
        return time.perf_counter()

    def _close(self, name, start):
        end = time.perf_counter()
        idx = self.stack.pop()
        self.spans[idx] = (name, start, end, self.stack[-1] if self.stack else -1)

    def span(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if observe is not None:
                observe(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    def generator(self, name, fn):
        tracer = self

        class Traced:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                start = tracer._open()
                try:
                    item = next(self.inner)
                finally:
                    tracer._close(name, start)
                tracer.counts[name + ".items"] += 1
                return item

        return functools.wraps(fn)(lambda *args, **kwargs: Traced(fn(*args, **kwargs)))

    def observer(self, name):
        counts = self.counts

        def clean(args, result):
            counts["textclean.chars_in"] += len(args[0])
            counts["textclean.chars_removed_debrace"] += result[1].chars_removed_debrace

        def build_pair(args, result):
            for text, kept in ((args[1], result.premise_tokens), (args[2], result.hypothesis_tokens)):
                n = len(kept)
                counts["pairs.truncated_sides"] += len(text.split(None, n)) > n
            counts["pairs.sides"] += 2

        def featurize(args, result):
            counts["baseline.nnz"] += len(result)

        return {"textclean.clean": clean, "pairs.build_pair": build_pair,
                "baseline.featurize": featurize}.get(name)

    def install(self, modules) -> list:
        """Patch module attributes; returns (module, attr, original) to restore."""
        patched = []
        for kind, table in (("span", SPANNED), ("gen", GENERATORS)):
            for mod_name, funcs in table.items():
                module = modules[mod_name]
                for func in funcs:
                    original = getattr(module, func, None)
                    if original is None:
                        continue
                    name = f"{mod_name}.{func}"
                    self.present.add(name)
                    wrapped = (self.span(name, original, self.observer(name)) if kind == "span"
                               else self.generator(name, original))
                    setattr(module, func, wrapped)
                    patched.append((module, func, original))
        module = modules[FNV[0]]
        original = getattr(module, FNV[1], None)
        if original is not None:
            self.present.add("baseline.fnv1a_64")
            self.fnv = _FnvCounter(original)
            setattr(module, FNV[1], self.fnv.wrapper)
            patched.append((module, FNV[1], original))
        return patched

    def totals(self):
        """Inclusive and self seconds, and call counts, per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        children = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        exclusive: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            exclusive[name] += end - start - child
        return inclusive, exclusive, calls


class _FnvCounter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seen: set[int] = set()
        self.sample: list[bytes] = []
        seen_add, sample_append, mask = self.seen.add, self.sample.append, FNV_SAMPLE_EVERY - 1

        def wrapper(data):
            self.calls += 1
            if not self.calls & mask:
                sample_append(data)
            h = fn(data)
            seen_add(h)
            return h

        self.wrapper = functools.wraps(fn)(wrapper)

    def replay_seconds(self) -> float:
        """Seconds `fnv1a_64` takes for all calls, from the median of 3 sample replays."""
        if not self.sample:
            return 0.0
        fn, times = self.fn, []
        for _ in range(3):
            start = time.perf_counter()
            for data in self.sample:
                fn(data)
            times.append(time.perf_counter() - start)
        return statistics.median(times) / len(self.sample) * self.calls


# Per-layer metric -> the traced functions it needs. Each is computed in
# `layer_metrics`; `_s` metrics are inclusive seconds unless noted.
NEEDS = {
    "textclean.clean_s": ["textclean.clean"],
    "textclean.balance_s": ["textclean.balance_curly_braces"],
    "textclean.debrace_s": ["textclean.remove_brace_spans"],
    "textclean.depunct_s": ["textclean.strip_punctuation"],
    "textclean.despace_s": ["textclean.normalize_whitespace"],
    "textclean.chars_in": ["textclean.clean"],
    "textclean.chars_removed_debrace": ["textclean.clean"],
    "dataset.parse_nodes_s": ["dataset.parse_nodes"],
    "dataset.node_rows_parsed": ["dataset.parse_nodes"],
    "dataset.parse_pairs_s": ["dataset.parse_pairs"],
    "dataset.join_s": ["dataset.join_pairs"],
    "pairs.build_s": ["pairs.build_pair"],
    "pairs.pairs_built": ["pairs.build_pair"],
    "pairs.truncated_side_frac": ["pairs.build_pair"],
    "pairs.write_prepared_s": ["pairs.write_prepared"],
    "baseline.train_s": ["baseline.train"],
    "baseline.featurize_s": ["baseline.featurize"],
    "baseline.featurize_calls": ["baseline.featurize"],
    "baseline.nnz_per_pair": ["baseline.featurize"],
    "baseline.loss_grad_s": ["baseline.logistic_loss_and_gradient"],
    "baseline.adamw_s": ["baseline.adamw_step"],
    "baseline.adamw_steps": ["baseline.adamw_step"],
    "baseline.fnv_calls": ["baseline.fnv1a_64"],
    "baseline.fnv_s": ["baseline.fnv1a_64"],
    "baseline.hash_key_distinct_frac": ["baseline.fnv1a_64"],
    "baseline.predict_s": ["baseline.predict"],
    "baseline.load_model_s": ["baseline.load_model"],
    "baseline.save_model_s": ["baseline.save_model"],
    "evaluate.write_predictions_s": ["evaluate.write_predictions"],
    "evaluate.read_predictions_s": ["evaluate.read_predictions"],
    "evaluate.emit_submission_s": ["evaluate.emit_submission"],
    "cli.pipeline_s": [],
    "cli.self_s": [],
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    inclusive, exclusive, calls = tracer.totals()
    counts = tracer.counts
    fnv = tracer.fnv

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "textclean.clean_s": inclusive["textclean.clean"],
        "textclean.balance_s": inclusive["textclean.balance_curly_braces"],
        "textclean.debrace_s": inclusive["textclean.remove_brace_spans"],
        "textclean.depunct_s": inclusive["textclean.strip_punctuation"],
        "textclean.despace_s": inclusive["textclean.normalize_whitespace"],
        "textclean.chars_in": counts["textclean.chars_in"],
        "textclean.chars_removed_debrace": counts["textclean.chars_removed_debrace"],
        "dataset.parse_nodes_s": inclusive["dataset.parse_nodes"],
        "dataset.node_rows_parsed": counts["dataset.parse_nodes.items"],
        "dataset.parse_pairs_s": inclusive["dataset.parse_pairs"],
        # Self time: without the parse_pairs items that join_pairs pulls.
        "dataset.join_s": exclusive["dataset.join_pairs"],
        "pairs.build_s": inclusive["pairs.build_pair"],
        "pairs.pairs_built": calls["pairs.build_pair"],
        "pairs.truncated_side_frac": ratio(counts["pairs.truncated_sides"], counts["pairs.sides"]),
        "pairs.write_prepared_s": inclusive["pairs.write_prepared"],
        "baseline.train_s": inclusive["baseline.train"],
        "baseline.featurize_s": inclusive["baseline.featurize"],
        "baseline.featurize_calls": calls["baseline.featurize"],
        "baseline.nnz_per_pair": ratio(counts["baseline.nnz"], calls["baseline.featurize"]),
        "baseline.loss_grad_s": inclusive["baseline.logistic_loss_and_gradient"],
        "baseline.adamw_s": inclusive["baseline.adamw_step"],
        "baseline.adamw_steps": calls["baseline.adamw_step"],
        "baseline.predict_s": inclusive["baseline.predict"],
        "baseline.load_model_s": inclusive["baseline.load_model"],
        "baseline.save_model_s": inclusive["baseline.save_model"],
        "evaluate.write_predictions_s": inclusive["evaluate.write_predictions"],
        "evaluate.read_predictions_s": inclusive["evaluate.read_predictions"],
        "evaluate.emit_submission_s": inclusive["evaluate.emit_submission"],
        "cli.pipeline_s": inclusive[ROOT_SPAN],
        # Glue and file I/O: the root span minus the spans directly under it.
        "cli.self_s": exclusive[ROOT_SPAN],
    }
    if fnv is not None:
        values["baseline.fnv_calls"] = fnv.calls
        values["baseline.fnv_s"] = fnv.replay_seconds()
        values["baseline.hash_key_distinct_frac"] = ratio(len(fnv.seen), fnv.calls)
    absent = sorted(m for m, need in NEEDS.items() if not all(n in tracer.present for n in need))
    return {m: v for m, v in values.items() if m not in absent}, absent


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process wikilink run")
    parser.add_argument("--result", required=True, help="per-layer metrics JSON to write")
    parser.add_argument("--spans", required=True, help="span table (TSV) to write")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the wikilink arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    modules = {m: importlib.import_module(f"wikilink.{m}")
               for m in ("textclean", "dataset", "pairs", "baseline", "evaluate", "cli")}
    tracer = Tracer()
    patched = tracer.install(modules)
    tracer.present.add(ROOT_SPAN)
    try:
        code = tracer.span(ROOT_SPAN, modules["cli"].main)(argv)
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
    metrics, absent = layer_metrics(tracer)
    with open(args.spans, "w", encoding="utf-8") as out:
        out.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            out.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
    with open(args.result, "w", encoding="utf-8") as out:
        json.dump({"exit_code": code, "main_s": metrics.get("cli.pipeline_s"),
                   "metrics": metrics, "absent": absent}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
