"""Command-line entry point wiring the full pipeline.

Subcommands: clean, stats, prepare, train, predict, eval, submit,
pipeline. Configuration precedence is flags > INI config file >
built-in defaults. Output files are written to a temp name and renamed
into place only on success. Exit codes: 0 ok, 2 parse, 3 validation,
4 io, 5 numeric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import operator
import os
import sys
from pathlib import Path

from . import baseline, dataset, evaluate, pairs as pairs_mod, textclean
from .errors import ParseError, PipelineError, ValidationError

EXIT_CODES = {"parse": 2, "validation": 3, "io": 4, "numeric": 5, "internal": 1}
OUTPUT_DIR = "out"  # the output directory of `pipeline`, and of `train`'s model, by default


def log(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def atomic_output(path: str):
    """Yield a text handle; stdout for '-', else temp-and-rename."""
    if path == "-":
        if sys.stdout is None:
            raise OSError("cannot write to stdout: the process has none")
        yield sys.stdout
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


@contextlib.contextmanager
def open_input(path: str):
    """A strict UTF-8 handle on `path`, or on stdin for '-'; lines end at LF only."""
    if path == "-":
        if sys.stdin is None:
            raise OSError("cannot read stdin: the process has none")
        handle = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
        try:
            yield handle
        finally:
            handle.detach()  # leaves the process's stdin open
    else:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            yield handle


# ---------------------------------------------------------------------------
# Settings


# INI section -> its keys. A flag whose argparse dest is one of these keys
# overrides the file.
_SECTION_KEYS = {
    "paths": ("nodes", "train_pairs", "test_pairs", "output_dir", "model"),
    "clean": textclean.STAGES,
    "train": tuple(baseline.TRAIN_FIELD_TYPES),
    "run": ("strict_join",),
}


def settings(args: argparse.Namespace) -> dict[str, dict]:
    """The settings given, by section: the --config file, then the flags over it.

    Every value is typed and range-checked whether or not the subcommand reads
    it; a bad one is a ValidationError. Values are literal (no % interpolation).
    """
    given: dict[str, dict] = {section: {} for section in _SECTION_KEYS}
    path = getattr(args, "config", None)
    try:
        if path:
            import configparser  # only a run with --config reads INI

            parser = configparser.ConfigParser(interpolation=None)
            # An unopenable file is an OSError (io). A UnicodeDecodeError is a ValueError: catch it
            # here, or the handler below calls it a bad setting.
            with open(path, encoding="utf-8") as handle:
                try:
                    parser.read_file(handle)
                except (configparser.Error, UnicodeDecodeError) as exc:
                    raise ParseError(f"config file {path}: {exc}") from exc
            if parser.defaults():
                raise ValidationError(f"[DEFAULT] options {sorted(parser.defaults())} in "
                                      f"{path}: each setting belongs in its own section")
            for section in parser.sections():
                if section not in _SECTION_KEYS:
                    raise ValidationError(f"unknown section [{section}] in {path}")
                for key, value in parser.items(section):
                    if key not in _SECTION_KEYS[section]:
                        raise ValidationError(f"unknown [{section}] option {key!r} in {path}")
                    if section == "train":
                        value = baseline.TRAIN_FIELD_TYPES[key](value)
                    elif section != "paths":  # [clean] and [run] hold booleans
                        value = parser.getboolean(section, key)
                    given[section][key] = value
        for section, keys in _SECTION_KEYS.items():
            given[section].update({key: getattr(args, key) for key in keys
                                   if getattr(args, key, None) is not None})
        baseline.TrainConfig(**given["train"])  # range-checks every [train] value given
    except ValueError as exc:
        raise ValidationError(f"bad setting: {exc}") from exc
    return given


def _model_path(paths: dict) -> str:
    return paths.get("model") or str(Path(paths.get("output_dir", OUTPUT_DIR)) / "model.json")


# ---------------------------------------------------------------------------
# Pipeline steps (shared by individual subcommands and `pipeline`)


def _clean_nodes(given: dict, in_path: str, out_path: str) -> dict[int, str]:
    """Clean every node, write the cleaned table, log the report line and return
    the table. The report adds `missing_text`: node lines with no tab, kept empty."""
    config = textclean.CleanConfig(**given["clean"])
    total = [0] * len(textclean.CleanReport._fields)  # the node reports, summed
    counters = dataset.ParseCounters()

    def cleaned(records):
        for rec in records:
            text, rep = textclean.clean(rec.text, config)
            total[:] = map(operator.add, total, rep)
            yield rec.id, text

    with open_input(in_path) as src:
        table = dict(cleaned(dataset.parse_nodes(src, counters)))
    with atomic_output(out_path) as dst:
        dataset.write_nodes(table.items(), dst)
    log(f"clean: {len(table)} nodes")
    report = textclean.CleanReport(*total)._asdict() | {"missing_text": counters.missing_text}
    log("clean-report " + json.dumps(report, sort_keys=True))
    return table


def _sentence_pairs(given: dict, pairs_path: str, nodes: str | dict[int, str],
                    tokens: pairs_mod.Tokens) -> list[pairs_mod.SentencePair]:
    """Join a pairs file against `nodes` (a node table, or a nodes file path)
    and build each sentence pair once, over the run's token table `tokens`."""
    if not isinstance(nodes, dict):
        with open_input(nodes) as src:
            nodes = dict(dataset.parse_nodes(src))
    counters = dataset.ParseCounters()
    with open_input(pairs_path) as src:
        joined = dataset.join_pairs(dataset.parse_pairs(src), nodes,
                                    given["run"].get("strict_join", True), counters)
        built = [pairs_mod.build_pair(*joined_pair, tokens) for joined_pair in joined]
    log(f"pairs: {len(built)} from {pairs_path}" + (
        f" ({counters.skipped_joins} skipped)" if counters.skipped_joins else ""))
    return built


def _train(config: baseline.TrainConfig, examples: list[pairs_mod.SentencePair],
           table: baseline.NodeTable, model_path: str) -> baseline.BaselineModel:
    log(f"train: {len(examples)} examples")
    model = baseline.train(examples, config, table)
    with atomic_output(model_path) as dst:
        baseline.save_model(model, dst)
    log(f"train: model written to {model_path}")
    return model


def _predict(model: baseline.BaselineModel, examples: list[pairs_mod.SentencePair],
             table: baseline.NodeTable, out_path: str) -> list[baseline.Prediction]:
    predictions = baseline.predict(model, examples, table)
    with atomic_output(out_path) as dst:
        evaluate.write_predictions(predictions, dst)
    log(f"predict: {len(predictions)} predictions")
    return predictions


def _submit(predictions: list[baseline.Prediction], out_path: str) -> None:
    with atomic_output(out_path) as dst:
        evaluate.emit_submission(predictions, dst)
    log(f"submit: {len(predictions)} rows")


# ---------------------------------------------------------------------------
# Subcommand handlers: each gets the parsed flags and the settings given


def _print_lines(*lines: str) -> None:
    """Print a report to stdout; a process with no stdout is an io error."""
    with atomic_output("-") as out:
        out.write("".join(line + "\n" for line in lines))


def cmd_clean(args: argparse.Namespace, given: dict) -> int:
    _clean_nodes(given, args.input, args.output)
    return 0


def cmd_stats(args: argparse.Namespace, given: dict) -> int:
    with open_input(args.pairs) as src:
        stats = dataset.label_stats(dataset.parse_pairs(src))
    _print_lines(f"{'':12s}{'Non-related (0)':>18s}{'Related (1)':>14s}",
                 f"{'Frequency':12s}{stats.count_0:>18,d}{stats.count_1:>14,d}",
                 f"{'Percentage':12s}{stats.pct_0:>17.2f}%{stats.pct_1:>13.2f}%",
                 "stats " + json.dumps(stats._asdict(), sort_keys=True))
    return 0


def cmd_prepare(args: argparse.Namespace, given: dict) -> int:
    tokens = pairs_mod.Tokens(baseline.TrainConfig(**given["train"]).max_tokens)
    built = _sentence_pairs(given, args.pairs, args.nodes, tokens)
    with atomic_output(args.output) as dst:
        pairs_mod.write_prepared(built, tokens, dst)
    return 0


def cmd_train(args: argparse.Namespace, given: dict) -> int:
    config = baseline.TrainConfig(**given["train"])
    tokens = pairs_mod.Tokens(config.max_tokens)
    examples = _sentence_pairs(given, args.pairs, args.nodes, tokens)
    _train(config, examples, baseline.NodeTable(tokens, config.hash_bits),
           _model_path(given["paths"]))
    return 0


def cmd_predict(args: argparse.Namespace, given: dict) -> int:
    """Score pairs, labeled or not, under the model's own training settings;
    a setting in the config's [train] section must equal the model's."""
    with open_input(args.model) as src:
        model = baseline.load_model(src)
    for key, value in given["train"].items():
        trained = getattr(model.config, key)
        if value != trained:
            raise ValidationError(
                f"[train] {key} {value} differs from the model's {key} {trained}")
    tokens = pairs_mod.Tokens(model.config.max_tokens)
    examples = _sentence_pairs(given, args.pairs, args.nodes, tokens)
    _predict(model, examples, baseline.NodeTable(tokens, model.config.hash_bits), args.output)
    return 0


def cmd_eval(args: argparse.Namespace, given: dict) -> int:
    with open_input(args.predictions) as src:
        predictions = list(evaluate.read_predictions(src))
    with open_input(args.pairs) as src:
        gold = list(dataset.parse_pairs(src))
    m = evaluate.confusion(predictions, gold)
    if not gold:  # the ids matched, so neither file holds a pair: there is nothing to score
        raise ValidationError("no pairs to evaluate")
    rep = evaluate.report(m)
    payload = rep._asdict() | {"matrix": m._asdict()}  # the matrix as an object, not a list
    _print_lines(
        f"pairs: {m.tp + m.fp + m.tn + m.fn}  tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}",
        f"class 0: precision={rep.precision_0:.4f} recall={rep.recall_0:.4f} f1={rep.f1_0:.4f}",
        f"class 1: precision={rep.precision_1:.4f} recall={rep.recall_1:.4f} f1={rep.f1_1:.4f}",
        f"macro F1: {rep.macro_f1:.5f}",
        "eval " + json.dumps(payload, sort_keys=True))
    return 0


def cmd_submit(args: argparse.Namespace, given: dict) -> int:
    with open_input(args.predictions) as src:
        predictions = list(evaluate.read_predictions(src))
    _submit(predictions, args.output)
    return 0


def cmd_pipeline(args: argparse.Namespace, given: dict) -> int:
    """Clean, prepare, train, predict and submit, parsing each input once.

    Both pairs files are read into one token table, and the cleaned nodes
    dropped, before anything past `nodes.clean.tsv` is written. One node table
    serves training and prediction. `prepared.tsv` is written from the very list
    the model trains on, once training has accepted it, so an input error of any
    kind leaves only `nodes.clean.tsv`. The model and predictions are used from
    memory; the JSON float round trip is exact, so this matches reading them back.
    """
    paths = given["paths"]
    for name in ("nodes", "train_pairs", "test_pairs"):
        if not paths.get(name):
            raise ValidationError(f"pipeline requires a {name} path (flag or config file)")
        if not Path(paths[name]).exists():
            raise FileNotFoundError(f"{name} path does not exist: {paths[name]}")
    out = Path(paths.get("output_dir", OUTPUT_DIR))
    config = baseline.TrainConfig(**given["train"])
    nodes = _clean_nodes(given, paths["nodes"], str(out / "nodes.clean.tsv"))
    tokens = pairs_mod.Tokens(config.max_tokens)
    examples = _sentence_pairs(given, paths["train_pairs"], nodes, tokens)
    tests = _sentence_pairs(given, paths["test_pairs"], nodes, tokens)
    del nodes  # both files are tokenized: the cleaned text is not read again
    table = baseline.NodeTable(tokens, config.hash_bits)
    model = _train(config, examples, table, _model_path(paths))
    with atomic_output(str(out / "prepared.tsv")) as dst:
        pairs_mod.write_prepared(examples, tokens, dst)
    _submit(_predict(model, tests, table, str(out / "predictions.csv")),
            str(out / "submission.csv"))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


_REQUIRED = {"required": True}
_STDOUT = ("--output", {"default": "-"})
# Flag groups. Each flag's dest is the settings key it overrides; a flag
# not given leaves None there, so the config file or the default holds.
_OFF = {"action": "store_false", "default": None}
_FLAG_GROUPS = {
    "clean": [(f"--no-{stage}", {**_OFF, "dest": stage,
                                 "help": f"disable the {stage} cleaning stage"})
              for stage in textclean.STAGES],
    "join": [("--lenient-join", {**_OFF, "dest": "strict_join",
                                 "help": "skip pairs with a missing node instead of failing"})],
    "tokens": [("--max-tokens", {"type": int, "help": "per-side token budget (default "
                 f"{baseline.TrainConfig._field_defaults['max_tokens']})"})],
    "train": [("--" + key.replace("_", "-"), {"type": baseline.TRAIN_FIELD_TYPES[key]})
              for key in ("batch_size", "learning_rate", "epochs", "seed", "hash_bits",
                          "weight_decay", "decision_threshold")],
}
# name -> (handler, help, its own arguments, flag groups). A subcommand with
# flag groups also takes --config, and takes only the settings it reads.
COMMANDS = {
    "clean": (cmd_clean, "clean a nodes TSV", [
        ("--input", {"default": "-", "help": "nodes TSV path or - for stdin"}),
        ("--output", {"default": "-", "help": "cleaned TSV path or - for stdout"}),
    ], ("clean",)),
    "stats": (cmd_stats, "label statistics of a labeled pairs CSV",
              [("--pairs", _REQUIRED)], ()),
    "prepare": (cmd_prepare, "build prepared premise/hypothesis pairs", [
        ("--pairs", _REQUIRED), ("--nodes", _REQUIRED), _STDOUT,
    ], ("join", "tokens")),
    "train": (cmd_train, "train the baseline classifier", [
        ("--pairs", _REQUIRED), ("--nodes", _REQUIRED),
        ("--model", {"help": "output model file"}),
    ], ("join", "tokens", "train")),
    "predict": (cmd_predict, "score pairs with a trained model", [
        ("--model", _REQUIRED), ("--pairs", _REQUIRED), ("--nodes", _REQUIRED), _STDOUT,
    ], ("join",)),
    "eval": (cmd_eval, "macro-F1 report for predictions vs gold", [
        ("--predictions", _REQUIRED), ("--pairs", {"required": True, "help": "labeled pairs CSV"}),
    ], ()),
    "submit": (cmd_submit, "write the competition submission CSV",
               [("--predictions", _REQUIRED), _STDOUT], ()),
    "pipeline": (cmd_pipeline, "clean, prepare, train, predict, submit", [
        ("--nodes", {}), ("--train-pairs", {}), ("--test-pairs", {}), ("--output-dir", {}),
        ("--model", {}),
    ], ("clean", "join", "tokens", "train")),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikilink",
        description="Wikipedia link prediction as sentence-pair classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments, groups) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if groups:
            arguments = [*arguments, ("--config", {"help": "INI config file; flags override it"}),
                         *(flag for group in groups for flag in _FLAG_GROUPS[group])]
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args, settings(args))
    except PipelineError as exc:
        log(f"error [{exc.category}]: {exc}")
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        log(f"error [io]: {exc}")
        return EXIT_CODES["io"]
    except UnicodeDecodeError as exc:
        log(f"error [parse]: {exc}")
        return EXIT_CODES["parse"]


if __name__ == "__main__":
    sys.exit(main())
