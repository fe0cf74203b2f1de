"""Command-line entry point wiring the full pipeline.

Subcommands: clean, stats, prepare, train, predict, eval, submit,
pipeline. Configuration precedence is flags > INI config file >
built-in defaults. Output files are written to a temp name and renamed
into place only on success. Exit codes: 0 ok, 2 parse, 3 validation,
4 io, 5 numeric.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import baseline, dataset, evaluate, pairs as pairs_mod, textclean
from .errors import ParseError, PipelineError, ValidationError

EXIT_CODES = {"parse": 2, "validation": 3, "io": 4, "numeric": 5, "internal": 1}


def log(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def atomic_output(path: str | None):
    """Yield a text handle; stdout for '-' or None, else temp-and-rename."""
    if path is None or path == "-":
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
def open_input(path: str | None):
    if path is None or path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            yield handle


# ---------------------------------------------------------------------------
# Configuration


@dataclasses.dataclass
class PipelineConfig:
    nodes: str | None = None
    train_pairs: str | None = None
    test_pairs: str | None = None
    output_dir: str = "out"
    model: str | None = None
    clean: textclean.CleanConfig = dataclasses.field(default_factory=textclean.CleanConfig)
    # Also owns the per-side token budget (max_tokens), which model.json records.
    train: baseline.TrainConfig = dataclasses.field(default_factory=baseline.TrainConfig)
    strict_join: bool = True

    def path(self, name: str) -> str:
        explicit = getattr(self, name, None)
        if isinstance(explicit, str) and explicit:
            return explicit
        return str(Path(self.output_dir) / {
            "model": "model.json",
            "cleaned_nodes": "nodes.clean.tsv",
            "prepared": "prepared.tsv",
            "predictions": "predictions.csv",
            "submission": "submission.csv",
        }[name])


_PATH_KEYS = ("nodes", "train_pairs", "test_pairs", "output_dir", "model")
_SECTION_KEYS = {
    "paths": _PATH_KEYS,
    "clean": textclean.STAGES,
    "train": tuple(baseline.TRAIN_FIELD_TYPES),
    "run": ("strict_join",),
}


def _read_config_file(path: str, train: baseline.TrainConfig) -> PipelineConfig:
    parser = configparser.ConfigParser()
    parser.read_dict({section: {} for section in _SECTION_KEYS})
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ParseError(f"config file {path}: {exc}") from exc
    if not read:
        raise ParseError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ValidationError(f"unknown [{section}] option {key!r} in {path}")
    return PipelineConfig(
        **{key: parser.get("paths", key) for key in parser.options("paths")},
        clean=textclean.CleanConfig(stage_mask=tuple(
            s for s in textclean.STAGES if parser.getboolean("clean", s, fallback=True)
        )),
        train=dataclasses.replace(train, **{
            key: baseline.TRAIN_FIELD_TYPES[key](parser.get("train", key))
            for key in parser.options("train")
        }),
        strict_join=parser.getboolean("run", "strict_join", fallback=True),
    )


def build_config(args: argparse.Namespace,
                 train: baseline.TrainConfig | None = None) -> PipelineConfig:
    """Flags over the config file over defaults; a bad value is a ValidationError.

    `train` is the base under the [train] keys and flags (default TrainConfig()).
    """
    if train is None:
        train = baseline.TrainConfig()
    try:
        cfg = (_read_config_file(args.config, train) if getattr(args, "config", None)
               else PipelineConfig(train=train))
        for key in _PATH_KEYS:
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, key, value)
        cfg.train = dataclasses.replace(cfg.train, **{
            key: getattr(args, key)
            for key in baseline.TRAIN_FIELD_TYPES
            if getattr(args, key, None) is not None
        })
        cfg.clean = textclean.CleanConfig(stage_mask=tuple(
            s for s in cfg.clean.stage_mask if not getattr(args, f"no_{s}", False)
        ))
    except ValueError as exc:
        raise ValidationError(f"bad setting: {exc}") from exc
    if getattr(args, "lenient_join", False):
        cfg.strict_join = False
    return cfg


# ---------------------------------------------------------------------------
# Pipeline steps (shared by individual subcommands and `pipeline`)


def _clean_nodes(cfg: PipelineConfig, in_path: str | None, out_path: str | None,
                 want_report: bool) -> dict[int, dataset.NodeRecord]:
    """Clean every node, write the cleaned table and return it. The report
    line adds `missing_text`: node lines with no tab, kept with empty text."""
    aggregate = textclean.CleanReport()
    counters = dataset.ParseCounters()

    def cleaned(records):
        for rec in records:
            text, rep = textclean.clean(rec.text, cfg.clean)
            aggregate.merge(rep)
            yield dataset.NodeRecord(rec.id, text)

    with open_input(in_path) as src:
        table = dataset.build_node_table(cleaned(dataset.parse_nodes(src, counters)))
    with atomic_output(out_path) as dst:
        dataset.write_nodes(table.values(), dst)
    log(f"clean: {len(table)} nodes")
    if want_report:
        report = dataclasses.asdict(aggregate) | {"missing_text": counters.missing_text}
        log("clean-report " + json.dumps(report, sort_keys=True))
    return table


def _read_node_table(nodes_path: str) -> dict[int, dataset.NodeRecord]:
    with open_input(nodes_path) as src:
        return dataset.build_node_table(dataset.parse_nodes(src))


def _sentence_pairs(cfg: PipelineConfig, pairs_path: str,
                    table: dict[int, dataset.NodeRecord], labeled: bool,
                    tokens: dict[int, tuple[str, ...]] | None = None,
                    ) -> list[pairs_mod.SentencePair]:
    """Join a pairs file against `table` and build each sentence pair once,
    tokenizing each node once. `tokens` (node id -> token tuple) may be
    passed to several calls under one max_tokens, so they share it."""
    if tokens is None:
        tokens = {}
    counters = dataset.ParseCounters()
    with open_input(pairs_path) as src:
        joined = dataset.join_pairs(
            dataset.parse_pairs(src, labeled=labeled), table,
            strict=cfg.strict_join, counters=counters,
        )
        built = [pairs_mod.build_pair(pair, n1.text, n2.text, cfg.train.max_tokens, tokens)
                 for pair, n1, n2 in joined]
    log(f"pairs: {len(built)} from {pairs_path}" + (
        f" ({counters.skipped_joins} skipped)" if counters.skipped_joins else ""))
    return built


def _train(cfg: PipelineConfig, examples: list[pairs_mod.SentencePair],
           model_path: str) -> baseline.BaselineModel:
    log(f"train: {len(examples)} examples")
    model = baseline.train(examples, cfg.train)
    with atomic_output(model_path) as dst:
        baseline.save_model(model, dst)
    log(f"train: model written to {model_path}")
    return model


def _predict(model: baseline.BaselineModel, examples: list[pairs_mod.SentencePair],
             out_path: str | None) -> list[baseline.Prediction]:
    predictions = baseline.predict(model, examples)
    with atomic_output(out_path) as dst:
        evaluate.write_predictions(predictions, dst)
    log(f"predict: {len(predictions)} predictions")
    return predictions


def _submit(predictions: list[baseline.Prediction], out_path: str | None) -> None:
    with atomic_output(out_path) as dst:
        count = evaluate.emit_submission(predictions, dst)
    log(f"submit: {count} rows")


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_clean(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _clean_nodes(cfg, args.input, args.output, args.report)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with open_input(args.pairs) as src:
        stats = dataset.label_stats(dataset.parse_pairs(src, labeled=True))
    print(f"{'':12s}{'Non-related (0)':>18s}{'Related (1)':>14s}")
    print(f"{'Frequency':12s}{stats.count_0:>18,d}{stats.count_1:>14,d}")
    print(f"{'Percentage':12s}{stats.pct_0:>17.2f}%{stats.pct_1:>13.2f}%")
    print("stats " + json.dumps(dataclasses.asdict(stats), sort_keys=True))
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    built = _sentence_pairs(cfg, args.pairs, _read_node_table(args.nodes),
                            labeled=not args.unlabeled)
    with atomic_output(args.output) as dst:
        pairs_mod.write_prepared(built, dst)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    examples = _sentence_pairs(cfg, args.pairs, _read_node_table(args.nodes), labeled=True)
    _train(cfg, examples, args.model_out or cfg.path("model"))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Score pairs under the model's own training settings; a setting from
    --max-tokens or the config's [train] section must equal the model's."""
    with open_input(args.model_file) as src:
        model = baseline.load_model(src)
    cfg = build_config(args, train=model.config)
    for key in baseline.TRAIN_FIELD_TYPES:
        given, trained = getattr(cfg.train, key), getattr(model.config, key)
        if given != trained:
            raise ValidationError(
                f"{key} {given} (flag or [train]) differs from the model's {key} {trained}")
    examples = _sentence_pairs(cfg, args.pairs, _read_node_table(args.nodes),
                               labeled=args.labeled)
    _predict(model, examples, args.output)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    with open_input(args.predictions) as src:
        predictions = list(evaluate.read_predictions(src))
    with open_input(args.pairs) as src:
        gold = list(dataset.parse_pairs(src, labeled=True))
    rep = evaluate.report(evaluate.confusion(predictions, gold))
    m = rep.matrix
    print(f"pairs: {m.tp + m.fp + m.tn + m.fn}  tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}")
    print(f"class 0: precision={rep.precision_0:.4f} recall={rep.recall_0:.4f} f1={rep.f1_0:.4f}")
    print(f"class 1: precision={rep.precision_1:.4f} recall={rep.recall_1:.4f} f1={rep.f1_1:.4f}")
    print(f"macro F1: {rep.macro_f1:.5f}")
    payload = dataclasses.asdict(rep)
    print("eval " + json.dumps(payload, sort_keys=True))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    with open_input(args.predictions) as src:
        predictions = list(evaluate.read_predictions(src))
    _submit(predictions, args.output)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Clean, prepare, train, predict and submit, parsing each input once.

    `prepared.tsv` is written from the very list the model trains on. The
    model and predictions are used from memory; the JSON float round trip
    is exact, so this matches reading them back.
    """
    cfg = build_config(args)
    for name, value in (("nodes", cfg.nodes), ("train_pairs", cfg.train_pairs),
                        ("test_pairs", cfg.test_pairs)):
        if not value:
            raise ValidationError(f"pipeline requires a {name} path (flag or config file)")
        if not Path(value).exists():
            raise FileNotFoundError(f"{name} path does not exist: {value}")
    table = _clean_nodes(cfg, cfg.nodes, cfg.path("cleaned_nodes"), want_report=True)
    # One token cache for both files: both are cut at cfg.train.max_tokens,
    # so a node in both is tokenized once and its pairs share one tuple.
    tokens: dict[int, tuple[str, ...]] = {}
    examples = _sentence_pairs(cfg, cfg.train_pairs, table, labeled=True, tokens=tokens)
    with atomic_output(cfg.path("prepared")) as dst:
        pairs_mod.write_prepared(examples, dst)
    model = _train(cfg, examples, cfg.path("model"))
    # Built only after training, so test tokens never sit beside the
    # featurized training set.
    tests = _sentence_pairs(cfg, cfg.test_pairs, table, labeled=False, tokens=tokens)
    _submit(_predict(model, tests, cfg.path("predictions")), cfg.path("submission"))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _config_flags(p: argparse.ArgumentParser, *groups: str) -> None:
    """--config plus the named flag groups, so a subcommand takes only the
    settings its handler reads; any other flag is a usage error."""
    p.add_argument("--config", help="INI config file; flags override it")
    if "clean" in groups:
        for stage in textclean.STAGES:
            p.add_argument(f"--no-{stage}", action="store_true",
                           help=f"disable the {stage} cleaning stage")
    if "pairs" in groups:
        p.add_argument("--lenient-join", action="store_true",
                       help="skip pairs referencing missing nodes instead of failing")
        p.add_argument("--max-tokens", type=int, help="per-side token budget (default 128)")
    if "train" in groups:
        for key in ("batch_size", "learning_rate", "epochs", "seed", "hash_bits",
                    "weight_decay", "decision_threshold"):
            p.add_argument("--" + key.replace("_", "-"), type=baseline.TRAIN_FIELD_TYPES[key])


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikilink",
        description="Wikipedia link prediction as sentence-pair classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="clean a nodes TSV")
    p.add_argument("--input", default="-", help="nodes TSV path or - for stdin")
    p.add_argument("--output", default="-", help="cleaned TSV path or - for stdout")
    p.add_argument("--report", action="store_true",
                   help="emit an aggregate cleaning report line")
    _config_flags(p, "clean")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("stats", help="label statistics of a labeled pairs CSV")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("prepare", help="build prepared premise/hypothesis pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--unlabeled", action="store_true")
    _config_flags(p, "pairs")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the baseline classifier")
    p.add_argument("--pairs", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--model", dest="model_out", help="output model file")
    _config_flags(p, "pairs", "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score pairs with a trained model")
    p.add_argument("--model", dest="model_file", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--labeled", action="store_true",
                   help="pairs file carries labels (evaluation runs)")
    _config_flags(p, "pairs")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="macro-F1 report for predictions vs gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--pairs", required=True, help="labeled pairs CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("submit", help="write the competition submission CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("pipeline", help="clean, prepare, train, predict, submit")
    p.add_argument("--nodes")
    p.add_argument("--train-pairs", dest="train_pairs")
    p.add_argument("--test-pairs", dest="test_pairs")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--model")
    _config_flags(p, "clean", "pairs", "train")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
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
