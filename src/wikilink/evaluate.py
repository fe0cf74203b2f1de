"""Binary macro-F1 evaluation, and the predictions and submission files.

This module owns both files: it writes them, and reads predictions back
through `dataset.read_csv`, which holds the CSV line, id and label rules.

Class 1 is the positive class for the confusion matrix; macro F1 always
averages over both classes {0, 1} whether or not both appear. Undefined
precision/recall/F1 (zero denominator) evaluate to 0.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, NamedTuple

from .baseline import Prediction
from .dataset import PairRecord, read_csv
from .errors import ParseError, ValidationError


class ConfusionMatrix(NamedTuple):
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


class EvalReport(NamedTuple):
    precision_0: float
    recall_0: float
    f1_0: float
    precision_1: float
    recall_1: float
    f1_1: float
    macro_f1: float


_MISMATCH_CAP = 10


def confusion(predictions: Iterable[Prediction], gold: Iterable[PairRecord]) -> ConfusionMatrix:
    """Count by exact pair_id match; both sides must cover the same ids, each once."""
    pred_by_id: dict[str, int] = {}
    for p in predictions:
        if p.pair_id in pred_by_id:
            raise ValidationError(f"duplicate prediction id {p.pair_id}")
        pred_by_id[p.pair_id] = p.label
    gold_by_id: dict[str, int] = {}
    for g in gold:
        if g.label is None:
            raise ValidationError(f"gold pair {g.pair_id} is unlabeled")
        if g.pair_id in gold_by_id:
            raise ValidationError(f"duplicate gold id {g.pair_id}")
        gold_by_id[g.pair_id] = g.label

    only_pred = sorted(pred_by_id.keys() - gold_by_id.keys())
    only_gold = sorted(gold_by_id.keys() - pred_by_id.keys())
    if only_pred or only_gold:
        parts = []
        if only_pred:
            parts.append("prediction-only ids: " + ", ".join(only_pred[:_MISMATCH_CAP]))
        if only_gold:
            parts.append("gold-only ids: " + ", ".join(only_gold[:_MISMATCH_CAP]))
        raise ValidationError("pair id coverage mismatch; " + "; ".join(parts))

    tp = fp = tn = fn = 0
    for pair_id, y in gold_by_id.items():
        yhat = pred_by_id[pair_id]
        if y == 1 and yhat == 1:
            tp += 1
        elif y == 0 and yhat == 1:
            fp += 1
        elif y == 0 and yhat == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionMatrix(tp, fp, tn, fn)


def _prf(true_pos: int, pred_pos: int, actual_pos: int) -> tuple[float, float, float]:
    precision = true_pos / pred_pos if pred_pos else 0.0
    recall = true_pos / actual_pos if actual_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def report(matrix: ConfusionMatrix) -> EvalReport:
    # Class 1 positive: tp/fp/fn as stored. Class 0 positive: roles swap.
    p1, r1, f1_1 = _prf(matrix.tp, matrix.tp + matrix.fp, matrix.tp + matrix.fn)
    p0, r0, f1_0 = _prf(matrix.tn, matrix.tn + matrix.fn, matrix.tn + matrix.fp)
    return EvalReport(
        precision_0=p0,
        recall_0=r0,
        f1_0=f1_0,
        precision_1=p1,
        recall_1=r1,
        f1_1=f1_1,
        macro_f1=(f1_0 + f1_1) / 2,
    )


def macro_f1(matrix: ConfusionMatrix) -> float:
    return report(matrix).macro_f1


PREDICTIONS_HEADER = "id,prob,label"
SUBMISSION_HEADER = "id,label"


def emit_submission(predictions: Iterable[Prediction], stream: IO) -> None:
    """Header `id,label`, one LF-terminated row per prediction, input order."""
    stream.write(SUBMISSION_HEADER + "\n")
    for p in predictions:
        stream.write(f"{p.pair_id},{p.label}\n")


def write_predictions(predictions: Iterable[Prediction], stream: IO) -> None:
    stream.write(PREDICTIONS_HEADER + "\n")
    for p in predictions:
        stream.write(f"{p.pair_id},{p.probability!r},{p.label}\n")


def read_predictions(stream: IO) -> Iterator[Prediction]:
    for line_no, (pair_id, prob_text, label) in read_csv(stream, PREDICTIONS_HEADER):
        try:
            prob = float(prob_text)
        except ValueError:
            raise ParseError(f"bad probability {prob_text!r}", line_no) from None
        if not 0.0 <= prob <= 1.0:  # false for nan too
            raise ValidationError(
                f"line {line_no}: probability must be in [0, 1], got {prob_text!r}")
        yield Prediction(pair_id, prob, int(label))
