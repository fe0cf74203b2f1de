"""Independent reference implementations used as test oracles.

These stay deliberately naive and separate from the library code: the
brace routines are line-by-line transcriptions of the published
pseudocode, the metric is recomputed from raw label lists, and the
gradient oracle is central finite differences. The training loop runs
over every weight slot where the library runs over the touched ones,
and the model writer counts the runs of +0.0 and packs the weights
weight by weight. The featurizer, dot
product, loss and AdamW formulas below are the scalar or out-of-place
versions that the library's array code must match bit for bit; the
punctuation filter and the whitespace collapse (a regex over maximal
runs) work on code points where the library cuts UTF-8 bytes; the
tokenizer splits the whole text with a regex where the library splits
its UTF-8 bytes and stops after the token budget. The pairs-CSV writer
lives here because only the tests write pairs files. `run_stage` runs a
byte stage of `textclean` on a `str`, so the cleaning oracles can judge
it on the same `str` inputs. The oracles take a
pair as `str` token tuples (`TuplePair`); `table_pairs` turns such pairs
into the library's, over one token table of UTF-8 byte tokens.
"""

from __future__ import annotations

import binascii
import json
import math
import random
import re
import struct
from typing import NamedTuple, Sequence

import numpy as np

from wikilink.baseline import (
    DENSE_BLOCK_SIZE,
    FEATURE_LAYOUT,
    MODEL_FORMAT,
    AdamWState,
    BaselineModel,
    FeatureRows,
    NodeTable,
    adamw_step,
    featurize,
    fnv1a_64,
    logistic_loss_and_gradient,
    sigmoid,
)
from wikilink.dataset import LABELED_HEADER, UNLABELED_HEADER, PairRecord
from wikilink.errors import ValidationError
from wikilink.pairs import SentencePair, Tokens
from wikilink.textclean import DEFAULT_PUNCTUATION, WHITESPACE_CHARS


def write_pairs(records: list[PairRecord], stream, labeled: bool) -> int:
    """Write a pairs CSV, the inverse of `parse_pairs` (the library reads pairs only)."""
    stream.write((LABELED_HEADER if labeled else UNLABELED_HEADER) + "\n")
    n = 0
    for rec in records:
        if labeled:
            if rec.label is None:
                raise ValidationError(f"pair {rec.pair_id} has no label")
            stream.write(f"{rec.pair_id},{rec.id1},{rec.id2},{rec.label}\n")
        else:
            stream.write(f"{rec.pair_id},{rec.id1},{rec.id2}\n")
        n += 1
    return n


def reference_balance(text: str) -> str:
    """Literal transcription of the brace-balancing pseudocode."""
    opening_count = text.count("{")
    closing_count = text.count("}")
    if opening_count > closing_count:
        while opening_count > closing_count:
            index = text.find("{")
            if index != -1:
                text = text[:index] + text[index + 1:]
                opening_count -= 1
    elif closing_count > opening_count:
        while closing_count > opening_count:
            index = text.rfind("}")
            if index != -1:
                text = text[:index] + text[index + 1:]
                closing_count -= 1
    return text.strip()


def reference_remove_spans(text: str) -> str:
    """Literal transcription of the brace-span removal pseudocode.

    Note the accumulator starts as a single space, exactly as published;
    the library deliberately starts from the empty string, so callers
    compare against this oracle modulo that leading space.
    """
    stack: list[str] = []
    clean_text = " "
    for char in text:
        if char == "{":
            stack.append(char)
        elif char == "}":
            if stack and stack[-1] == "{":
                stack.pop()
        else:
            if not stack:
                clean_text = clean_text + char
    return clean_text


def brute_force_macro_f1(gold: list[int], predicted: list[int]) -> float:
    """Macro F1 recomputed per class straight from the label lists."""
    assert len(gold) == len(predicted)
    f1s = []
    for cls in (0, 1):
        tp = sum(1 for g, p in zip(gold, predicted) if g == cls and p == cls)
        pred_pos = sum(1 for p in predicted if p == cls)
        actual_pos = sum(1 for g in gold if g == cls)
        precision = tp / pred_pos if pred_pos else 0.0
        recall = tp / actual_pos if actual_pos else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
    return (f1s[0] + f1s[1]) / 2


def numeric_gradient(loss_fn, weights, step: float = 1e-6) -> list[float]:
    """Central finite differences of a scalar loss over a weight vector."""
    grad = []
    for i in range(len(weights)):
        wp = list(weights)
        wm = list(weights)
        wp[i] += step
        wm[i] -= step
        grad.append((loss_fn(wp) - loss_fn(wm)) / (2 * step))
    return grad


def scalar_adamw_trace(
    w0: float,
    gradients: list[float],
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
) -> float:
    """Hand-rolled scalar AdamW: bias-corrected moments, eps outside the
    square root, decoupled decay applied straight to the weight."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * weight_decay * w
    return w


def reference_adamw_arrays(weights, m, v, gradient, t, config, bias_index):
    """One AdamW step written out of place, formula by formula; returns
    the new (weights, m, v)."""
    b1, b2 = config.adamw_beta1, config.adamw_beta2
    m = b1 * m + (1.0 - b1) * gradient
    v = b2 * v + (1.0 - b2) * gradient * gradient
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    update = config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adamw_eps)
    if config.weight_decay:
        decay = config.learning_rate * config.weight_decay * weights
        decay[bias_index] = 0.0
        update = update + decay
    return weights - update, m, v


def run_stage(stage, text: str) -> str:
    """A `textclean` stage run on `text`'s UTF-8 bytes (`surrogatepass`), its
    result decoded. Balance also returns the braces it deleted, which must be
    the difference of the two brace counts."""
    out = stage(text.encode("utf-8", "surrogatepass"))
    if isinstance(out, tuple):
        out, deleted = out
        assert deleted == abs(text.count("{") - text.count("}")), (text, deleted)
    return out.decode("utf-8", "surrogatepass")


def reference_strip_punctuation(text: str) -> str:
    """Character-by-character punctuation deletion."""
    return "".join(ch for ch in text if ch not in DEFAULT_PUNCTUATION)


def reference_normalize_whitespace(text: str) -> str:
    """Each maximal run of WHITESPACE_CHARS becomes one space, then str.strip()."""
    return re.sub("[" + re.escape(WHITESPACE_CHARS) + "]+", " ", text).strip()


def reference_tokenize(text: str) -> list[str]:
    """Every token between maximal whitespace runs, by splitting the whole text."""
    return [t for t in re.split("[" + re.escape(WHITESPACE_CHARS) + "]+", text) if t]


class TuplePair(NamedTuple):
    """A sentence pair with its sides as token tuples."""
    pair_id: str
    premise_tokens: tuple[str, ...]
    hypothesis_tokens: tuple[str, ...]
    label: int | None = None


def table_pairs(items: Sequence[TuplePair]) -> tuple[Tokens, list[SentencePair]]:
    """One token table holding each distinct side of `items` as a row,
    each token as its UTF-8 bytes (`surrogatepass`), and the items as
    pairs over it."""
    tokens = Tokens(max_tokens=1)  # rows are appended whole, never cut
    rows: dict[tuple[str, ...], int] = {}

    def row(side):
        if side not in rows:
            rows[side] = tokens.append([t.encode("utf-8", "surrogatepass") for t in side])
        return rows[side]

    return tokens, [SentencePair(it.pair_id, row(tuple(it.premise_tokens)),
                                 row(tuple(it.hypothesis_tokens)), it.label, tokens)
                    for it in items]


def reference_featurize(pair: TuplePair, hash_bits: int) -> dict[int, float]:
    """Sparse index -> value map, one FNV-1a call per key; the dense block
    lives past the hashed slots."""
    features: dict[int, float] = {}

    def bump(namespace: str, token: str) -> None:
        key = f"{namespace}\x1f{token}".encode("utf-8", "surrogatepass")
        idx = fnv1a_64(key) & ((1 << hash_bits) - 1)
        features[idx] = features.get(idx, 0.0) + 1.0

    for namespace, tokens in (("P", pair.premise_tokens), ("H", pair.hypothesis_tokens)):
        for tok in tokens:
            bump(namespace, tok)
        for a, b in zip(tokens, tokens[1:]):
            bump(namespace, f"{a}\x1e{b}")

    pset = set(pair.premise_tokens)
    hset = set(pair.hypothesis_tokens)
    shared = pset & hset
    for tok in sorted(shared):
        bump("S", tok)

    overlap = sum(1 for tok in pair.premise_tokens if tok in hset)
    union = len(pset | hset)
    jaccard = len(shared) / union if union else 0.0
    lp, lh = len(pair.premise_tokens), len(pair.hypothesis_tokens)
    length_diff = abs(lp - lh) / max(lp, lh) if max(lp, lh) else 0.0

    base = 1 << hash_bits
    features[base] = float(overlap)
    features[base + 1] = jaccard
    features[base + 2] = length_diff
    features[base + 3] = 1.0  # bias
    return features


def reference_dot(weights, features: dict[int, float]) -> float:
    return float(sum(weights[i] * x for i, x in features.items()))


def reference_loss_and_gradient(weights, batch) -> tuple[float, dict[int, float]]:
    """Mean binary cross-entropy and its sparse gradient over
    (features dict, label) pairs."""
    grad: dict[int, float] = {}
    loss = 0.0
    inv = 1.0 / len(batch)
    for features, label in batch:
        p = sigmoid(reference_dot(weights, features))
        eps = 1e-12
        loss -= math.log(p + eps) if label == 1 else math.log(1.0 - p + eps)
        residual = (p - label) * inv
        for i, x in features.items():
            grad[i] = grad.get(i, 0.0) + residual * x
    return loss * inv, grad


def rows_from_dicts(dicts: list[dict[int, float]]) -> FeatureRows:
    """CSR rows holding each dict's items in order."""
    indptr = np.cumsum([0] + [len(d) for d in dicts])
    return FeatureRows(indptr.astype(np.int64),
                       np.array([i for d in dicts for i in d], dtype=np.int64),
                       np.array([x for d in dicts for x in d.values()], dtype=float))


def row_items(rows: FeatureRows, r: int) -> list[tuple[int, float]]:
    """Row r of CSR rows as (index, value) pairs in row order."""
    lo, hi = rows.indptr[r], rows.indptr[r + 1]
    return list(zip(rows.indices[lo:hi].tolist(), rows.values[lo:hi].tolist()))


def dense_gradient(gradient: dict[int, float], dim: int) -> np.ndarray:
    dense = np.zeros(dim)
    for i, g in gradient.items():
        dense[i] = g
    return dense


def reference_train(examples: list[TuplePair], config) -> AdamWState:
    """Mini-batch AdamW over the whole 2^hash_bits + 4 weight vector; the final state."""
    tokens, pairs = table_pairs(examples)
    rows = featurize(pairs, NodeTable(tokens, config.hash_bits, pairs))
    labels = [sp.label for sp in examples]
    state = AdamWState(config, (1 << config.hash_bits) + DENSE_BLOCK_SIZE)
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad = logistic_loss_and_gradient(
                state.weights, rows.take(batch), [labels[i] for i in batch])
            state.losses.append(loss)
            adamw_step(state, grad)
    return state


def _stored_weights(model: BaselineModel) -> tuple[list[int], list[float]]:
    """The weights that are not +0.0, in slot order, and before each the
    run of +0.0 slots, counted weight by weight."""
    gaps, stored, run = [], [], 0
    for w in model.weights.tolist():
        if w == 0.0 and math.copysign(1.0, w) > 0:
            run += 1
        else:
            gaps.append(run)
            stored.append(w)
            run = 0
    return gaps, stored


def reference_save_model_v3(model: BaselineModel) -> str:
    """The v3 model file text: json.dumps of the payload, each stored
    weight packed on its own as '<d' and the bytes base64-encoded."""
    gaps, stored = _stored_weights(model)
    payload = {
        "format": MODEL_FORMAT,
        "layout": FEATURE_LAYOUT,
        "config": model.config._asdict(),
        "gaps": gaps,
        "weights": binascii.b2a_base64(b"".join(struct.pack("<d", w) for w in stored),
                                       newline=False).decode("ascii"),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"
