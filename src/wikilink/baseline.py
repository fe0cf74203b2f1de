"""Hashed-feature logistic pair classifier with a from-scratch AdamW.

The feature space is 2^hash_bits hashed slots (unigrams/bigrams of each
side plus shared tokens, namespace-prefixed) followed by a 4-slot dense
block: overlap count, Jaccard similarity, normalized length difference,
bias. Hashing is 64-bit FNV-1a over UTF-8 bytes, masked to hash_bits, so
feature indices are stable across runs and platforms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, asdict
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .pairs import SentencePair

DENSE_BLOCK_SIZE = 4  # overlap, jaccard, length diff, bias

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    max_tokens: int = 128
    # 0.01 suits the linear baseline; the transformer setting from the
    # original experiments (2e-5) is selectable but would undertrain here.
    learning_rate: float = 0.01
    adamw_eps: float = 1e-8
    adamw_beta1: float = 0.9
    adamw_beta2: float = 0.999
    weight_decay: float = 0.01
    epochs: int = 3
    seed: int = 0
    hash_bits: int = 18
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.adamw_eps <= 0:
            raise ValueError("adamw_eps must be positive")
        if not (0 < self.adamw_beta1 < 1 and 0 < self.adamw_beta2 < 1):
            raise ValueError("betas must be in (0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 1 <= self.hash_bits <= 30:
            raise ValueError("hash_bits must be in [1, 30]")
        if not 0 < self.decision_threshold < 1:
            raise ValueError("decision_threshold must be in (0, 1)")


@dataclass(frozen=True)
class Prediction:
    pair_id: str
    probability: float
    label: int


@dataclass
class BaselineModel:
    config: TrainConfig
    weights: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def zeros(cls, config: TrainConfig) -> "BaselineModel":
        dim = (1 << config.hash_bits) + DENSE_BLOCK_SIZE
        return cls(
            config=config,
            weights=np.zeros(dim),
            m=np.zeros(dim),
            v=np.zeros(dim),
        )

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def bias_index(self) -> int:
        return self.dim - 1


def _hash_index(namespace: str, token: str, hash_bits: int) -> int:
    return fnv1a_64(f"{namespace}\x1f{token}".encode("utf-8")) & ((1 << hash_bits) - 1)


def featurize(pair: SentencePair, hash_bits: int) -> dict[int, float]:
    """Sparse index -> value map; dense block lives past the hashed slots."""
    features: dict[int, float] = {}

    def bump(namespace: str, token: str) -> None:
        idx = _hash_index(namespace, token, hash_bits)
        features[idx] = features.get(idx, 0.0) + 1.0

    for namespace, tokens in (("P", pair.premise_tokens), ("H", pair.hypothesis_tokens)):
        for tok in tokens:
            bump(namespace, tok)
        for a, b in zip(tokens, tokens[1:]):
            bump(namespace, f"{a}\x1e{b}")

    pset = set(pair.premise_tokens)
    hset = set(pair.hypothesis_tokens)
    shared = pset & hset
    # Sorted, so the feature order, and with it the float sums in `dot`,
    # does not depend on the interpreter's string hash seed.
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


_SIGMOID_LO = 5e-324  # smallest positive float
_SIGMOID_HI = 1.0 - 2.0**-53


def sigmoid(z: float) -> float:
    """Numerically stable logistic, clamped strictly inside (0, 1)."""
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    return min(max(p, _SIGMOID_LO), _SIGMOID_HI)


def dot(weights: np.ndarray, features: dict[int, float]) -> float:
    return float(sum(weights[i] * x for i, x in features.items()))


def logistic_loss_and_gradient(
    weights: np.ndarray,
    batch: Sequence[tuple[dict[int, float], int]],
) -> tuple[float, dict[int, float]]:
    """Mean binary cross-entropy and its sparse gradient over the batch."""
    if not batch:
        raise ValidationError("empty batch")
    grad: dict[int, float] = {}
    loss = 0.0
    inv = 1.0 / len(batch)
    for features, label in batch:
        p = sigmoid(dot(weights, features))
        eps = 1e-12  # clamp keeps the loss finite at saturated predictions
        loss -= math.log(p + eps) if label == 1 else math.log(1.0 - p + eps)
        residual = (p - label) * inv
        for i, x in features.items():
            grad[i] = grad.get(i, 0.0) + residual * x
    return loss * inv, grad


def adamw_step(
    model: BaselineModel,
    gradient: dict[int, float],
    config: TrainConfig | None = None,
) -> BaselineModel:
    """One decoupled-weight-decay Adam update; mutates and returns the model.

    Moments use beta1/beta2 with bias correction; eps sits outside the
    square root: w -= lr * m_hat / (sqrt(v_hat) + eps). Weight decay is
    applied directly to every weight except the bias coordinate.
    """
    if config is None:
        config = model.config
    for g in gradient.values():
        if not math.isfinite(g):
            raise NumericError("non-finite gradient entry; aborting training")

    dense = np.zeros(model.dim)
    for i, g in gradient.items():
        if not 0 <= i < model.dim:
            raise ValidationError(f"gradient index {i} outside weight dimension")
        dense[i] = g

    b1, b2 = config.adamw_beta1, config.adamw_beta2
    model.step += 1
    t = model.step
    model.m = b1 * model.m + (1.0 - b1) * dense
    model.v = b2 * model.v + (1.0 - b2) * dense * dense
    m_hat = model.m / (1.0 - b1**t)
    v_hat = model.v / (1.0 - b2**t)
    update = config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adamw_eps)
    if config.weight_decay:
        decay = config.learning_rate * config.weight_decay * model.weights
        decay[model.bias_index] = 0.0
        update = update + decay
    model.weights = model.weights - update
    if not np.all(np.isfinite(model.weights)):
        raise NumericError("non-finite weights after update")
    return model


def train(examples: Iterable[SentencePair], config: TrainConfig | None = None) -> BaselineModel:
    """Mini-batch AdamW on logistic loss; deterministic for a fixed seed."""
    if config is None:
        config = TrainConfig()
    examples = list(examples)
    if not examples:
        raise ValidationError("cannot train on an empty example set")
    for sp in examples:
        if sp.label is None:
            raise ValidationError(f"pair {sp.pair_id} is unlabeled")

    featurized = [(featurize(sp, config.hash_bits), sp.label) for sp in examples]
    model = BaselineModel.zeros(config)
    rng = random.Random(config.seed)
    order = list(range(len(featurized)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = [featurized[i] for i in order[start : start + config.batch_size]]
            loss, grad = logistic_loss_and_gradient(model.weights, batch)
            model.loss_history.append(loss)
            adamw_step(model, grad, config)
    return model


def predict(model: BaselineModel, pair: SentencePair) -> Prediction:
    features = featurize(pair, model.config.hash_bits)
    p = sigmoid(dot(model.weights, features))
    label = 1 if p >= model.config.decision_threshold else 0
    return Prediction(pair.pair_id, p, label)


MODEL_FORMAT = "wikilink-baseline-v1"


def save_model(model: BaselineModel, stream: IO) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "hash_bits": model.config.hash_bits,
        "weights": model.weights.tolist(),
    }
    json.dump(payload, stream, separators=(",", ":"))
    stream.write("\n")


def load_model(stream: IO) -> BaselineModel:
    payload = json.load(stream)
    if payload.get("format") != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {payload.get('format')!r}")
    config = TrainConfig(**payload["config"])
    weights = np.asarray(payload["weights"], dtype=float)
    expected = (1 << config.hash_bits) + DENSE_BLOCK_SIZE
    if weights.shape[0] != expected:
        raise ValidationError(
            f"weight vector length {weights.shape[0]} does not match hash_bits {config.hash_bits}"
        )
    return BaselineModel(config=config, weights=weights, m=np.zeros_like(weights), v=np.zeros_like(weights))
