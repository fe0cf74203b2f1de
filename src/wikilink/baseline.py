"""Hashed-feature logistic pair classifier with a from-scratch AdamW.

The feature space is 2^hash_bits hashed slots (unigrams/bigrams of each
side plus shared tokens, namespace-prefixed) followed by a 4-slot dense
block: overlap count, Jaccard similarity, normalized length difference,
bias. Hashing is 64-bit FNV-1a over UTF-8 bytes, masked to hash_bits, so
feature indices are stable across runs and platforms.

Pairs are featurized into CSR rows (`FeatureRows`) from one node table
per run (`NodeTable`), which hashes each node of the run's token table
once; a pair costs only the gather of its two nodes' slot streams, its
shared tokens and the row dedup. A row lists its slots in first-seen
order over premise unigrams, premise bigrams, hypothesis unigrams,
hypothesis bigrams and the sorted shared tokens, each slot once with its
count, then the dense block. Dot products and the gradient are
`np.bincount` sums, which add their terms in array order, so they equal
a per-feature loop over each row term for term (`tests/oracles.py` holds
that loop), whatever FEATURIZE_CHUNK is.
"""

from __future__ import annotations

import binascii
import json
import math
import random
from itertools import chain
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ParseError, ValidationError
from .pairs import SentencePair, Tokens

DENSE_BLOCK_SIZE = 4  # overlap, jaccard, length diff, bias
# Pairs whose rows are laid out together. Hashing is per node, once per
# node table, so a chunk bounds only the row-layout temporaries.
FEATURIZE_CHUNK = 64
# Hash keys folded together, which bounds the fold's uint64 temporaries.
_FOLD_BLOCK = 1 << 14

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)
_NAMESPACES = ("P", "H", "S")  # premise, hypothesis, shared
_BIGRAM_SEP = 0x1E  # byte between the two tokens of a bigram key
# How a row maps tokens to slots: each namespace's keys start with its
# letter and 0x1f, a bigram joins its tokens with 0x1e, each side lists
# its unigrams then its bigrams, shared tokens go in code-point order,
# then the dense block; slots are 64-bit FNV-1a masked to hash_bits.
# save_model writes it and load_model requires it.
FEATURE_LAYOUT = ("ns=P,H,S+0x1f;bigram-sep=0x1e;side=unigrams,bigrams;shared=code-point-order;"
                  "dense=overlap,jaccard,length-diff,bias;hash=fnv1a-64-masked")


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class _TrainFields(NamedTuple):
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


class TrainConfig(_TrainFields):
    """The training settings; construction range-checks each (ValueError)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, value in zip(self._fields, self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
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
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this: check its result too
        return cls(*iterable)


# field name -> int or float, the type of its default
TRAIN_FIELD_TYPES = {key: type(value) for key, value in TrainConfig._field_defaults.items()}


class Prediction(NamedTuple):
    pair_id: str
    probability: float
    label: int


class BaselineModel:
    """Weights and AdamW moments under a training config."""

    __slots__ = ("config", "weights", "m", "v", "step", "loss_history", "buffers")

    def __init__(self, config: TrainConfig, weights: np.ndarray, m: np.ndarray, v: np.ndarray):
        self.config = config
        self.weights = weights
        self.m = m
        self.v = v
        self.step = 0
        self.loss_history: list[float] = []
        # Two weight-sized buffers adamw_step reuses, so a step allocates nothing.
        self.buffers: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def zeros(cls, config: TrainConfig) -> "BaselineModel":
        weights, m, v = _zero_vectors(config.hash_bits, 3)
        return cls(config=config, weights=weights, m=m, v=v)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def bias_index(self) -> int:
        return self.dim - 1


def _zero_vectors(hash_bits: int, n: int) -> list[np.ndarray]:
    """n zero vectors of 2^hash_bits + 4 slots, or a ValidationError if the host cannot map them."""
    dim = (1 << hash_bits) + DENSE_BLOCK_SIZE
    try:
        return [np.zeros(dim) for _ in range(n)]
    except MemoryError:
        raise ValidationError(f"hash_bits {hash_bits} needs {n * 8 * dim:,} bytes for "
                              f"{n} weight vectors, more than this host can allocate") from None


class FeatureRows:
    """Sparse rows in CSR form: row r is `indices[indptr[r]:indptr[r + 1]]`
    with the matching `values`."""

    __slots__ = ("indptr", "indices", "values")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray):
        self.indptr = indptr    # int64, one more than the number of rows
        self.indices = indices  # int64 feature slots
        self.values = values    # float64

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def take(self, rows: Sequence[int]) -> "FeatureRows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        picks = _ranges(starts, lengths)
        return FeatureRows(indptr, self.indices[picks], self.values[picks])

    @staticmethod
    def concat(parts: Sequence["FeatureRows"]) -> "FeatureRows":
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [p.indptr[-1] for p in parts[:-1]])
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64)] + [p.indptr[1:] + o for p, o in zip(parts, offsets)])
        return FeatureRows(indptr,
                           np.concatenate([p.indices for p in parts]),
                           np.concatenate([p.values for p in parts]))


def _fnv_fold(states: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
              buf: np.ndarray) -> np.ndarray:
    """Continue FNV-1a from `states[..., i]` over `buf[starts[i]:starts[i] + lengths[i]]`.

    Items are sorted longest first, so the items that still have a byte
    at column j are a prefix; each column is one wrapping uint64 step.
    """
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    h = states[..., order]
    # active[j]: how many items are longer than j bytes
    active = np.searchsorted(-lengths, -np.arange(lengths.max(initial=0)), side="left")
    for j, k in enumerate(active.tolist()):
        h[..., :k] ^= buf[starts[:k] + j]
        h[..., :k] *= _FNV_PRIME_U64
    out = np.empty_like(h)
    out[..., order] = h
    return out


class NodeTable:
    """Every row (node) of a token table, hashed once.

    Per row the table keeps its masked P and H streams, laid out alike as
    its unigram slots then its bigram slots, and its distinct token ids
    (the table's vocabulary indexes, used as they are), ascending, with
    their counts, all int32 (hash_bits <= 30). `rows` lays out the feature
    rows of pairs from these alone.
    """

    def __init__(self, tokens: Tokens, hash_bits: int):
        self.hash_bits = hash_bits
        self.words = list(tokens.vocab)  # token id -> token
        self.radix = max(len(self.words), 1)
        self.lens = np.fromiter(map(len, tokens.ids), dtype=np.int64, count=len(tokens.ids))
        ids = np.concatenate(tokens.ids or [np.zeros(0, dtype=np.int32)])
        starts = np.cumsum(self.lens) - self.lens
        # A position heads a bigram unless it is the last of its row.
        is_head = np.ones(ids.shape[0], dtype=bool)
        is_head[(starts + self.lens - 1)[self.lens > 0]] = False
        bigrams, which = np.unique(
            (ids[:-1].astype(np.int64) * self.radix + ids[1:])[is_head[:-1]],
            return_inverse=True)
        unigram, bigram = _hash_keys(self.words, bigrams, self.radix, hash_bits)
        del bigrams
        self.shared_slots = unigram[2]

        self.stream_lens = 2 * self.lens - (self.lens > 0)
        self.stream_starts = np.cumsum(self.stream_lens) - self.stream_lens
        self.streams = np.empty((2, int(self.stream_lens.sum())), dtype=np.int32)
        at = np.repeat(self.stream_starts - starts, self.lens) + np.arange(ids.shape[0])
        self.streams[:, at] = unigram[:2, ids]
        at += np.repeat(self.lens, self.lens)  # the bigram each position heads
        self.streams[:, at[is_head]] = bigram[:, which]
        del at, is_head, which, unigram, bigram

        keys, counts = np.unique(np.repeat(np.arange(self.lens.shape[0]), self.lens) * self.radix
                                 + ids, return_counts=True)
        self.set_ids = (keys % self.radix).astype(np.int32)
        self.set_counts = counts.astype(np.int32)
        self.set_lens = np.bincount(keys // self.radix, minlength=self.lens.shape[0])
        self.set_starts = np.cumsum(self.set_lens) - self.set_lens

    def rows(self, premise: np.ndarray, hypothesis: np.ndarray) -> FeatureRows:
        """The feature rows of the pairs on these premise and hypothesis
        rows: the premise's P stream, the hypothesis's H stream, the sorted
        shared tokens, deduplicated."""
        n = premise.shape[0]
        p_rows, p_pick = self._set_entries(premise)
        h_rows, h_pick = self._set_entries(hypothesis)
        # A (row, token id) key is unique on each side; the shared tokens
        # are the premise entries whose key the hypothesis side also has.
        is_shared = np.isin(p_rows * self.radix + self.set_ids[p_pick],
                            h_rows * self.radix + self.set_ids[h_pick], assume_unique=True)
        shared_rows, pick = p_rows[is_shared], p_pick[is_shared]
        shared = self.set_ids[pick]
        # UTF-8 byte order, which is code-point order, so the feature order,
        # and with it the float sums, does not depend on the interpreter's
        # hash seed. Only the distinct shared tokens are ranked.
        distinct, inverse = np.unique(shared, return_inverse=True)
        words = [self.words[i] for i in distinct.tolist()]
        rank = np.empty(len(words), dtype=np.int64)
        rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
        by_row = np.argsort(shared_rows * len(words) + rank[inverse])
        shared_slots = self.shared_slots[shared[by_row]]

        n_shared = np.bincount(shared_rows, minlength=n)
        union = self.set_lens[premise] + self.set_lens[hypothesis] - n_shared
        lp, lh = self.lens[premise], self.lens[hypothesis]
        longer = np.maximum(lp, lh)
        dense = np.zeros((n, DENSE_BLOCK_SIZE))
        # overlap, jaccard, length diff, bias
        dense[:, 0] = np.bincount(shared_rows, weights=self.set_counts[pick], minlength=n)
        np.divide(n_shared, union, out=dense[:, 1], where=union > 0)
        np.divide(np.abs(lp - lh), longer, out=dense[:, 2], where=longer > 0)
        dense[:, 3] = 1.0

        p_lens, h_lens = self.stream_lens[premise], self.stream_lens[hypothesis]
        row_lens = p_lens + h_lens + n_shared
        row_starts = np.cumsum(row_lens) - row_lens
        stream = np.empty(int(row_lens.sum()), dtype=np.int32)
        stream[_ranges(row_starts, p_lens)] = self.streams[
            0, _ranges(self.stream_starts[premise], p_lens)]
        stream[_ranges(row_starts + p_lens, h_lens)] = self.streams[
            1, _ranges(self.stream_starts[hypothesis], h_lens)]
        stream[_ranges(row_starts + p_lens + h_lens, n_shared)] = shared_slots
        return _dedup_rows(stream, np.repeat(np.arange(n), row_lens), dense, self.hash_bits)

    def _set_entries(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the token sets of `nodes`, concatenated: each entry's row
        (its place in `nodes`) and its index into set_ids and set_counts."""
        return (np.repeat(np.arange(nodes.shape[0]), self.set_lens[nodes]),
                _ranges(self.set_starts[nodes], self.set_lens[nodes]))


def _hash_keys(tokens: list[bytes], bigrams: np.ndarray, radix: int,
               hash_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Masked int32 slots of each token (its UTF-8 bytes, hashed as they
    are) under the P, H and S namespaces, [3, len(tokens)], and of each
    bigram (first id * radix + second id) under P and H, [2, len(bigrams)]."""
    byte_lens = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    byte_starts = np.cumsum(byte_lens) - byte_lens
    buf = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    # FNV is a left fold, so "P\x1ftok" continues from the state after "P\x1f".
    prefixes = np.array([fnv1a_64(f"{ns}\x1f".encode()) for ns in _NAMESPACES], dtype=np.uint64)
    unigram = np.empty((len(_NAMESPACES), len(tokens)), dtype=np.uint64)  # unmasked
    for lo in range(0, len(tokens), _FOLD_BLOCK):
        block = slice(lo, lo + _FOLD_BLOCK)
        unigram[:, block] = _fnv_fold(
            np.repeat(prefixes[:, None], byte_lens[block].shape[0], axis=1),
            byte_starts[block], byte_lens[block], buf)
    mask = np.uint64((1 << hash_bits) - 1)
    bigram = np.empty((2, bigrams.shape[0]), dtype=np.int32)
    # A bigram key continues from its first token's unmasked state, over
    # the separator byte and then the second token's bytes.
    for lo in range(0, bigrams.shape[0], _FOLD_BLOCK):
        first, second = np.divmod(bigrams[lo : lo + _FOLD_BLOCK], radix)
        states = (unigram[:2, first] ^ np.uint64(_BIGRAM_SEP)) * _FNV_PRIME_U64
        bigram[:, lo : lo + _FOLD_BLOCK] = (
            _fnv_fold(states, byte_starts[second], byte_lens[second], buf) & mask)
    return (unigram & mask).astype(np.int32), bigram


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + lengths[i] - 1 for each i, concatenated."""
    ends = np.cumsum(lengths)
    total = ends[-1] if ends.shape[0] else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _dedup_rows(stream: np.ndarray, stream_rows: np.ndarray, dense: np.ndarray,
                hash_bits: int) -> FeatureRows:
    """Count repeated slots within each row in first-seen order, then append the dense block."""
    n = dense.shape[0]
    keys = (stream_rows << hash_bits) | stream
    # Sorting groups each (row, slot); a group's least position is where
    # it is first seen, and those positions, ascending, are the row order.
    order = np.argsort(keys)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    count_at = np.zeros(keys.shape[0], dtype=np.int64)
    count_at[np.minimum.reduceat(order, starts)] = np.diff(starts, append=keys.shape[0])
    first = np.flatnonzero(count_at)
    keys, counts = keys[first], count_at[first]
    rows = keys >> hash_bits
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n) + DENSE_BLOCK_SIZE, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1])
    hashed_at = np.arange(keys.shape[0]) + DENSE_BLOCK_SIZE * rows
    indices[hashed_at] = keys & ((1 << hash_bits) - 1)
    values[hashed_at] = counts
    dense_at = indptr[1:, None] - DENSE_BLOCK_SIZE + np.arange(DENSE_BLOCK_SIZE)
    indices[dense_at] = (1 << hash_bits) + np.arange(DENSE_BLOCK_SIZE)
    values[dense_at] = dense
    return FeatureRows(indptr, indices, values)


def _check_hash_bits(table: NodeTable, hash_bits: int) -> None:
    if table.hash_bits != hash_bits:
        raise ValidationError(
            f"node table hashed at hash_bits {table.hash_bits}, model at {hash_bits}")


def _chunks(pairs: Sequence[SentencePair], table: NodeTable) -> Iterator[FeatureRows]:
    """The feature rows of the pairs, laid out FEATURIZE_CHUNK pairs at a time from `table`."""
    nodes = np.fromiter((row for sp in pairs for row in (sp.premise, sp.hypothesis)),
                        dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
    for start in range(0, len(pairs), FEATURIZE_CHUNK):
        yield table.rows(*nodes[start : start + FEATURIZE_CHUNK].T)


def featurize(pairs: Sequence[SentencePair], table: NodeTable) -> FeatureRows:
    """One CSR row per pair."""
    if not pairs:
        return FeatureRows(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    return FeatureRows.concat(list(_chunks(pairs, table)))


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


def row_dots(weights: np.ndarray, rows: FeatureRows) -> list[float]:
    """Each row's dot product with `weights`, summed in row order."""
    row_of = np.repeat(np.arange(len(rows)), np.diff(rows.indptr))
    return np.bincount(row_of, weights=weights[rows.indices] * rows.values,
                       minlength=len(rows)).tolist()


def logistic_loss_and_gradient(
    weights: np.ndarray,
    rows: FeatureRows,
    labels: Sequence[int],
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch and its dense gradient."""
    if not labels:
        raise ValidationError("empty batch")
    if len(labels) != len(rows):
        raise ValidationError(f"{len(labels)} labels for {len(rows)} feature rows")
    loss = 0.0
    inv = 1.0 / len(labels)
    residuals = []
    # Scalar per row: np.exp and np.log are not bit-equal to math.exp and math.log.
    for z, label in zip(row_dots(weights, rows), labels):
        p = sigmoid(z)
        eps = 1e-12  # clamp keeps the loss finite at saturated predictions
        loss -= math.log(p + eps) if label == 1 else math.log(1.0 - p + eps)
        residuals.append((p - label) * inv)
    terms = np.repeat(residuals, np.diff(rows.indptr)) * rows.values
    return loss * inv, np.bincount(rows.indices, weights=terms, minlength=weights.shape[0])


def adamw_step(model: BaselineModel, gradient: np.ndarray) -> BaselineModel:
    """One decoupled-weight-decay Adam update under `model.config`; mutates
    and returns the model.

    Moments use beta1/beta2 with bias correction; eps sits outside the
    square root: w -= lr * m_hat / (sqrt(v_hat) + eps). Weight decay is
    applied directly to every weight except the bias coordinate. `m`, `v`
    and the weights are updated in place, with the float operations of
    the formulas in the order written.
    """
    config = model.config
    if not np.isfinite(gradient).all():
        raise NumericError("non-finite gradient entry; aborting training")
    if gradient.shape != model.weights.shape:
        raise ValidationError(
            f"gradient shape {gradient.shape} does not match weight dimension {model.dim}")

    b1, b2, lr = config.adamw_beta1, config.adamw_beta2, config.learning_rate
    model.step += 1
    t = model.step
    m, v, weights = model.m, model.v, model.weights
    if model.buffers is None:
        model.buffers = (np.empty_like(weights), np.empty_like(weights))
    tmp, update = model.buffers
    # m = b1 * m + (1 - b1) * g
    np.multiply(gradient, 1.0 - b1, out=tmp)
    m *= b1
    m += tmp
    # v = b2 * v + (1 - b2) * g * g
    np.multiply(gradient, 1.0 - b2, out=tmp)
    tmp *= gradient
    v *= b2
    v += tmp
    # update = lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += config.adamw_eps
    np.divide(m, 1.0 - b1**t, out=update)
    update *= lr
    update /= tmp
    if config.weight_decay:
        np.multiply(weights, lr * config.weight_decay, out=tmp)
        tmp[model.bias_index] = 0.0
        update += tmp
    weights -= update
    if not np.isfinite(weights).all():
        raise NumericError("non-finite weights after update")
    return model


def train(examples: Sequence[SentencePair], config: TrainConfig,
          table: NodeTable) -> BaselineModel:
    """Mini-batch AdamW on logistic loss; deterministic for a fixed seed.

    The loop runs over the slots that some row touches, renumbered in
    sorted order; the rest get a zero gradient at every step, so AdamW
    would leave their weight, m and v at 0.0. A bincount adds each
    slot's terms in row order under any renumbering, so the model is the
    dense loop's bit for bit (`tests/oracles.py` holds that loop).
    """
    if not examples:
        raise ValidationError("cannot train on an empty example set")
    for sp in examples:
        if sp.label is None:
            raise ValidationError(f"pair {sp.pair_id} is unlabeled")

    _check_hash_bits(table, config.hash_bits)
    rows = featurize(examples, table)
    labels = [sp.label for sp in examples]
    model = BaselineModel.zeros(config)
    touched = np.zeros(model.dim, dtype=bool)
    touched[rows.indices] = True
    slots = np.flatnonzero(touched)
    rows = FeatureRows(rows.indptr, (np.cumsum(touched) - 1)[rows.indices], rows.values)
    # The bias is the last slot and in every row, so it stays last and
    # `compact.bias_index` is its position.
    compact = BaselineModel(config, np.zeros(slots.shape[0]),
                            np.zeros(slots.shape[0]), np.zeros(slots.shape[0]))
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad = logistic_loss_and_gradient(
                compact.weights, rows.take(batch), [labels[i] for i in batch])
            compact.loss_history.append(loss)
            adamw_step(compact, grad)
    model.weights[slots] = compact.weights
    model.m[slots] = compact.m
    model.v[slots] = compact.v
    model.step, model.loss_history = compact.step, compact.loss_history
    return model


def predict(model: BaselineModel, pairs: Sequence[SentencePair],
            table: NodeTable) -> list[Prediction]:
    """Score the pairs in order, one chunk of rows at a time from `table`."""
    _check_hash_bits(table, model.config.hash_bits)
    threshold = model.config.decision_threshold
    probabilities = map(sigmoid, chain.from_iterable(
        row_dots(model.weights, rows) for rows in _chunks(pairs, table)))
    return [Prediction(sp.pair_id, p, 1 if p >= threshold else 0)
            for sp, p in zip(pairs, probabilities)]


MODEL_FORMAT = "wikilink-baseline-v3"
_MODEL_KEYS = {"format", "layout", "config", "gaps", "weights"}


def save_model(model: BaselineModel, stream: IO) -> None:
    """Write the model as one JSON line in the v3 layout.

    `weights` is the standard base64 of the weights that are not +0.0
    (a -0.0 is kept), in slot order, each as little-endian float64;
    `gaps[k]` is the run of +0.0 slots before the k-th of them. The
    slots after the last one are +0.0 up to the length `hash_bits` gives.
    """
    weights = model.weights
    stored = np.flatnonzero(weights.view(np.int64))  # every weight but +0.0 has a set bit
    raw = weights[stored].astype("<f8").tobytes()
    stream.write(json.dumps({
        "format": MODEL_FORMAT,
        "layout": FEATURE_LAYOUT,
        "config": model.config._asdict(),
        "gaps": (np.diff(stored, prepend=-1) - 1).tolist(),
        "weights": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }, separators=(",", ":")) + "\n")


def _decode_weights(text) -> np.ndarray:
    """The stored weights: canonical base64 of '<f8' values."""
    if not isinstance(text, str):
        raise ValidationError("model weights must be a base64 string")
    try:
        raw = binascii.a2b_base64(text)  # lenient: skips stray bytes, so re-encode below
    except ValueError as exc:  # binascii.Error, or a str that is not ASCII
        raise ValidationError(f"model weights are not base64: {exc}") from None
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise ValidationError("model weights are not canonical base64")
    if len(raw) % 8:
        raise ValidationError(f"model weights hold {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8")


def _stored_slots(gaps, n_stored: int, dim: int) -> np.ndarray:
    """The slots of the stored weights, which the file's `gaps` give."""
    if not isinstance(gaps, list) or not set(map(type, gaps)) <= {int} or min(gaps, default=0) < 0:
        raise ValidationError("model gaps must be a list of non-negative integers")
    if len(gaps) != n_stored:
        raise ValidationError(f"model has {len(gaps)} gaps but {n_stored} stored weights")
    # Summed as Python ints, so no gap can overflow before the bound is checked.
    if sum(gaps) + len(gaps) > dim:
        raise ValidationError(f"model gaps place a weight past slot {dim - 1}")
    return np.cumsum(np.asarray(gaps, dtype=np.int64) + 1) - 1


def load_model(stream: IO) -> BaselineModel:
    """Read a model that save_model wrote; any other input fails closed.

    Text that is not a JSON object is a ParseError. Each of these is a
    ValidationError: a format tag other than MODEL_FORMAT; keys other
    than exactly its five; a layout tag other than FEATURE_LAYOUT; a
    config without exactly the TrainConfig fields, each of its JSON type
    and in range; weights that are not the canonical base64 of a whole
    number of finite float64 values; gaps that are not one non-negative
    JSON int per stored weight, or that place a weight past the last
    slot hash_bits gives. Weight vectors the host cannot allocate at the
    config's hash_bits are a ValidationError too.
    """
    try:
        payload = json.load(stream)
    # JSONDecodeError, an int past the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"model file is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("model file is not a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {payload.get('format')!r}")
    if payload.keys() != _MODEL_KEYS:
        raise ValidationError(f"a {MODEL_FORMAT} model must hold exactly the keys "
                              + ", ".join(sorted(_MODEL_KEYS)))
    if payload["layout"] != FEATURE_LAYOUT:
        raise ValidationError(f"unknown feature layout {payload['layout']!r}")
    raw = payload["config"]
    if not isinstance(raw, dict) or raw.keys() != TRAIN_FIELD_TYPES.keys():
        raise ValidationError("model config must hold exactly the keys "
                              + ", ".join(TRAIN_FIELD_TYPES))
    for key, kind in TRAIN_FIELD_TYPES.items():
        value = raw[key]
        # JSON has one number type: an int may fill a float field; a bool fills none.
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValidationError(
                f"model config {key} must be a JSON {kind.__name__}, got {value!r}")
    try:
        config = TrainConfig(**{key: kind(raw[key]) for key, kind in TRAIN_FIELD_TYPES.items()})
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"bad model: {exc}") from None
    weights = _decode_weights(payload["weights"])
    # Only stored values can be non-finite: checked before any dense vector exists.
    if not np.isfinite(weights).all():
        raise ValidationError("model weights must be finite")
    dim = (1 << config.hash_bits) + DENSE_BLOCK_SIZE
    slots = _stored_slots(payload["gaps"], weights.shape[0], dim)
    # Lazily mapped zeros: predict never reads m or v, so their pages stay unmapped.
    dense, m, v = _zero_vectors(config.hash_bits, 3)
    dense[slots] = weights
    return BaselineModel(config=config, weights=dense, m=m, v=v)
