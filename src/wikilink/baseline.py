"""Hashed-feature logistic pair classifier with a from-scratch AdamW.

The feature space is 2^hash_bits hashed slots (unigrams/bigrams of each
side plus shared tokens, namespace-prefixed) followed by a 4-slot dense
block: overlap count, Jaccard similarity, normalized length difference,
bias. Hashing is 64-bit FNV-1a over UTF-8 bytes, masked to hash_bits, so
feature indices are stable across runs and platforms.

Pairs are featurized into CSR rows (`FeatureRows`) from one node table
per run (`NodeTable`), which hashes each node once, on the sides its
pairs read; a pair costs only the gather of its two nodes' slot streams, its
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
        if not 1 <= self.max_tokens <= 2**31 - 1:  # a node's token counts are int32
            raise ValueError("max_tokens must be in [1, 2147483647]")
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


class BaselineModel(NamedTuple):
    """The weights of the classifier under its training config."""

    config: TrainConfig
    weights: np.ndarray

    @classmethod
    def zeros(cls, config: TrainConfig) -> "BaselineModel":
        return cls(config, _zero_vector(config.hash_bits))


def _zero_vector(hash_bits: int, dtype=np.float64) -> np.ndarray:
    """A zero vector of 2^hash_bits + 4 slots, or a ValidationError if the host cannot map it."""
    dim, dtype = (1 << hash_bits) + DENSE_BLOCK_SIZE, np.dtype(dtype)
    try:
        return np.zeros(dim, dtype)
    except MemoryError:
        raise ValidationError(f"hash_bits {hash_bits} needs {dtype.itemsize * dim:,} bytes, one "
                              f"{dtype} per slot, more than this host can allocate") from None


class AdamWState:
    """AdamW over `dim` weights, the bias last: weights, moments, step count,
    each batch's loss, and two buffers adamw_step reuses so a step allocates nothing."""

    __slots__ = ("config", "weights", "m", "v", "step", "losses", "buffers")

    def __init__(self, config: TrainConfig, dim: int):
        self.config = config
        self.weights, self.m, self.v = np.zeros(dim), np.zeros(dim), np.zeros(dim)
        self.step = 0
        self.losses: list[float] = []
        self.buffers = (np.empty(dim), np.empty(dim))


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


def _fnv_fold(states: np.ndarray, ids: np.ndarray, vocab: tuple) -> np.ndarray:
    """Continue FNV-1a, in place, from `states[i]` over the bytes of token `ids[i]`
    (`vocab` holds the tokens' bytes, starts and lengths first). The ids come longest
    first, so the tokens with a byte at column j are a prefix: one uint64 step each."""
    buf, starts, lens = vocab[:3]
    for lo in range(0, ids.shape[0], _FOLD_BLOCK):
        h, block = states[lo : lo + _FOLD_BLOCK], ids[lo : lo + _FOLD_BLOCK]
        at, n = starts[block], lens[block]
        # active[j]: how many tokens are longer than j bytes
        for j, k in enumerate(np.searchsorted(-n, -np.arange(n[0]), side="left").tolist()):
            h[:k] ^= buf[at[:k] + j]
            h[:k] *= _FNV_PRIME_U64
    return states


class NodeTable:
    """The rows (nodes) of a token table that some pairs read, each hashed once.

    A premise row keeps its masked P stream and a hypothesis row its H
    stream, laid out alike as its unigram slots then its bigram slots; no
    stream that no pair reads is hashed. Every row keeps its distinct token
    ids (the table's vocabulary indexes), ascending, with their counts, all
    int32 (hash_bits <= 30). `rows` lays out the pairs' feature rows from these.
    """

    def __init__(self, tokens: Tokens, hash_bits: int, pairs: Sequence[SentencePair]):
        self.hash_bits = hash_bits
        self.words = list(tokens.vocab)  # token id -> token
        self.radix = max(len(self.words), 1)
        self.lens = np.fromiter(map(len, tokens.ids), dtype=np.int64, count=len(tokens.ids))
        ids = np.concatenate(tokens.ids or [np.zeros(0, dtype=np.int32)])
        starts = np.cumsum(self.lens) - self.lens
        # A position heads a bigram unless it is the last of its row.
        is_head = np.ones(ids.shape[0], dtype=bool)
        is_head[(starts + self.lens - 1)[self.lens > 0]] = False
        byte_lens = np.fromiter(map(len, self.words), dtype=np.int64, count=len(self.words))
        vocab = (np.frombuffer(b"".join(self.words), np.uint8), np.cumsum(byte_lens) - byte_lens,
                 byte_lens, np.argsort(-byte_lens))  # the last: token ids, longest first
        # A bigram is (its second token's place in that order) << id_bits | its first
        # token's id, so the sorted bigrams come longest first, as the fold takes them.
        id_bits = (self.radix - 1).bit_length()  # <= 31: a vocabulary holds < 2^31 tokens
        bigrams, which = np.unique((np.argsort(vocab[3])[ids[1:]] << id_bits | ids[:-1])[
            is_head[:-1]], return_inverse=True)
        which = which.astype(np.int32)  # each head's bigram
        self.sides = np.zeros((2, self.lens.shape[0]), dtype=bool)  # premise, hypothesis rows
        self.sides[0, [sp.premise for sp in pairs]] = True
        self.sides[1, [sp.hypothesis for sp in pairs]] = True
        on = [np.repeat(side, self.lens) for side in self.sides]  # each side's positions
        present = np.zeros((2, self.radix), dtype=bool)  # each side's tokens
        present[0, ids[on[0]]] = present[1, ids[on[1]]] = True
        slots = [_hash_keys(vocab, namespace, present[s], bigrams, which[on[s][is_head]], id_bits,
                            hash_bits) for s, namespace in enumerate(_NAMESPACES[:2])]
        self.shared_slots = _hash_keys(vocab, "S", present[0] & present[1], bigrams, which[:0],
                                       id_bits, hash_bits)[0]
        del vocab, bigrams, present

        self.stream_lens = np.where(self.sides, 2 * self.lens - (self.lens > 0), 0)
        self.stream_starts = np.cumsum(self.stream_lens, axis=1) - self.stream_lens
        self.streams = [np.empty(int(n), dtype=np.int32) for n in self.stream_lens.sum(axis=1)]
        for s, (unigram, bigram) in enumerate(slots):
            at = np.repeat(self.stream_starts[s] - starts, self.lens) + np.arange(ids.shape[0])
            self.streams[s][at[on[s]]] = unigram[ids[on[s]]]
            at += np.repeat(self.lens, self.lens)  # the bigram each position heads
            self.streams[s][at[on[s] & is_head]] = bigram[which[on[s][is_head]]]
            del at
        del on, is_head, which, slots

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
        if not (self.sides[0, premise].all() and self.sides[1, hypothesis].all()):
            raise ValidationError("a pair reads a node on a side the node table was not built for")
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

        p_lens, h_lens = self.stream_lens[0, premise], self.stream_lens[1, hypothesis]
        row_lens = p_lens + h_lens + n_shared
        row_starts = np.cumsum(row_lens) - row_lens
        stream = np.empty(int(row_lens.sum()), dtype=np.int32)
        stream[_ranges(row_starts, p_lens)] = self.streams[0][
            _ranges(self.stream_starts[0, premise], p_lens)]
        stream[_ranges(row_starts + p_lens, h_lens)] = self.streams[1][
            _ranges(self.stream_starts[1, hypothesis], h_lens)]
        stream[_ranges(row_starts + p_lens + h_lens, n_shared)] = shared_slots
        return _dedup_rows(stream, row_lens, dense, self.hash_bits)

    def _set_entries(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the token sets of `nodes`, concatenated: each entry's row
        (its place in `nodes`) and its index into set_ids and set_counts."""
        return (np.repeat(np.arange(nodes.shape[0]), self.set_lens[nodes]),
                _ranges(self.set_starts[nodes], self.set_lens[nodes]))


def _hash_keys(vocab: tuple, namespace: str, present: np.ndarray, bigrams: np.ndarray,
               heads: np.ndarray, id_bits: int, hash_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Masked int32 slots under the namespace of the tokens `present` marks, by token
    id (else 0), and of the bigrams `heads` index, by bigram index (else unset).
    `vocab` and `bigrams` are NodeTable's, so sorted bigrams come longest first."""
    by_len, keys = vocab[3], np.flatnonzero(np.bincount(heads, minlength=bigrams.shape[0]))
    ids = by_len[present[by_len]]
    # FNV is a left fold, so "P\x1ftok" continues from the state after "P\x1f".
    prefix = fnv1a_64(f"{namespace}\x1f".encode())
    states = np.zeros(present.shape[0], dtype=np.uint64)
    states[ids] = _fnv_fold(np.full(ids.shape[0], prefix, dtype=np.uint64), ids, vocab)
    mask = np.uint64((1 << hash_bits) - 1)
    slots = np.empty(bigrams.shape[0], dtype=np.int32)
    for key in np.split(keys, range(_FOLD_BLOCK, keys.shape[0], _FOLD_BLOCK)):
        code = bigrams[key]
        # A bigram key continues from its first token's unmasked state, over
        # the separator byte and then the second token's bytes.
        first = (states[code & ((1 << id_bits) - 1)] ^ np.uint64(_BIGRAM_SEP)) * _FNV_PRIME_U64
        slots[key] = _fnv_fold(first, by_len[code >> id_bits], vocab) & mask
    return (states & mask).astype(np.int32), slots


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + lengths[i] - 1 for each i, concatenated."""
    ends = np.cumsum(lengths)
    total = ends[-1] if ends.shape[0] else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _dedup_key_bits(n_rows: int, hash_bits: int, n_positions: int) -> int:
    """The position bits of _dedup_rows' (row, slot, position) sort key, which must fit 63."""
    position_bits = max(n_positions - 1, 0).bit_length()
    if max(n_rows - 1, 0).bit_length() + hash_bits + position_bits > 63:
        raise ValidationError(f"{n_rows} rows of {n_positions} slots overflow the 63-bit row key")
    return position_bits


def _dedup_rows(stream: np.ndarray, row_lens: np.ndarray, dense: np.ndarray,
                hash_bits: int) -> FeatureRows:
    """Count repeated slots within each row in first-seen order, then append the dense block."""
    n, m = dense.shape[0], stream.shape[0]
    position_bits = _dedup_key_bits(n, hash_bits, m)
    # One in-place sort of (row, slot, position) keys puts each (row, slot) group's
    # least position, where it is first seen, at its head; those, ascending, are the row order.
    key = (np.repeat(np.arange(n, dtype=np.int64) << hash_bits, row_lens) | stream
           ) << position_bits | np.arange(m)
    key.sort()
    heads = np.flatnonzero(np.diff(key >> position_bits, prepend=-1))
    head_keys = key[heads]
    count_at = np.zeros(m, dtype=np.int64)
    count_at[head_keys & ((1 << position_bits) - 1)] = np.diff(heads, append=m)
    first = np.flatnonzero(count_at)
    per_row = np.diff(np.searchsorted(head_keys, np.arange(n + 1) << hash_bits + position_bits))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_row + DENSE_BLOCK_SIZE, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1])
    hashed_at = _ranges(indptr[:-1], per_row)
    indices[hashed_at] = stream[first]
    values[hashed_at] = count_at[first]
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


def adamw_step(state: AdamWState, gradient: np.ndarray) -> AdamWState:
    """One decoupled-weight-decay Adam update under `state.config`; mutates
    and returns the state.

    Moments use beta1/beta2 with bias correction; eps sits outside the
    square root: w -= lr * m_hat / (sqrt(v_hat) + eps). Weight decay is
    applied directly to every weight except the bias, the last one. `m`,
    `v` and the weights are updated in place, with the float operations
    of the formulas in the order written.
    """
    config = state.config
    if not np.isfinite(gradient).all():
        raise NumericError("non-finite gradient entry; aborting training")
    if gradient.shape != state.weights.shape:
        raise ValidationError(f"gradient shape {gradient.shape} does not match "
                              f"weight dimension {state.weights.shape[0]}")

    b1, b2, lr = config.adamw_beta1, config.adamw_beta2, config.learning_rate
    state.step += 1
    t = state.step
    m, v, weights = state.m, state.v, state.weights
    tmp, update = state.buffers
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
        tmp[-1] = 0.0
        update += tmp
    weights -= update
    if not np.isfinite(weights).all():
        raise NumericError("non-finite weights after update")
    return state


def fit(rows: FeatureRows, labels: Sequence[int],
        config: TrainConfig) -> tuple[np.ndarray, AdamWState]:
    """Mini-batch AdamW on logistic loss over the slots some row touches,
    renumbered in place to their ranks (the bias, in every row, stays last);
    deterministic for a fixed seed. Returns the slots, ascending, and the
    final state over them: the dense loop's state at `slots`, bit for bit
    (`tests/oracles.py` holds that loop). An untouched slot gets a zero
    gradient at every step, so AdamW leaves its weight, m and v at 0.0, and
    a bincount adds each slot's terms in row order under any renumbering.
    """
    # One int32 array over the hash space (hash_bits <= 30): 1 at each touched
    # slot, then its running count, so a touched slot's rank is its count - 1.
    rank = _zero_vector(config.hash_bits, np.int32)
    rank[rows.indices] = 1
    slots = np.flatnonzero(rank)
    np.cumsum(rank, out=rank)
    np.subtract(rank[rows.indices], 1, out=rows.indices)
    del rank
    state = AdamWState(config, slots.shape[0])
    rng = random.Random(config.seed)
    order = list(range(len(labels)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad = logistic_loss_and_gradient(
                state.weights, rows.take(batch), [labels[i] for i in batch])
            state.losses.append(loss)
            adamw_step(state, grad)
    return slots, state


def train(examples: Sequence[SentencePair], config: TrainConfig,
          table: NodeTable) -> BaselineModel:
    """The weights `fit` trains on the examples' rows, back at their slots. They
    are allocated first, so a hash_bits the host cannot map fails before any step."""
    if not examples:
        raise ValidationError("cannot train on an empty example set")
    for sp in examples:
        if sp.label is None:
            raise ValidationError(f"pair {sp.pair_id} is unlabeled")
    _check_hash_bits(table, config.hash_bits)
    rows = featurize(examples, table)
    model = BaselineModel.zeros(config)
    slots, state = fit(rows, [sp.label for sp in examples], config)
    model.weights[slots] = state.weights
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
    slot hash_bits gives. A weight vector the host cannot allocate at the
    config's hash_bits is a ValidationError too.
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
    model = BaselineModel.zeros(config)
    model.weights[slots] = weights
    return model
