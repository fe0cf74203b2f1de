"""Premise/hypothesis construction from joined node texts.

id1's cleaned text becomes the premise, id2's the hypothesis. Each side
is whitespace-tokenized and head-truncated to max_tokens independently,
once per node and run, into the run's token table (`Tokens`).
"""

from __future__ import annotations

import re
from itertools import count, takewhile
from typing import IO, NamedTuple, Sequence

import numpy as np

from .dataset import PairRecord
from .errors import ValidationError
from .textclean import WHITESPACE_CHARS

_WS_SPLIT = re.compile("[" + re.escape(WHITESPACE_CHARS) + "]+")
_MAX_ID = np.iinfo(np.int32).max


def tokenize(text: str, max_tokens: int) -> tuple[str, ...]:
    """The first max_tokens tokens between maximal whitespace runs. Of the
    max_tokens + 2 pieces at most, only the first and the last can be empty."""
    return tuple([t for t in _WS_SPLIT.split(text, max_tokens + 1) if t][:max_tokens])


class Tokens:
    """The run's token table: one vocabulary, and each node's tokens, cut at
    max_tokens, as one int32 array of token ids (a row). A token's id is
    the run position where it was first seen, so ids are unique but not
    consecutive, and a row maps its tokens in one `dict.setdefault` pass."""

    def __init__(self, max_tokens: int):
        self.max_tokens = max_tokens
        self.vocab: dict[str, int] = {}  # token -> id, in first-seen order
        self.rows: dict[int, int] = {}   # node id -> row
        self.ids: list[np.ndarray] = []  # row -> its token ids
        self.positions = 0               # tokens held over all rows

    def row(self, node_id: int, text: str) -> int:
        """The row of node `node_id`, whose text is `text`; tokenized on first use."""
        if node_id not in self.rows:
            self.rows[node_id] = self.append(tokenize(text, self.max_tokens))
        return self.rows[node_id]

    def append(self, tokens: Sequence[str]) -> int:
        """Add a row holding `tokens` as they are, and return it."""
        if self.positions + len(tokens) > _MAX_ID:
            raise ValidationError(f"more than {_MAX_ID} tokens in one run")
        self.ids.append(np.fromiter(map(self.vocab.setdefault, tokens, count(self.positions)),
                                    dtype=np.int32, count=len(tokens)))
        self.positions += len(tokens)
        return len(self.ids) - 1

    def ranks(self) -> np.ndarray:
        """Token id -> the token's place in the vocabulary (0..V-1), as a lookup array."""
        ranks = np.zeros(self.positions, dtype=np.int32)
        ranks[np.fromiter(self.vocab.values(), dtype=np.int64)] = np.arange(len(self.vocab))
        return ranks


class SentencePair(NamedTuple):
    pair_id: str
    premise: int     # row of id1 in `tokens`
    hypothesis: int  # row of id2 in `tokens`
    label: int | None
    tokens: Tokens

    @property
    def premise_tokens(self) -> np.ndarray:
        """The premise's token ids: one array for every pair on that node."""
        return self.tokens.ids[self.premise]

    @property
    def hypothesis_tokens(self) -> np.ndarray:
        return self.tokens.ids[self.hypothesis]


def build_pair(pair: PairRecord, premise_text: str, hypothesis_text: str,
               tokens: Tokens) -> SentencePair:
    """The sentence pair of `pair`, whose node texts are given, over the
    token table `tokens`: a node already in the table is not tokenized again."""
    return SentencePair(pair.pair_id, tokens.row(pair.id1, premise_text),
                        tokens.row(pair.id2, hypothesis_text), pair.label, tokens)


def write_prepared(pairs: Sequence[SentencePair], tokens: Tokens, stream: IO) -> int:
    """One record per line: pair_id, label or `-`, premise, hypothesis
    (tabs); each side is its node's tokens in `tokens`, joined by spaces.
    Ids grow in `tokens.vocab`'s order: only its prefix up to these rows' largest id is read."""
    rows = dict.fromkeys(row for sp in pairs for row in (sp.premise, sp.hypothesis))
    last = max((int(tokens.ids[row].max()) for row in rows if len(tokens.ids[row])), default=-1)
    words = dict(zip(takewhile(last.__ge__, tokens.vocab.values()), tokens.vocab))
    sides = {row: " ".join(map(words.__getitem__, tokens.ids[row].tolist())) for row in rows}
    for sp in pairs:
        label = "-" if sp.label is None else str(sp.label)
        stream.write(f"{sp.pair_id}\t{label}\t{sides[sp.premise]}\t{sides[sp.hypothesis]}\n")
    return len(pairs)
