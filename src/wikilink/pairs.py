"""Premise/hypothesis construction from joined node texts.

id1's cleaned text becomes the premise, id2's the hypothesis. Each side
is whitespace-tokenized and head-truncated to max_tokens independently,
once per node and run, into the run's token table (`Tokens`). A token
is the UTF-8 bytes (`surrogatepass`) of its text, from the split to the
hash, and its id is its index in the run's vocabulary.
"""

from __future__ import annotations

from itertools import count, filterfalse
from typing import IO, NamedTuple, Sequence

import numpy as np

from .dataset import PairRecord
from .errors import ValidationError

_MAX_ID = np.iinfo(np.int32).max


def tokenize(text: str, max_tokens: int) -> list[bytes]:
    """The first max_tokens tokens between maximal whitespace runs, as UTF-8 bytes:
    `bytes.split()` splits on exactly the six `textclean.WHITESPACE_CHARS`, and a
    byte below 0x80 never sits inside a multi-byte character (RFC 3629)."""
    return text.encode("utf-8", "surrogatepass").split(None, max_tokens)[:max_tokens]


class Tokens:
    """The run's token table: one vocabulary, and each node's tokens, cut at
    max_tokens, as one int32 array of token ids (a row). A new token gets
    the next id, so ids are 0..V-1 in first-seen order: a token's id is
    its index in `list(vocab)`."""

    def __init__(self, max_tokens: int):
        self.max_tokens = max_tokens
        self.vocab: dict[bytes, int] = {}  # token -> id, in first-seen order
        self.rows: dict[int, int] = {}     # node id -> row
        self.ids: list[np.ndarray] = []    # row -> its token ids

    def row(self, node_id: int, text: str) -> int:
        """The row of node `node_id`, whose text is `text`; tokenized on first use."""
        if node_id not in self.rows:
            self.rows[node_id] = self.append(tokenize(text, self.max_tokens))
        return self.rows[node_id]

    def append(self, tokens: Sequence[bytes]) -> int:
        """Add a row holding `tokens` as they are, and return it."""
        vocab = self.vocab
        # `update` inserts each pair as it is drawn, so `count` numbers only first sightings.
        vocab.update(zip(filterfalse(vocab.__contains__, tokens), count(len(vocab))))
        if len(vocab) > _MAX_ID:
            raise ValidationError(f"more than {_MAX_ID} distinct tokens in one run")
        self.ids.append(np.fromiter(map(vocab.__getitem__, tokens), np.int32, len(tokens)))
        return len(self.ids) - 1


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
    (tabs); each side is its node's tokens in `tokens`, joined by spaces
    and decoded once."""
    words = list(tokens.vocab)  # token id -> token
    rows = dict.fromkeys(row for sp in pairs for row in (sp.premise, sp.hypothesis))
    sides = {row: b" ".join(map(words.__getitem__, tokens.ids[row].tolist())).decode(
        "utf-8", "surrogatepass") for row in rows}
    for sp in pairs:
        label = "-" if sp.label is None else str(sp.label)
        stream.write(f"{sp.pair_id}\t{label}\t{sides[sp.premise]}\t{sides[sp.hypothesis]}\n")
    return len(pairs)
