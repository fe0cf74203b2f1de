"""Premise/hypothesis construction from joined node texts.

id1's cleaned text becomes the premise, id2's the hypothesis. Each side
is whitespace-tokenized and head-truncated to max_tokens independently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable

from .dataset import PairRecord
from .textclean import WHITESPACE_CHARS

_WS_SPLIT = re.compile("[" + re.escape(WHITESPACE_CHARS) + "]+")


@dataclass(frozen=True)
class SentencePair:
    pair_id: str
    premise_tokens: tuple[str, ...]
    hypothesis_tokens: tuple[str, ...]
    label: int | None = None


def tokenize(text: str, max_tokens: int) -> tuple[str, ...]:
    """The first max_tokens tokens between maximal whitespace runs. Of the
    max_tokens + 2 pieces at most, only the first and the last can be empty."""
    return tuple([t for t in _WS_SPLIT.split(text, max_tokens + 1) if t][:max_tokens])


def build_pair(
    pair: PairRecord,
    premise_text: str,
    hypothesis_text: str,
    max_tokens: int,
    tokens: dict[int, tuple[str, ...]] | None = None,
) -> SentencePair:
    """The sentence pair of `pair`, whose node texts are given.

    `tokens` maps a node id to its token tuple under this max_tokens. A
    caller that passes one dict for all the pairs of a file tokenizes each
    node once, and pairs that share a node share its tuple.
    """
    if tokens is None:
        tokens = {}
    for node_id, text in ((pair.id1, premise_text), (pair.id2, hypothesis_text)):
        if node_id not in tokens:
            tokens[node_id] = tokenize(text, max_tokens)
    return SentencePair(
        pair_id=pair.pair_id,
        premise_tokens=tokens[pair.id1],
        hypothesis_tokens=tokens[pair.id2],
        label=pair.label,
    )


def write_prepared(pairs: Iterable[SentencePair], stream: IO) -> int:
    """One record per line: pair_id, label or `-`, premise, hypothesis (tabs)."""
    n = 0
    for sp in pairs:
        label = "-" if sp.label is None else str(sp.label)
        stream.write(
            f"{sp.pair_id}\t{label}\t{' '.join(sp.premise_tokens)}"
            f"\t{' '.join(sp.hypothesis_tokens)}\n"
        )
        n += 1
    return n

