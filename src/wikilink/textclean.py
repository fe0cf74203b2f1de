"""Wikitext noise removal.

Four deletion-only stages, applied in a fixed order:

    balance  - delete surplus braces so `{` and `}` counts match
    debrace  - drop every brace span (clamped nesting depth) and the braces
    depunct  - delete punctuation characters
    despace  - collapse whitespace runs to single spaces, strip ends

Each stage is a pure `str -> str` function; every count is in code points.
Debrace, depunct and despace cut UTF-8 bytes (`surrogatepass`): a byte below
0x80 only ever encodes its ASCII character (RFC 3629), so no cut splits a
character. `bytes.split()` splits on exactly the six `WHITESPACE_CHARS` (not
`\x85`, `\xa0`, ...). The end strips are `str.strip()`: "a \xa0" -> "a", "a\xa0b" kept.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Space, tab, CR, LF, form feed, vertical tab. Deliberately not Unicode-wide.
WHITESPACE_CHARS = " \t\r\n\f\v"

# ASCII punctuation with `{` and `}` excluded: braces belong to the debrace
# stage and must survive depunct when depunct runs alone.
DEFAULT_PUNCTUATION = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`|~")
_PUNCTUATION_BYTES = "".join(sorted(DEFAULT_PUNCTUATION)).encode("ascii")
_UTF8 = ("utf-8", "surrogatepass")  # a lone surrogate round-trips


class CleanConfig(NamedTuple):
    """Which stages run; they always run in `STAGES` order."""

    balance: bool = True
    debrace: bool = True
    depunct: bool = True
    despace: bool = True


STAGES = CleanConfig._fields


class CleanReport(NamedTuple):
    """What one text's stages deleted, in code points."""

    input_length: int
    output_length: int
    braces_removed_balance: int
    chars_removed_debrace: int


def balance_curly_braces(text: str) -> str:
    """Delete surplus braces, then strip outer whitespace.

    Surplus `{` are removed leftmost-first, surplus `}` rightmost-first;
    the strip applies even when the input was already balanced.
    """
    surplus = text.count("{") - text.count("}")
    if surplus > 0:
        text = text.replace("{", "", surplus)
    elif surplus < 0:
        text = text[::-1].replace("}", "", -surplus)[::-1]
    return text.strip()


def remove_brace_spans(text: str) -> str:
    """Drop every character inside (or part of) a brace span.

    `{` pushes; `}` pops when the stack top is `{`, otherwise it is
    silently dropped; other characters are kept only at depth zero.
    Everything after an unmatched `{` is dropped. The clamped depth after
    brace k, D_k = max(0, D_{k-1} + s_k) (s = +1 at `{`, -1 at `}`), is
    S - running min of S, with S = cumsum(s) from S_0 = 0 (Lindley, 1952).
    Kept are the bytes before the first brace and after each brace with D = 0.
    """
    data = text.encode(*_UTF8)
    codes = np.frombuffer(data, np.uint8)
    at = np.flatnonzero((codes == 123) | (codes == 125))  # `{`, `}`: s = 124 - code
    total = np.cumsum(np.append(0, 124 - codes[at].astype(np.int64)))
    runs = np.flatnonzero(total == np.minimum.accumulate(total))
    starts = (np.append(-1, at)[runs] + 1).tolist()
    stops = np.append(at, len(data))[runs].tolist()
    return b"".join([data[i:j] for i, j in zip(starts, stops)]).decode(*_UTF8)


def strip_punctuation(text: str) -> str:
    return text.encode(*_UTF8).translate(None, _PUNCTUATION_BYTES).decode(*_UTF8)


def normalize_whitespace(text: str) -> str:
    return b" ".join(text.encode(*_UTF8).split()).decode(*_UTF8).strip()


def clean(text: str, config: CleanConfig = CleanConfig()) -> tuple[str, CleanReport]:
    """Run the enabled stages in order; report what each deleted."""
    input_length = len(text)
    braces = debraced = 0
    if config.balance:
        braces = abs(text.count("{") - text.count("}"))
        text = balance_curly_braces(text)
    if config.debrace:
        before_len = len(text)
        text = remove_brace_spans(text)
        debraced = before_len - len(text)
    if config.depunct:
        text = strip_punctuation(text)
    if config.despace:
        text = normalize_whitespace(text)
    return text, CleanReport(input_length, len(text), braces, debraced)
