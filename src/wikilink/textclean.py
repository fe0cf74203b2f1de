"""Wikitext noise removal.

Four deletion-only stages, applied in a fixed order:

    balance  - delete surplus braces so `{` and `}` counts match
    debrace  - drop every brace span (clamped nesting depth) and the braces
    depunct  - delete punctuation characters
    despace  - collapse whitespace runs to single spaces, strip ends

`clean` encodes the text to UTF-8 (`surrogatepass`) once, runs each enabled
stage as a `bytes -> bytes` function, and decodes once; every count in its
report is in code points. A byte below 0x80 only ever encodes its ASCII
character (RFC 3629), so no cut at such a byte splits a character. Only the
six `WHITESPACE_CHARS` collapse (not `\x85`, `\xa0`, ...), but the end strips
are `str.strip()`: "a \xa0" -> "a", "a\xa0b" kept.
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
_TO_SPACE = bytes.maketrans(WHITESPACE_CHARS[1:].encode(), b" " * 5)  # all but the space
# End bytes `bytes.strip()` keeps that may be (part of) `str.strip()` whitespace.
_MAYBE_SPACE = frozenset(range(0x1C, 0x20)) | frozenset(range(0x80, 0x100))


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


def _strip(data: bytes) -> bytes:
    """`str.strip()` on UTF-8 bytes; decodes only when an end byte needs it."""
    data = data.strip()
    if data and (data[0] in _MAYBE_SPACE or data[-1] in _MAYBE_SPACE):
        return data.decode(*_UTF8).strip().encode(*_UTF8)
    return data


def balance_curly_braces(data: bytes) -> tuple[bytes, int]:
    """Delete surplus braces, then strip outer whitespace; return the
    result and the number of braces deleted.

    Surplus `{` are removed leftmost-first, surplus `}` rightmost-first;
    the strip applies even when the input was already balanced.
    """
    codes = np.frombuffer(data, np.uint8)
    surplus = int(np.count_nonzero(codes == 123) - np.count_nonzero(codes == 125))  # `{`, `}`
    if surplus > 0:
        data = data.replace(b"{", b"", surplus)
    elif surplus < 0:
        data = data[::-1].replace(b"}", b"", -surplus)[::-1]
    return _strip(data), abs(surplus)


def remove_brace_spans(data: bytes) -> bytes:
    """Drop every character inside (or part of) a brace span.

    `{` pushes; `}` pops when the stack top is `{`, otherwise it is
    silently dropped; other characters are kept only at depth zero.
    Everything after an unmatched `{` is dropped. The clamped depth after
    brace k, D_k = max(0, D_{k-1} + s_k) (s = +1 at `{`, -1 at `}`), is
    S - running min of S, with S = cumsum(s) from S_0 = 0 (Lindley, 1952).
    Kept are the bytes before the first brace and after each brace with D = 0.
    """
    codes = np.frombuffer(data, np.uint8)
    at = ((codes == 123) | (codes == 125)).nonzero()[0]  # `{`, `}`: s = 124 - code
    if not at.shape[0]:
        return data
    total = np.concatenate(([0], np.cumsum(np.subtract(124, codes[at], dtype=np.int64))))
    runs = (total == np.minimum.accumulate(total)).nonzero()[0]
    bounds = np.concatenate(([-1], at, [len(data)]))  # the cuts: each brace, and both ends
    starts, stops = (bounds[runs] + 1).tolist(), bounds[runs + 1].tolist()
    return b"".join([data[i:j] for i, j in zip(starts, stops)])


def strip_punctuation(data: bytes) -> bytes:
    return data.translate(None, _PUNCTUATION_BYTES)


def normalize_whitespace(data: bytes) -> bytes:
    """Each whitespace run becomes one space (the run's first byte, mapped
    to a space), then the ends are stripped."""
    data = data.translate(_TO_SPACE)
    if b"  " in data:
        codes = np.frombuffer(data, np.uint8)
        keep = codes != 32
        keep[1:] |= keep[:-1]  # a space is kept only after a non-space
        data = codes[keep].tobytes()
    return _strip(data)


def clean(text: str, config: CleanConfig = CleanConfig()) -> tuple[str, CleanReport]:
    """Run the enabled stages in order on the text's UTF-8 bytes; report
    what each deleted."""
    data = text.encode(*_UTF8)
    braces = debraced = 0
    if config.balance:
        data, braces = balance_curly_braces(data)
    if config.debrace:
        before = data
        data = remove_brace_spans(data)
        debraced = (len(before) - len(data) if text.isascii()
                    else len(before.decode(*_UTF8)) - len(data.decode(*_UTF8)))
    if config.depunct:
        data = strip_punctuation(data)
    if config.despace:
        data = normalize_whitespace(data)
    text_out = data.decode(*_UTF8)
    return text_out, CleanReport(len(text), len(text_out), braces, debraced)
