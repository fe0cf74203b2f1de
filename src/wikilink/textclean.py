"""Wikitext noise removal.

Four deletion-only stages, applied in a fixed order:

    balance  - delete surplus braces so `{` and `}` counts match
    debrace  - drop every brace span (clamped nesting depth) and the braces
    depunct  - delete punctuation characters
    despace  - collapse whitespace runs to single spaces, strip ends

`clean_records` cleans texts together, in blocks of about `BLOCK_CHARS`:
it encodes each text to UTF-8 (`surrogatepass`), balances it, joins the
block's texts with the byte 0xFF (which no such UTF-8 holds), runs each
later stage once on the block as a `bytes -> bytes` function, and splits
and decodes once; `clean` is the same code on one text. Every count in a
report is in code points. A byte below 0x80 only ever encodes its ASCII
character (RFC 3629), so no cut at such a byte splits a character. Only the
six `WHITESPACE_CHARS` collapse (not `\x85`, `\xa0`, ...), but the end strips
are `str.strip()` of each text: "a \xa0" -> "a", "a\xa0b" kept.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

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
_SEP = b"\xff"  # ends each text of a block but the last; never in UTF-8 (RFC 3629)
# Text per block, in code points: 32 KB of ASCII. A block's temporaries then
# stay under glibc's 128 KiB mmap and trim thresholds, so a fresh process does
# not fault in new pages for every block: 2^16-2^18 blocks took up to 10x the
# page faults on `noisy-nodes` and made the whole pipeline slower.
BLOCK_CHARS = 1 << 15


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
    """Drop every character inside (or part of) a brace span, in each text
    of a block (texts end at 0xFF, which is kept).

    `{` pushes; `}` pops when the stack top is `{`, otherwise it is
    silently dropped; other characters are kept only at depth zero.
    Everything after an unmatched `{` is dropped, up to the text's end.
    The clamped depth after event k, D_k = max(0, D_{k-1} + s_k), is
    S - running min of S, with S = cumsum(s) from S_0 = 0 (Lindley, 1952).
    s is +1 at `{`, -1 at `}`, and at 0xFF a close deeper than any depth,
    so D is 0 after each text. Kept are the bytes before the first event,
    each 0xFF, and the bytes after each event with D = 0.
    """
    codes = np.frombuffer(data, np.uint8)
    events = codes == 123  # `{`, `}` and 0xFF; s = 124 - code at a brace
    events |= codes == 125
    events |= codes == 255
    at = events.nonzero()[0]
    if not at.shape[0]:
        return data
    steps = np.subtract(124, codes[at], dtype=np.int64)
    ends = steps < -1  # 0xFF
    steps[ends] = -(at.shape[0] + 1)
    total = np.concatenate(([0], np.cumsum(steps)))
    runs = (total == np.minimum.accumulate(total)).nonzero()[0]
    # Run k spans from event k - 1 (after a brace, at a 0xFF) to event k.
    starts = np.concatenate(([0], at + 1 - ends))[runs].tolist()
    stops = np.concatenate((at, [len(data)]))[runs].tolist()
    return b"".join([data[i:j] for i, j in zip(starts, stops)])


def strip_punctuation(data: bytes) -> bytes:
    return data.translate(None, _PUNCTUATION_BYTES)


def normalize_whitespace(data: bytes) -> bytes:
    """Each whitespace run becomes one space (the run's first byte, mapped
    to a space), then the ends of each text of a block (texts end at 0xFF)
    are stripped."""
    data = data.translate(_TO_SPACE)
    if b"  " in data:
        codes = np.frombuffer(data, np.uint8)
        keep = codes != 32
        keep[1:] |= keep[:-1]  # a space is kept only after a non-space
        data = codes[keep].tobytes()
    return _SEP.join([_strip(part) for part in data.split(_SEP)])


def clean(text: str, config: CleanConfig = CleanConfig()) -> tuple[str, CleanReport]:
    """Run the enabled stages in order on the text's UTF-8 bytes; report
    what each deleted."""
    (out,), (report,) = _clean_block([text], config)
    return out, report


def clean_records(records: Iterable[tuple[int, str]], config: CleanConfig = CleanConfig()
                  ) -> Iterator[tuple[int, str, CleanReport]]:
    """(id, cleaned text, report) for each (id, text) record, in order: what
    `clean` gives, from blocks of about `BLOCK_CHARS` of text cleaned at once."""
    keys: list[int] = []
    texts: list[str] = []
    size = 0
    for key, text in records:
        keys.append(key)
        texts.append(text)
        size += len(text)
        if size >= BLOCK_CHARS:
            yield from zip(keys, *_clean_block(texts, config))
            keys, texts, size = [], [], 0
    if texts:
        yield from zip(keys, *_clean_block(texts, config))


def _clean_block(texts: list[str], config: CleanConfig) -> tuple[list[str], list[CleanReport]]:
    """Each text balanced alone, then joined by 0xFF and run through the
    other enabled stages at once; the cleaned texts and their reports."""
    parts = [text.encode(*_UTF8) for text in texts]
    braces = debraced = [0] * len(texts)
    if config.balance:
        parts, braces = zip(*map(balance_curly_braces, parts))
    data = _SEP.join(parts)
    if config.debrace:
        data = remove_brace_spans(data)
        debraced = [len(before) - len(after) if text.isascii()
                    else len(before.decode(*_UTF8)) - len(after.decode(*_UTF8))
                    for text, before, after in zip(texts, parts, data.split(_SEP))]
    if config.depunct:
        data = strip_punctuation(data)
    if config.despace:
        data = normalize_whitespace(data)
    outs = [part.decode(*_UTF8) for part in data.split(_SEP)]
    return outs, list(map(CleanReport, map(len, texts), map(len, outs), braces, debraced))
