"""Wikitext noise removal.

Four deletion-only stages, applied in a fixed order:

    balance  - delete surplus braces so `{` and `}` counts match
    debrace  - drop every brace span (clamped nesting depth) and the braces
    depunct  - delete punctuation characters
    despace  - collapse whitespace runs to single spaces, strip ends

All functions operate on Unicode code points, never bytes, and are pure.
Only the six ASCII `WHITESPACE_CHARS` are collapsed, but the end strips
of balance and despace are `str.strip()`, which also removes Unicode
whitespace such as U+00A0 at the ends: "a \xa0" -> "a", "a\xa0b" kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Space, tab, CR, LF, form feed, vertical tab. Deliberately not Unicode-wide.
WHITESPACE_CHARS = " \t\r\n\f\v"
_TO_SPACE = str.maketrans(dict.fromkeys(WHITESPACE_CHARS[1:], " "))

# ASCII punctuation with `{` and `}` excluded: braces belong to the debrace
# stage and must survive depunct when depunct runs alone.
DEFAULT_PUNCTUATION = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`|~")
_DELETIONS = dict.fromkeys(map(ord, DEFAULT_PUNCTUATION))  # for str.translate

STAGES = ("balance", "debrace", "depunct", "despace")


@dataclass(frozen=True)
class CleanConfig:
    stage_mask: tuple[str, ...] = STAGES

    def __post_init__(self):
        unknown = [s for s in self.stage_mask if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages: {unknown}")
        ordered = tuple(s for s in STAGES if s in self.stage_mask)
        if ordered != tuple(self.stage_mask):
            raise ValueError(
                f"stage_mask must follow the fixed order {STAGES}, got {self.stage_mask}"
            )


@dataclass
class CleanReport:
    input_length: int = 0
    output_length: int = 0
    braces_removed_balance: int = 0
    chars_removed_debrace: int = 0

    def merge(self, other: "CleanReport") -> None:
        self.input_length += other.input_length
        self.output_length += other.output_length
        self.braces_removed_balance += other.braces_removed_balance
        self.chars_removed_debrace += other.chars_removed_debrace


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
    Everything after an unmatched `{` is dropped. The clamped depth
    D_i = max(0, D_{i-1} + s_i) (s = +1 at `{`, -1 at `}`) has the closed
    form S - min(0, running min of S) with S = cumsum(s) (Lindley, 1952),
    so the scan is a few array passes over the code points at any depth.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    steps = (codes == ord("{")).view(np.int8) - (codes == ord("}")).view(np.int8)
    total = np.cumsum(steps, dtype=np.int64)
    depth = total - np.minimum(np.minimum.accumulate(total), 0)
    # A non-brace character leaves the depth unchanged, so D_i is the
    # depth before it.
    keep = (depth == 0) & (steps == 0)
    return codes[keep].tobytes().decode("utf-32-le", "surrogatepass")


def strip_punctuation(text: str) -> str:
    return text.translate(_DELETIONS)


def normalize_whitespace(text: str) -> str:
    return " ".join(filter(None, text.translate(_TO_SPACE).split(" "))).strip()


def clean(text: str, config: CleanConfig | None = None) -> tuple[str, CleanReport]:
    """Run the enabled stages in order; report what each deleted."""
    if config is None:
        config = CleanConfig()
    report = CleanReport(input_length=len(text))
    if "balance" in config.stage_mask:
        report.braces_removed_balance = abs(text.count("{") - text.count("}"))
        text = balance_curly_braces(text)
    if "debrace" in config.stage_mask:
        before_len = len(text)
        text = remove_brace_spans(text)
        report.chars_removed_debrace = before_len - len(text)
    if "depunct" in config.stage_mask:
        text = strip_punctuation(text)
    if "despace" in config.stage_mask:
        text = normalize_whitespace(text)
    report.output_length = len(text)
    return text, report
