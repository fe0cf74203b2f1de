"""Wikitext noise removal.

Four deletion-only stages, applied in a fixed order:

    balance  - delete surplus braces so `{` and `}` counts match
    debrace  - drop every brace span (stack simulation) and the braces
    depunct  - delete punctuation characters
    despace  - collapse whitespace runs to single spaces, strip ends

All functions operate on Unicode code points, never bytes, and are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Space, tab, CR, LF, form feed, vertical tab. Deliberately not Unicode-wide.
WHITESPACE_CHARS = " \t\r\n\f\v"
_WS_RUN = re.compile("[" + re.escape(WHITESPACE_CHARS) + "]+")

# ASCII punctuation with `{` and `}` excluded: braces belong to the debrace
# stage and must survive depunct when depunct runs alone.
DEFAULT_PUNCTUATION = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`|~")

STAGES = ("balance", "debrace", "depunct", "despace")


@dataclass(frozen=True)
class CleanConfig:
    punctuation_set: frozenset[str] = DEFAULT_PUNCTUATION
    collapse_whitespace: bool = True
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
        bad = {c for c in self.punctuation_set if c in "{}" or c in WHITESPACE_CHARS}
        if bad:
            raise ValueError(f"punctuation_set may not contain {sorted(bad)}")
        object.__setattr__(self, "punctuation_set", frozenset(self.punctuation_set))
        # Not a field: derived from punctuation_set for str.translate.
        object.__setattr__(self, "deletions", _deletion_table(self.punctuation_set))


def _deletion_table(punct: frozenset[str]) -> dict[int, None]:
    """str.translate table deleting each one-character member of punct."""
    return {ord(ch): None for ch in punct if len(ch) == 1}


_DEFAULT_DELETIONS = _deletion_table(DEFAULT_PUNCTUATION)


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
    opening = text.count("{")
    closing = text.count("}")
    if opening > closing:
        # Leftmost-first removal of k surplus `{` == drop the first k `{`.
        surplus = opening - closing
        out = []
        for ch in text:
            if ch == "{" and surplus:
                surplus -= 1
                continue
            out.append(ch)
        text = "".join(out)
    elif closing > opening:
        surplus = closing - opening
        out = []
        for ch in reversed(text):
            if ch == "}" and surplus:
                surplus -= 1
                continue
            out.append(ch)
        text = "".join(reversed(out))
    return text.strip()


def remove_brace_spans(text: str) -> str:
    """Drop every character inside (or part of) a brace span.

    `{` pushes; `}` pops when the stack top is `{`, otherwise it is
    silently dropped; other characters are kept only at depth zero.
    Everything after an unmatched `{` is dropped.
    """
    depth = 0
    out = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth:
                depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def strip_punctuation(text: str, config: CleanConfig | None = None) -> str:
    return text.translate(_DEFAULT_DELETIONS if config is None else config.deletions)


def normalize_whitespace(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


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
        text = strip_punctuation(text, config)
    if "despace" in config.stage_mask and config.collapse_whitespace:
        text = normalize_whitespace(text)
    report.output_length = len(text)
    return text, report
