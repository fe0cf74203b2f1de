"""Streaming parsers and statistics for the competition input formats.

nodes.tsv: two tab-separated columns, id and text, no quoting layer.
pairs csv: header `id,id1,id2,label` (labeled) or `id,id1,id2` (unlabeled);
the header says which, and only the label consumers (training, label
statistics, evaluation) reject an unlabeled file. This module owns both,
and `read_csv`, the one reader of every CSV whose header names its columns:
`evaluate` reads its predictions files through it. Lines end at LF only;
the CRs at the end of a line are dropped and any other CR is field content,
so a file reads the same from a path and from stdin. Output written by this
package is always LF.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationError

MAX_NODE_ID = 2**64 - 1

LABELED_HEADER = "id,id1,id2,label"
UNLABELED_HEADER = "id,id1,id2"


class NodeRecord(NamedTuple):
    id: int
    text: str


class PairRecord(NamedTuple):
    pair_id: str
    id1: int
    id2: int
    label: int | None = None


class LabelStats(NamedTuple):
    count_0: int
    count_1: int
    pct_0: float
    pct_1: float


class ParseCounters:
    """Side-channel for non-fatal parser observations."""

    __slots__ = ("missing_text", "skipped_joins")

    def __init__(self):
        self.missing_text = 0
        self.skipped_joins = 0


def _lines(lines: Iterable[str], start: int) -> Iterator[tuple[int, str]]:
    """Each line that is not blank once the CRs ending it go, with its number."""
    for line_no, raw in enumerate(lines, start):
        if line := raw.rstrip("\r\n"):
            yield line_no, line


def _parse_node_id(token: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):  # str.isdigit alone takes "²" and "١٢"
        raise ParseError(f"node id must be a non-negative integer, got {token!r}", line_no)
    if len(token) > 20:  # MAX_NODE_ID's digits; int() refuses more than 4,300
        token = token.lstrip("0") or "0"
        if len(token) > 20:
            raise ParseError(f"node id of {len(token)} digits exceeds 64 bits", line_no)
    value = int(token)
    if value > MAX_NODE_ID:
        raise ParseError(f"node id {value} exceeds 64 bits", line_no)
    return value


def parse_nodes(stream: IO, counters: ParseCounters | None = None) -> Iterator[NodeRecord]:
    """Yield NodeRecords in file order; duplicate ids are fatal.

    A line with no tab yields an empty-text record and bumps
    counters.missing_text; more than one tab means an embedded tab in the
    text field, which the two-column format cannot represent.
    """
    seen: set[int] = set()
    for line_no, line in _lines(stream, 1):
        tab = line.find("\t")
        if tab >= 0 and line.find("\t", tab + 1) >= 0:
            fields = line.count("\t") + 1
            raise ParseError(f"expected 2 tab-separated fields, got {fields}", line_no)
        node_id = _parse_node_id(line if tab < 0 else line[:tab], line_no)
        if node_id in seen:
            raise ValidationError(f"duplicate node id {node_id} at line {line_no}")
        seen.add(node_id)
        if tab < 0:
            if counters is not None:
                counters.missing_text += 1
            yield NodeRecord(node_id, "")
        else:
            yield NodeRecord(node_id, line[tab + 1:])


def write_nodes(records: Iterable[tuple[int, str]], stream: IO) -> None:
    """One `id<TAB>text` line per (id, text) record."""
    for node_id, text in records:
        stream.write(f"{node_id}\t{text}\n")


def read_csv(stream: IO, *headers: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each data line of a CSV whose first
    line is one of `headers`. The header fixes the column count; the first
    column is a pair id, unique and without a tab (it heads a prepared.tsv
    line); a header ending in `label` makes the last column a 0 or 1."""
    expected = "header " + " or ".join(map(repr, headers))
    header = next(stream, None)
    if header is None:
        raise ParseError(f"empty file, expected {expected}", 1)
    header = header.rstrip("\r\n")
    if header not in headers:
        raise ParseError(f"expected {expected}, got {header!r}", 1)
    ncols = header.count(",") + 1
    labeled = header.endswith(",label")
    seen: set[str] = set()
    for line_no, line in _lines(stream, 2):
        fields = line.split(",")
        if len(fields) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(fields)}", line_no)
        pair_id = fields[0]
        if "\t" in pair_id:
            raise ValidationError(f"pair id {pair_id!r} at line {line_no} holds a tab")
        if pair_id in seen:
            raise ValidationError(f"duplicate pair id {pair_id!r} at line {line_no}")
        seen.add(pair_id)
        if labeled and fields[-1] not in ("0", "1"):
            raise ValidationError(f"line {line_no}: label must be 0 or 1, got {fields[-1]!r}")
        yield line_no, fields


def parse_pairs(stream: IO) -> Iterator[PairRecord]:
    """Yield PairRecords in file order; the header says whether each has a
    label (else None)."""
    for line_no, fields in read_csv(stream, LABELED_HEADER, UNLABELED_HEADER):
        yield PairRecord(fields[0], _parse_node_id(fields[1], line_no),
                         _parse_node_id(fields[2], line_no),
                         int(fields[3]) if len(fields) == 4 else None)


def join_pairs(
    pairs: Iterable[PairRecord],
    nodes: dict[int, str],
    strict: bool = True,
    counters: ParseCounters | None = None,
) -> Iterator[tuple[PairRecord, str, str]]:
    """Resolve each pair to the texts of its two nodes, id1's first.

    Strict mode fails on the first missing node; lenient mode skips the
    pair and bumps counters.skipped_joins.
    """
    for pair in pairs:
        missing = [i for i in (pair.id1, pair.id2) if i not in nodes]
        if missing:
            if strict:
                raise ValidationError(
                    f"pair {pair.pair_id} references missing node id(s) "
                    + ", ".join(str(i) for i in missing)
                )
            if counters is not None:
                counters.skipped_joins += 1
            continue
        yield pair, nodes[pair.id1], nodes[pair.id2]


def label_stats(pairs: Iterable[PairRecord]) -> LabelStats:
    """Count labels and report percentages.

    Percentage policy: pct_0 is the class-0 share truncated to two
    decimals, pct_1 its exact complement to 100. This keeps the two
    values summing to 100.00 and reproduces the published statistics for
    the competition label multiset (plain round-half-even would not).
    """
    count_0 = count_1 = 0
    for pair in pairs:
        if pair.label is None:
            raise ValidationError(f"pair {pair.pair_id} is unlabeled")
        if pair.label == 1:
            count_1 += 1
        else:
            count_0 += 1
    total = count_0 + count_1
    if total == 0:
        raise ValidationError("no labeled pairs to summarize")
    pct_0 = (10000 * count_0 // total) / 100
    pct_1 = round(100 - pct_0, 2)
    return LabelStats(count_0, count_1, pct_0, pct_1)
