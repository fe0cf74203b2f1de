"""Streaming parsers and statistics for the competition file formats.

nodes.tsv: two tab-separated columns, id and text, no quoting layer.
pairs csv: header `id,id1,id2,label` (labeled) or `id,id1,id2` (unlabeled);
the header says which, and only the label consumers (training, label
statistics, evaluation) reject an unlabeled file. Pair ids are unique and
hold no tab, since they head the tab-separated prepared.tsv lines. Lines
end at LF only; the CRs at the end of a line are dropped and any other CR
is field content, so a file reads the same from a path and from stdin.
Output written by this package is always LF.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationError

MAX_NODE_ID = 2**64 - 1

LABELED_HEADER = "id,id1,id2,label"
UNLABELED_HEADER = "id,id1,id2"
SUBMISSION_HEADER = "id,label"


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

    def __init__(self, missing_text: int = 0, skipped_joins: int = 0):
        self.missing_text = missing_text
        self.skipped_joins = skipped_joins


def _stripped_lines(stream: IO) -> Iterator[str]:
    for raw in stream:
        yield raw.rstrip("\r\n")


def _parse_node_id(token: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):  # str.isdigit alone takes "²" and "١٢"
        raise ParseError(f"node id must be a non-negative integer, got {token!r}", line_no)
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
    for line_no, line in enumerate(_stripped_lines(stream), start=1):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) > 2:
            raise ParseError(
                f"expected 2 tab-separated fields, got {len(fields)}", line_no
            )
        node_id = _parse_node_id(fields[0], line_no)
        if node_id in seen:
            raise ValidationError(f"duplicate node id {node_id} at line {line_no}")
        seen.add(node_id)
        if len(fields) == 1:
            if counters is not None:
                counters.missing_text += 1
            yield NodeRecord(node_id, "")
        else:
            yield NodeRecord(node_id, fields[1])


def write_nodes(records: Iterable[NodeRecord], stream: IO) -> int:
    n = 0
    for rec in records:
        stream.write(f"{rec.id}\t{rec.text}\n")
        n += 1
    return n


def parse_pairs(stream: IO) -> Iterator[PairRecord]:
    """Yield PairRecords in file order; the exact header says whether each has a
    label (else None). A repeated pair id or one holding a tab is fatal."""
    expected = f"header {LABELED_HEADER!r} or {UNLABELED_HEADER!r}"
    lines = _stripped_lines(stream)
    header = next(lines, None)
    if header is None:
        raise ParseError(f"empty file, expected {expected}", 1)
    if header not in (LABELED_HEADER, UNLABELED_HEADER):
        raise ParseError(f"expected {expected}, got {header!r}", 1)
    labeled = header == LABELED_HEADER
    ncols = 4 if labeled else 3
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(fields)}", line_no)
        pair_id = fields[0]
        if "\t" in pair_id:
            raise ValidationError(f"pair id {pair_id!r} at line {line_no} holds a tab")
        if pair_id in seen:
            raise ValidationError(f"duplicate pair id {pair_id!r} at line {line_no}")
        seen.add(pair_id)
        id1 = _parse_node_id(fields[1], line_no)
        id2 = _parse_node_id(fields[2], line_no)
        label: int | None = None
        if labeled:
            if fields[3] not in ("0", "1"):
                raise ValidationError(
                    f"line {line_no}: label must be 0 or 1, got {fields[3]!r}"
                )
            label = int(fields[3])
        yield PairRecord(pair_id, id1, id2, label)


def build_node_table(records: Iterable[NodeRecord]) -> dict[int, NodeRecord]:
    return {rec.id: rec for rec in records}


def join_pairs(
    pairs: Iterable[PairRecord],
    nodes: dict[int, NodeRecord],
    strict: bool = True,
    counters: ParseCounters | None = None,
) -> Iterator[tuple[PairRecord, NodeRecord, NodeRecord]]:
    """Resolve each pair to its two node records, id1 first.

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
