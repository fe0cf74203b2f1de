import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink.dataset import (
    LabelStats,
    NodeRecord,
    PairRecord,
    ParseCounters,
    join_pairs,
    label_stats,
    parse_nodes,
    parse_pairs,
    write_nodes,
)
from wikilink.errors import ParseError, ValidationError

from oracles import write_pairs


class TestParseNodes:
    def test_basic(self):
        recs = list(parse_nodes(io.StringIO("7\thello world\n")))
        assert recs == [NodeRecord(7, "hello world")]

    def test_duplicate_id(self):
        with pytest.raises(ValidationError, match="duplicate node id 1.*line 2"):
            list(parse_nodes(io.StringIO("1\ta\n1\tb\n")))

    def test_non_integer_id(self):
        with pytest.raises(ParseError, match="line 1"):
            list(parse_nodes(io.StringIO("x\ty\n")))

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError):
            list(parse_nodes(io.StringIO("-3\ty\n")))

    @pytest.mark.parametrize("token", ["\u00b2", "\u0661\u0662", "\uff11"])  # ², ١٢, １
    def test_non_ascii_digit_id_rejected(self, token):
        with pytest.raises(ParseError, match="line 1"):
            list(parse_nodes(io.StringIO(f"{token}\ty\n")))

    def test_missing_text_counts_warning(self):
        counters = ParseCounters()
        recs = list(parse_nodes(io.StringIO("5\n"), counters))
        assert recs == [NodeRecord(5, "")]
        assert counters.missing_text == 1

    def test_embedded_tab_is_parse_error(self):
        with pytest.raises(ParseError, match="line 1"):
            list(parse_nodes(io.StringIO("1\ta\tb\n")))

    def test_text_may_contain_commas_and_quotes(self):
        recs = list(parse_nodes(io.StringIO('3\ta, "b" c\n')))
        assert recs[0].text == 'a, "b" c'


class TestParsePairs:
    def test_labeled(self):
        recs = list(parse_pairs(io.StringIO("id,id1,id2,label\np0,1,2,1\n")))
        assert recs == [PairRecord("p0", 1, 2, 1)]

    def test_unlabeled(self):
        recs = list(parse_pairs(io.StringIO("id,id1,id2\np0,1,2\n")))
        assert recs == [PairRecord("p0", 1, 2, None)]

    def test_label_domain(self):
        with pytest.raises(ValidationError, match="label"):
            list(parse_pairs(io.StringIO("id,id1,id2,label\np0,1,2,5\n")))

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            list(parse_pairs(io.StringIO("id1,id2,label\n")))

    @pytest.mark.parametrize("header", ["id,id1,id2,label,", "id,id1,id2,", "ID,id1,id2",
                                        " id,id1,id2", "id,id2,id1,label", "id,id1,id2 "])
    def test_any_other_header_names_both(self, header):
        """Only the two exact headers are read; the error names each."""
        with pytest.raises(ParseError, match="^line 1: expected header 'id,id1,id2,label' "
                                             "or 'id,id1,id2', got "):
            list(parse_pairs(io.StringIO(header + "\np0,1,2\n")))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 2"):
            list(parse_pairs(io.StringIO("id,id1,id2,label\np0,1,2\n")))

    @pytest.mark.parametrize("token", ["\u00b2", "\u0661\u0662", "\uff11"])  # ², ١٢, １
    @pytest.mark.parametrize("column", [1, 2])
    def test_non_ascii_digit_node_id_rejected(self, token, column):
        fields = ["p0", "1", "2", "1"]
        fields[column] = token
        with pytest.raises(ParseError, match="line 2"):
            list(parse_pairs(io.StringIO("id,id1,id2,label\n" + ",".join(fields) + "\n")))

    def test_crlf_accepted(self):
        recs = list(parse_pairs(io.StringIO("id,id1,id2,label\r\np0,1,2,0\r\n")))
        assert recs == [PairRecord("p0", 1, 2, 0)]

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            list(parse_pairs(io.StringIO("")))

    def test_repeated_id_rejected(self):
        text = "id,id1,id2,label\np0,1,2,1\np1,1,3,0\np0,2,3,0\n"
        with pytest.raises(ValidationError, match="duplicate pair id 'p0' at line 4"):
            list(parse_pairs(io.StringIO(text)))

    @pytest.mark.parametrize("text,labeled", [
        ("id,id1,id2,label\np0,1,2,1\np\t1,1,3,0\n", True),
        ("id,id1,id2\np0,1,2\np\t1,1,3\n", False),
    ])
    def test_tab_in_id_rejected(self, text, labeled):
        records = parse_pairs(io.StringIO(text))
        assert (next(records).label is not None) == labeled  # the header says which
        with pytest.raises(ValidationError, match=r"pair id 'p\\t1' at line 3 holds a tab"):
            next(records)

    def test_streaming_is_lazy(self):
        # consuming one record must not require reading the whole stream
        stream = io.StringIO("id,id1,id2,label\n" + "p,1,2,1\n" * 10000)
        it = parse_pairs(stream)
        next(it)
        assert stream.tell() < 1000


class TestJoin:
    def test_basic(self):
        nodes = {1: "a", 2: "b"}
        out = list(join_pairs([PairRecord("p0", 1, 2, 1)], nodes))
        assert out == [(PairRecord("p0", 1, 2, 1), "a", "b")]

    def test_missing_node_strict(self):
        nodes = {1: "a"}
        with pytest.raises(ValidationError, match="p0.*9"):
            list(join_pairs([PairRecord("p0", 1, 9, 1)], nodes))

    def test_missing_node_lenient(self):
        counters = ParseCounters()
        nodes = {1: "a"}
        out = list(join_pairs(
            [PairRecord("p0", 1, 9, 1), PairRecord("p1", 1, 1, 0)],
            nodes, strict=False, counters=counters,
        ))
        assert [p.pair_id for p, _, _ in out] == ["p1"]
        assert counters.skipped_joins == 1

    def test_empty(self):
        assert list(join_pairs([], {})) == []


class TestLabelStats:
    def test_competition_multiset(self):
        def generate():
            for i in range(512_389):
                yield PairRecord(f"a{i}", 0, 1, 0)
            for i in range(435_843):
                yield PairRecord(f"b{i}", 0, 1, 1)

        stats = label_stats(generate())
        assert stats == LabelStats(512_389, 435_843, 54.03, 45.97)

    def test_single_positive(self):
        stats = label_stats([PairRecord("p", 1, 2, 1)])
        assert stats == LabelStats(0, 1, 0.0, 100.0)

    def test_even_split(self):
        stats = label_stats([PairRecord("a", 1, 2, 0), PairRecord("b", 1, 2, 1)])
        assert stats.pct_0 == 50.0 and stats.pct_1 == 50.0

    def test_unlabeled_rejected(self):
        with pytest.raises(ValidationError):
            label_stats([PairRecord("p", 1, 2, None)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            label_stats([])

    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_percentages_sum_to_100(self, n0, n1):
        if n0 + n1 == 0:
            return
        pairs = [PairRecord(str(i), 1, 2, 0) for i in range(n0)]
        pairs += [PairRecord(f"x{i}", 1, 2, 1) for i in range(n1)]
        stats = label_stats(pairs)
        assert stats.count_0 == n0 and stats.count_1 == n1
        assert abs(stats.pct_0 + stats.pct_1 - 100.0) < 0.01


node_records = st.lists(
    st.tuples(st.integers(0, 10**6), st.text(alphabet="ab c,\"'.", max_size=10)),
    unique_by=lambda t: t[0],
    max_size=20,
).map(lambda rows: [NodeRecord(i, t) for i, t in rows])


class TestRoundTrip:
    @given(node_records)
    def test_nodes(self, records):
        buf = io.StringIO()
        write_nodes(records, buf)
        buf.seek(0)
        reparsed = list(parse_nodes(buf))
        # blank text lines serialize as "id\t" which parses back to empty text
        assert reparsed == records

    @given(st.lists(
        st.tuples(st.integers(0, 999), st.integers(0, 99), st.integers(0, 99),
                  st.integers(0, 1)),
        max_size=20,
    ))
    def test_pairs_labeled(self, rows):
        records = [PairRecord(f"p{i}", a, b, lab) for i, (_, a, b, lab) in enumerate(rows)]
        buf = io.StringIO()
        write_pairs(records, buf, labeled=True)
        buf.seek(0)
        assert list(parse_pairs(buf)) == records

    def test_pairs_unlabeled(self):
        records = [PairRecord("p0", 1, 2, None)]
        buf = io.StringIO()
        write_pairs(records, buf, labeled=False)
        assert buf.getvalue() == "id,id1,id2\np0,1,2\n"
