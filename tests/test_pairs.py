import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink.dataset import PairRecord
from wikilink.pairs import (
    SentencePair,
    build_pair,
    tokenize,
    write_prepared,
)

from oracles import reference_tokenize

texts = st.text(alphabet="ab \t\n", max_size=40)


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a b c", ["a", "b", "c"]),
            ("", []),
            ("  x ", ["x"]),
            ("a\tb\nc", ["a", "b", "c"]),
        ],
    )
    def test_examples(self, text, expected):
        assert tokenize(text, 128) == tuple(expected)
        assert reference_tokenize(text) == expected

    @given(texts, st.integers(1, 8))
    def test_no_empty_or_whitespace_tokens(self, text, k):
        for tok in tokenize(text, k):
            assert tok
            assert not any(c.isspace() for c in tok)

    @given(st.text(alphabet="ab \t\r\n\f\v\x85", max_size=40), st.integers(1, 8))
    def test_bounded_split_matches_full_split(self, text, k):
        assert tokenize(text, k) == tuple(reference_tokenize(text)[:k])


class TestBuildPair:
    def test_basic(self):
        sp = build_pair(PairRecord("p0", 1, 2, 1), "alpha beta", "gamma", 128)
        assert sp == SentencePair("p0", ("alpha", "beta"), ("gamma",), 1)

    def test_head_truncation(self):
        text = " ".join(f"t{i}" for i in range(200))
        sp = build_pair(PairRecord("p", 1, 2, None), text, "x", 128)
        assert len(sp.premise_tokens) == 128
        assert sp.premise_tokens == tuple(f"t{i}" for i in range(128))

    def test_empty_premise_allowed(self):
        sp = build_pair(PairRecord("p", 1, 2, 0), "", "x", 128)
        assert sp.premise_tokens == ()
        assert sp.label == 0

    def test_custom_budget(self):
        sp = build_pair(PairRecord("p", 1, 2, None), "a b c", "d", max_tokens=2)
        assert sp.premise_tokens == ("a", "b")

    @given(texts, texts)
    def test_direction_swap(self, t1, t2):
        fwd = build_pair(PairRecord("p", 1, 2, None), t1, t2, 128)
        rev = build_pair(PairRecord("p", 2, 1, None), t2, t1, 128)
        assert fwd.premise_tokens == rev.hypothesis_tokens
        assert fwd.hypothesis_tokens == rev.premise_tokens

    @given(texts, texts)
    def test_deterministic(self, t1, t2):
        rec = PairRecord("p", 1, 2, 1)
        assert build_pair(rec, t1, t2, 128) == build_pair(rec, t1, t2, 128)


class TestPreparedFile:
    def test_format(self):
        sp = SentencePair("p0", ("a", "b"), ("c",), 1)
        unlabeled = SentencePair("p1", (), ("d",), None)
        buf = io.StringIO()
        write_prepared([sp, unlabeled], buf)
        assert buf.getvalue() == "p0\t1\ta b\tc\np1\t-\t\td\n"

