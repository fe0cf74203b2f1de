import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink.dataset import PairRecord
from wikilink.pairs import (
    PairConfig,
    SentencePair,
    build_pair,
    tokenize,
    write_prepared,
)

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
        assert tokenize(text) == expected

    @given(texts)
    def test_no_empty_or_whitespace_tokens(self, text):
        for tok in tokenize(text):
            assert tok
            assert not any(c.isspace() for c in tok)


class TestBuildPair:
    def test_basic(self):
        sp = build_pair(PairRecord("p0", 1, 2, 1), "alpha beta", "gamma")
        assert sp == SentencePair("p0", ("alpha", "beta"), ("gamma",), 1)

    def test_head_truncation(self):
        text = " ".join(f"t{i}" for i in range(200))
        sp = build_pair(PairRecord("p", 1, 2, None), text, "x")
        assert len(sp.premise_tokens) == 128
        assert sp.premise_tokens == tuple(f"t{i}" for i in range(128))

    def test_empty_premise_allowed(self):
        sp = build_pair(PairRecord("p", 1, 2, 0), "", "x")
        assert sp.premise_tokens == ()
        assert sp.label == 0

    def test_custom_budget(self):
        sp = build_pair(PairRecord("p", 1, 2, None), "a b c", "d", PairConfig(max_tokens=2))
        assert sp.premise_tokens == ("a", "b")

    def test_config_validates(self):
        with pytest.raises(ValueError):
            PairConfig(max_tokens=0)

    @given(texts, texts)
    def test_direction_swap(self, t1, t2):
        fwd = build_pair(PairRecord("p", 1, 2, None), t1, t2)
        rev = build_pair(PairRecord("p", 2, 1, None), t2, t1)
        assert fwd.premise_tokens == rev.hypothesis_tokens
        assert fwd.hypothesis_tokens == rev.premise_tokens

    @given(texts, texts)
    def test_deterministic(self, t1, t2):
        rec = PairRecord("p", 1, 2, 1)
        assert build_pair(rec, t1, t2) == build_pair(rec, t1, t2)


class TestPreparedFile:
    def test_format(self):
        sp = SentencePair("p0", ("a", "b"), ("c",), 1)
        unlabeled = SentencePair("p1", (), ("d",), None)
        buf = io.StringIO()
        write_prepared([sp, unlabeled], buf)
        assert buf.getvalue() == "p0\t1\ta b\tc\np1\t-\t\td\n"

