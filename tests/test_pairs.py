import io
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink import pairs
from wikilink.dataset import PairRecord
from wikilink.errors import ValidationError
from wikilink.pairs import (
    Tokens,
    build_pair,
    tokenize,
    write_prepared,
)
from wikilink.textclean import WHITESPACE_CHARS

from oracles import reference_tokenize

texts = st.text(alphabet="ab \t\n", max_size=40)
# The separators, the characters that Unicode counts as space but the
# tokenizer does not, and characters of each UTF-8 length and a lone surrogate.
SHORT_ALPHABET = [*WHITESPACE_CHARS, "\x1c", "\x85", "\xa0", "\u2028",
                  "a", "é", "日", "😀", "\ud800"]


def decoded(tokens):
    return [t.decode("utf-8", "surrogatepass") for t in tokens]


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
        assert tokenize(text, 128) == [t.encode() for t in expected]
        assert reference_tokenize(text) == expected

    @given(texts, st.integers(1, 8))
    def test_no_empty_or_whitespace_tokens(self, text, k):
        for tok in decoded(tokenize(text, k)):
            assert tok
            assert not any(c.isspace() for c in tok)

    @given(st.text(alphabet="ab \t\r\n\f\v\x85", max_size=40), st.integers(1, 8))
    def test_bounded_split_matches_full_split(self, text, k):
        assert decoded(tokenize(text, k)) == reference_tokenize(text)[:k]

    def test_every_short_string_matches_oracle(self):
        """The byte split equals the regex split on every string of up to
        three characters over SHORT_ALPHABET, at every budget up to three."""
        for n in range(4):
            for chars in product(SHORT_ALPHABET, repeat=n):
                text = "".join(chars)
                for k in (1, 2, 3):
                    assert decoded(tokenize(text, k)) == reference_tokenize(text)[:k], (text, k)


def sides(sp):
    """The premise and hypothesis of sp as decoded token tuples, through its table's vocabulary."""
    words = list(sp.tokens.vocab)
    return tuple(tuple(decoded(words[i] for i in ids.tolist()))
                 for ids in (sp.premise_tokens, sp.hypothesis_tokens))


class TestBuildPair:
    def test_basic(self):
        sp = build_pair(PairRecord("p0", 1, 2, 1), "alpha beta", "gamma", Tokens(128))
        assert (sp.pair_id, sp.label) == ("p0", 1)
        assert sides(sp) == (("alpha", "beta"), ("gamma",))
        assert sp.premise_tokens.dtype == np.int32

    def test_head_truncation(self):
        text = " ".join(f"t{i}" for i in range(200))
        sp = build_pair(PairRecord("p", 1, 2, None), text, "x", Tokens(128))
        assert len(sp.premise_tokens) == 128
        assert sides(sp)[0] == tuple(f"t{i}" for i in range(128))

    def test_empty_premise_allowed(self):
        sp = build_pair(PairRecord("p", 1, 2, 0), "", "x", Tokens(128))
        assert sides(sp)[0] == ()
        assert sp.label == 0

    def test_custom_budget(self):
        sp = build_pair(PairRecord("p", 1, 2, None), "a b c", "d", Tokens(max_tokens=2))
        assert sides(sp)[0] == ("a", "b")

    @given(texts, texts)
    def test_direction_swap(self, t1, t2):
        fwd = build_pair(PairRecord("p", 1, 2, None), t1, t2, Tokens(128))
        rev = build_pair(PairRecord("p", 2, 1, None), t2, t1, Tokens(128))
        assert sides(fwd) == sides(rev)[::-1]

    @given(texts, texts)
    def test_deterministic(self, t1, t2):
        rec = PairRecord("p", 1, 2, 1)
        a, b = build_pair(rec, t1, t2, Tokens(128)), build_pair(rec, t1, t2, Tokens(128))
        assert a[:4] == b[:4]  # all but the table
        assert sides(a) == sides(b)


class TestTokens:
    def test_each_node_tokenized_once(self):
        tokens = Tokens(128)
        first = build_pair(PairRecord("p", 1, 2, None), "a b", "b c", tokens)
        again = build_pair(PairRecord("q", 2, 1, None), "ignored", "ignored", tokens)
        assert (again.premise, again.hypothesis) == (first.hypothesis, first.premise)
        assert again.premise_tokens is first.hypothesis_tokens
        assert len(tokens.ids) == 2

    def test_equal_texts_are_rows_with_equal_ids(self):
        tokens = Tokens(128)
        sp = build_pair(PairRecord("p", 1, 2, None), "x y x", "x y x", tokens)
        assert sp.premise != sp.hypothesis
        assert sp.premise_tokens.tolist() == sp.hypothesis_tokens.tolist() == [0, 1, 0]

    def test_id_is_vocabulary_index(self):
        tokens = Tokens(128)
        build_pair(PairRecord("p", 1, 2, None), "a b a", "c b", tokens)
        assert tokens.vocab == {b"a": 0, b"b": 1, b"c": 2}
        assert [ids.tolist() for ids in tokens.ids] == [[0, 1, 0], [2, 1]]

    def test_vocabulary_bound(self, monkeypatch):
        """Ids are int32: a run with more distinct tokens than they hold is a validation error."""
        monkeypatch.setattr(pairs, "_MAX_ID", 3)
        tokens = Tokens(128)
        build_pair(PairRecord("p", 1, 2, None), "a b a", "c b", tokens)
        with pytest.raises(ValidationError, match="more than 3 distinct tokens"):
            build_pair(PairRecord("q", 3, 4, None), "a d", "b", tokens)


class TestPreparedFile:
    def test_format(self):
        tokens = Tokens(128)
        sp = build_pair(PairRecord("p0", 1, 2, 1), "a b", "c", tokens)
        unlabeled = build_pair(PairRecord("p1", 3, 4, None), "", "d", tokens)
        buf = io.StringIO()
        write_prepared([sp, unlabeled], tokens, buf)
        assert buf.getvalue() == "p0\t1\ta b\tc\np1\t-\t\td\n"

    @given(st.lists(texts, min_size=2, max_size=6), st.lists(texts, max_size=4))
    def test_later_rows_leave_output_unchanged(self, train_texts, later_texts):
        """A test file's nodes, added after the training pairs, do not change
        what `write_prepared` writes for those pairs."""
        tokens = Tokens(3)
        train = [build_pair(PairRecord(f"p{i}", i, i + 1, i % 2), a, b, tokens)
                 for i, (a, b) in enumerate(zip(train_texts, train_texts[1:]))]
        before = io.StringIO()
        write_prepared(train, tokens, before)
        for i, (a, b) in enumerate(zip(later_texts, later_texts[1:])):
            build_pair(PairRecord(f"t{i}", 100 + i, 0, None), a, b, tokens)
        after = io.StringIO()
        write_prepared(train, tokens, after)
        assert after.getvalue() == before.getvalue() == "".join(
            f"p{i}\t{i % 2}\t{' '.join(reference_tokenize(a)[:3])}\t"
            f"{' '.join(reference_tokenize(b)[:3])}\n"
            for i, (a, b) in enumerate(zip(train_texts, train_texts[1:])))
