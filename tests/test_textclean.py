import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink.textclean import (
    DEFAULT_PUNCTUATION,
    WHITESPACE_CHARS,
    CleanConfig,
    balance_curly_braces,
    clean,
    normalize_whitespace,
    remove_brace_spans,
    strip_punctuation,
)

from oracles import reference_balance, reference_remove_spans, reference_strip_punctuation

brace_text = st.text(alphabet="{}a ", max_size=20)
messy_text = st.text(
    alphabet="{}abcXYZ .,!?;:\t\n\f\v'\"-éß日",
    max_size=60,
)


class TestBalance:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("{{foo}}", "{{foo}}"),
            ("{{{foo}}", "{{foo}}"),
            ("foo}} ", "foo"),
            ("", ""),
            ("  spaced  ", "spaced"),
        ],
    )
    def test_examples(self, text, expected):
        assert balance_curly_braces(text) == expected

    @given(brace_text)
    def test_matches_reference(self, text):
        assert balance_curly_braces(text) == reference_balance(text)

    @given(brace_text)
    def test_counts_balanced(self, text):
        out = balance_curly_braces(text)
        assert out.count("{") == out.count("}")


class TestRemoveSpans:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("plain text", "plain text"),
            ("a{{b}}c", "ac"),
            ("x{a{b}c}y", "xy"),
            ("}{ab", ""),
            ("", ""),
        ],
    )
    def test_examples(self, text, expected):
        assert remove_brace_spans(text) == expected

    @given(brace_text)
    def test_matches_reference(self, text):
        # The published accumulator starts as ' '; the library starts empty.
        assert " " + remove_brace_spans(text) == reference_remove_spans(text)

    @given(brace_text)
    def test_subsequence_of_nonbrace_chars(self, text):
        out = iter(remove_brace_spans(text))
        ch = next(out, None)
        for original in text:
            if original in "{}":
                continue
            if ch is not None and original == ch:
                ch = next(out, None)
        assert ch is None

    @given(brace_text)
    def test_no_braces_survive(self, text):
        out = remove_brace_spans(text)
        assert "{" not in out and "}" not in out


class TestPunctAndSpace:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Hello, world!", "Hello world"),
            ("a.b?c", "abc"),
            ("no punct here", "no punct here"),
        ],
    )
    def test_strip_punctuation(self, text, expected):
        assert strip_punctuation(text) == expected

    @given(messy_text | st.text())
    def test_strip_punctuation_matches_reference(self, text):
        assert strip_punctuation(text) == reference_strip_punctuation(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a  b\t c", "a b c"),
            ("  x  ", "x"),
            ("", ""),
            ("a\r\n\f\vb", "a b"),
        ],
    )
    def test_normalize_whitespace(self, text, expected):
        assert normalize_whitespace(text) == expected


class TestCleanConfig:
    # The punctuation table is fixed: no setting can add a character to it.
    def test_rejects_braces_in_punctuation(self):
        with pytest.raises(TypeError):
            CleanConfig(punctuation_set=frozenset("{.,"))
        assert not DEFAULT_PUNCTUATION & set("{}")
        assert strip_punctuation("{a}.}") == "{a}}"

    def test_rejects_whitespace_in_punctuation(self):
        with pytest.raises(TypeError):
            CleanConfig(punctuation_set=frozenset(". "))
        assert not DEFAULT_PUNCTUATION & set(WHITESPACE_CHARS)
        assert strip_punctuation(WHITESPACE_CHARS + ".") == WHITESPACE_CHARS

    def test_rejects_reordered_stages(self):
        with pytest.raises(ValueError):
            CleanConfig(stage_mask=("debrace", "balance"))

    def test_subset_mask_allowed(self):
        cfg = CleanConfig(stage_mask=("balance", "despace"))
        assert cfg.stage_mask == ("balance", "despace")


class TestClean:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Intro {{Infobox | x=1}} text,  here.", "Intro text here"),
            ("", ""),
            ("{{a}}", ""),
        ],
    )
    def test_examples(self, text, expected):
        out, _ = clean(text)
        assert out == expected

    def test_report_counts(self):
        out, rep = clean("x {{a b}} y.")
        assert out == "x y"
        assert rep.input_length == 12
        assert rep.output_length == 3
        assert rep.braces_removed_balance == 0
        assert rep.chars_removed_debrace > 0

    def test_report_balance_count(self):
        _, rep = clean("{{{a}}")
        assert rep.braces_removed_balance == 1

    @given(messy_text)
    def test_report_lengths_monotone(self, text):
        out, rep = clean(text)
        assert rep.output_length <= rep.input_length
        assert rep.input_length == len(text)
        assert rep.output_length == len(out)

    @given(messy_text)
    def test_idempotent(self, text):
        once, _ = clean(text)
        twice, _ = clean(once)
        assert twice == once

    @given(messy_text)
    def test_output_character_guarantees(self, text):
        out, _ = clean(text)
        assert not any(c in DEFAULT_PUNCTUATION for c in out)
        assert "{" not in out and "}" not in out
        assert "  " not in out and "\t" not in out
        assert out == out.strip()

    def test_stage_mask_respected(self):
        cfg = CleanConfig(stage_mask=("depunct", "despace"))
        out, _ = clean("a, {{b}}  c", cfg)
        assert out == "a {{b}} c"
