import itertools
import string
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wikilink import textclean
from wikilink.textclean import (
    DEFAULT_PUNCTUATION,
    STAGES,
    WHITESPACE_CHARS,
    CleanConfig,
    balance_curly_braces,
    clean,
    clean_records,
    normalize_whitespace,
    remove_brace_spans,
    strip_punctuation,
)

from oracles import (
    reference_balance,
    reference_normalize_whitespace,
    reference_remove_spans,
    reference_strip_punctuation,
    run_stage,
)

brace_text = st.text(alphabet="{}a ", max_size=20)
messy_text = st.text(
    alphabet="{}abcXYZ .,!?;:\t\n\f\v'\"-éß日",
    max_size=60,
)
# Braces are drawn as often as all other characters together, so spans
# nest. The rest: Unicode whitespace that is not collapsed (\x1c, \x85,
# \xa0, U+2003), a combining mark, an astral code point, a lone surrogate.
wide_text = st.text(
    st.sampled_from("{}")
    | st.sampled_from(list(string.ascii_letters + WHITESPACE_CHARS + ".,!'-"
                           + "\x1c\x85\xa0\u2003é\u0301😀\ud800")),
    max_size=200,
)

# Texts of 2 KB or more: a run of pieces repeated, between two ends that
# each hold a character `bytes.strip()` keeps but `str.strip()` takes. The
# pieces: words, whitespace runs that mix all six WHITESPACE_CHARS, brace
# spans nested 4 to 9 deep, and lone braces.
END_SPACES = ["\x85", "\xa0", "\u2003", "\x1c", "\x1d", "\x1e", "\x1f"]
text_end = st.tuples(st.text(WHITESPACE_CHARS, max_size=2), st.sampled_from(END_SPACES),
                     st.text(WHITESPACE_CHARS, max_size=2)).map("".join)
piece = st.one_of(
    st.sampled_from(["word", "Beta,", "ß日", "😀", "a\xa0b", "\x1c", "\ud800"]),
    st.tuples(st.permutations(WHITESPACE_CHARS), st.text(WHITESPACE_CHARS, max_size=4)).map(
        lambda parts: "".join(parts[0]) + parts[1]),
    st.tuples(st.integers(4, 9), st.sampled_from(["x", " y. ", "{z}"])).map(
        lambda parts: "{" * parts[0] + parts[1] + "}" * parts[0]),
    st.sampled_from("{}"),
)
long_text = st.builds(lambda head, body, tail: head + body * (2048 // len(body) + 1) + tail,
                      text_end, st.lists(piece, min_size=1, max_size=30).map("".join), text_end)
# Shrinking a failing 2 KB text took minutes; a test that draws one reports
# its first failing case as drawn. Every case still runs.
unshrunk = settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


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
        assert run_stage(balance_curly_braces, text) == expected

    @unshrunk
    @given(brace_text | wide_text | long_text)
    def test_matches_reference(self, text):
        assert run_stage(balance_curly_braces, text) == reference_balance(text)

    @given(brace_text)
    def test_counts_balanced(self, text):
        out = run_stage(balance_curly_braces, text)
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
        assert run_stage(remove_brace_spans, text) == expected

    @unshrunk
    @given(brace_text | wide_text | long_text)
    def test_matches_reference(self, text):
        # The published accumulator starts as ' '; the library starts empty.
        assert " " + run_stage(remove_brace_spans, text) == reference_remove_spans(text)

    def test_deep_nesting_is_linear(self):
        # Ten times the depth may cost about ten times the time; a scan
        # that is O(n * depth) would cost a hundred times. Best of 3 each.
        def best_time(depth):
            text = "{" * depth + "x" + "}" * depth + "y"
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert run_stage(remove_brace_spans, text) == "y"
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_time(200_000) < 30 * best_time(20_000)

    @given(brace_text)
    def test_subsequence_of_nonbrace_chars(self, text):
        out = iter(run_stage(remove_brace_spans, text))
        ch = next(out, None)
        for original in text:
            if original in "{}":
                continue
            if ch is not None and original == ch:
                ch = next(out, None)
        assert ch is None

    @given(brace_text)
    def test_no_braces_survive(self, text):
        out = run_stage(remove_brace_spans, text)
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
        assert run_stage(strip_punctuation, text) == expected

    @unshrunk
    @given(messy_text | st.text() | long_text)
    def test_strip_punctuation_matches_reference(self, text):
        assert run_stage(strip_punctuation, text) == reference_strip_punctuation(text)

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
        assert run_stage(normalize_whitespace, text) == expected

    @unshrunk
    @given(wide_text | messy_text | long_text)
    def test_normalize_whitespace_matches_reference(self, text):
        assert run_stage(normalize_whitespace, text) == reference_normalize_whitespace(text)

    # Only WHITESPACE_CHARS collapse, but the end strip is str.strip(),
    # which also takes Unicode whitespace; balance strips the same way.
    @pytest.mark.parametrize(
        "text,despaced,balanced",
        [
            ("a \xa0", "a", "a"),
            ("a\xa0b", "a\xa0b", "a\xa0b"),
            ("\u2003 a\x85", "a", "a"),
            ("a \xa0\t b", "a \xa0 b", "a \xa0\t b"),
            ("\x1c\x1ca\x1c\x1cb", "a\x1c\x1cb", "a\x1c\x1cb"),
        ],
    )
    def test_strip_takes_unicode_whitespace_at_the_ends(self, text, despaced, balanced):
        assert run_stage(normalize_whitespace, text) == despaced
        assert run_stage(balance_curly_braces, text) == balanced


class TestCleanConfig:
    # The punctuation table is fixed: no setting can add a character to it.
    def test_rejects_braces_in_punctuation(self):
        with pytest.raises(TypeError):
            CleanConfig(punctuation_set=frozenset("{.,"))
        assert not DEFAULT_PUNCTUATION & set("{}")
        assert run_stage(strip_punctuation, "{a}.}") == "{a}}"

    def test_rejects_whitespace_in_punctuation(self):
        with pytest.raises(TypeError):
            CleanConfig(punctuation_set=frozenset(". "))
        assert not DEFAULT_PUNCTUATION & set(WHITESPACE_CHARS)
        assert run_stage(strip_punctuation, WHITESPACE_CHARS + ".") == WHITESPACE_CHARS


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

    @unshrunk
    @given(wide_text | messy_text | long_text, st.sets(st.sampled_from(STAGES)))
    def test_every_stage_mask_matches_oracles(self, text, stages):
        mask = tuple(s for s in STAGES if s in stages)
        expected, braces, debraced = text, 0, 0
        if "balance" in mask:
            braces = abs(text.count("{") - text.count("}"))
            expected = reference_balance(expected)
        if "debrace" in mask:
            spanless = reference_remove_spans(expected)[1:]
            debraced = len(expected) - len(spanless)
            expected = spanless
        if "depunct" in mask:
            expected = reference_strip_punctuation(expected)
        if "despace" in mask:
            expected = reference_normalize_whitespace(expected)
        out, rep = clean(text, CleanConfig(**{s: s in mask for s in STAGES}))
        assert out == expected
        assert (rep.input_length, rep.output_length) == (len(text), len(expected))
        assert (rep.braces_removed_balance, rep.chars_removed_debrace) == (braces, debraced)

    def test_stage_mask_respected(self):
        cfg = CleanConfig(balance=False, debrace=False)
        out, _ = clean("a, {{b}}  c", cfg)
        assert out == "a {{b}} c"


# Braces, two punctuation marks, the six collapsed whitespace characters,
# ASCII, 2-, 3- and 4-byte UTF-8, two lone surrogates (adjacent, a pair),
# and Unicode whitespace that is not collapsed. The byte-level stages cut
# only at ASCII bytes, so no string over this alphabet may split a character.
BOUNDARY_ALPHABET = ["{", "}", ".", "'", *WHITESPACE_CHARS, "a", "é", "日", "😀",
                     chr(0xD800), chr(0xDC00), "\x1c", "\x85", "\xa0", chr(0x2003)]


def test_every_short_string_matches_oracles():
    oracles = {
        "balance": reference_balance,
        "debrace": lambda text: reference_remove_spans(text)[1:],
        "depunct": reference_strip_punctuation,
        "despace": reference_normalize_whitespace,
    }
    stages = dict(zip(STAGES, (balance_curly_braces, remove_brace_spans,
                               strip_punctuation, normalize_whitespace)))
    masks = [STAGES, *((stage,) for stage in STAGES)]
    checked = 0
    for n in range(4):
        for chars in itertools.product(BOUNDARY_ALPHABET, repeat=n):
            text = "".join(chars)
            for stage, fn in stages.items():
                assert run_stage(fn, text) == oracles[stage](text), (stage, text)
            for mask in masks:
                expected = text
                for stage in mask:
                    expected = oracles[stage](expected)
                config = CleanConfig(**{s: s in mask for s in STAGES})
                assert clean(text, config)[0] == expected, (mask, text)
            checked += 1
    assert checked == 1 + 20 + 20**2 + 20**3


class TestBlocks:
    """`clean_records` joins texts into blocks, separated by 0xFF; each text
    must come out as `clean` gives it alone, wherever the blocks split."""

    def test_brace_scan_resets_at_each_text(self):
        # The `{` of the first text is unclosed; the `}` of the second has no `{`.
        assert remove_brace_spans(b"a{b\xffc}d") == b"a\xffcd"
        assert remove_brace_spans(b"{\xff\xff}") == b"\xff\xff"
        # 0xFF resets any depth, not only one below 131 (its 124 - code).
        assert remove_brace_spans(b"{" * 200 + b"\xffa") == b"\xffa"

    def test_despace_strips_each_text(self):
        assert normalize_whitespace(b" a  b \xff\t c\n\xff\xff  ") == b"a b\xffc\xff\xff"
        unicode_ends = "a\xa0".encode() + b"\xff" + "\u2003b \x85".encode()
        assert normalize_whitespace(unicode_ends) == b"a\xffb"

    @given(st.lists(wide_text | messy_text | st.sampled_from(
               ["", " ", "\t\n ", "\xa0", " \u2003x\x85", "\x1ca\x1c", "\ud800", "{\ud800}",
                "{" * 140 + "x"]),
               max_size=50),
           st.integers(1, 64) | st.just(textclean.BLOCK_CHARS), st.sets(st.sampled_from(STAGES)))
    def test_blocks_match_clean_per_text(self, texts, block_chars, stages):
        config = CleanConfig(**{s: s in stages for s in STAGES})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textclean, "BLOCK_CHARS", block_chars)
            cleaned = list(clean_records(enumerate(texts), config))
        assert cleaned == [(i, *clean(text, config)) for i, text in enumerate(texts)]
