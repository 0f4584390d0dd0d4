"""Unit tests for the deterministic string-similarity library (§5.1)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import simfns as sf

WORDS = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=0x2FF),
    min_size=0,
    max_size=20,
)

ALL_SIMS = [sf.jaccard_qgram, sf.hamming_sim, sf.levenshtein_sim]


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Foo  Bar ", "foo bar"),
            ("FOO", "foo"),
            ("a\tb\nc", "a b c"),
            ("", ""),
            ("Straße", "strasse"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert sf.normalize(raw) == expected


class TestQgrams:
    def test_padding_marks_ends(self):
        gs = sf.qgrams("ab", q=3)
        assert gs == {"^ab", "ab$"} | gs  # padded grams present

    @pytest.mark.parametrize("s", ["", "a", "ab"])
    def test_short_strings_do_not_crash(self, s):
        assert sf.qgrams(s)

    def test_case_insensitive(self):
        assert sf.qgrams("Rome") == sf.qgrams("rome")


class TestSimilarityProperties:
    @pytest.mark.parametrize("fn", ALL_SIMS)
    @pytest.mark.parametrize(
        "a,b",
        [
            ("rome", "rome"),
            ("a b", "a b"),
            ("Hanover", "hanover"),
        ],
    )
    def test_identity_is_one(self, fn, a, b):
        assert fn(a, b) == pytest.approx(1.0)

    @pytest.mark.parametrize("fn", ALL_SIMS)
    @settings(max_examples=40, deadline=None)
    @given(a=WORDS, b=WORDS)
    def test_symmetric_and_bounded(self, fn, a, b):
        s1, s2 = fn(a, b), fn(b, a)
        assert s1 == pytest.approx(s2)
        assert 0.0 <= s1 <= 1.0

    @pytest.mark.parametrize("fn", [sf.jaccard_qgram])
    def test_disjoint_strings_are_zero(self, fn):
        assert fn("aaaa bbbb", "cccc dddd") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("fn", [sf.hamming_sim, sf.levenshtein_sim])
    def test_disjoint_strings_are_low(self, fn):
        # character-position metrics can match the space separator
        assert fn("aaaa bbbb", "cccc dddd") < 0.2


class TestKnownValues:
    @pytest.mark.parametrize(
        "a,b,lo,hi",
        [
            ("robert", "robrt", 0.8, 0.95),       # one-char typo
            ("robert", "bob", 0.0, 0.5),          # synonym — edit distance blind
            ("the fairview", "fairview", 0.6, 0.75),
            ("hanover", "hanover germany", 0.4, 0.6),
        ],
    )
    def test_levenshtein_ranges(self, a, b, lo, hi):
        assert lo <= sf.levenshtein_sim(a, b) <= hi

    def test_hamming_prefix_alignment(self):
        assert sf.hamming_sim("abcd", "abce") == pytest.approx(0.75)
        assert sf.hamming_sim("abcd", "abcdxx") == pytest.approx(4 / 6)

    def test_jaccard_qgram_tolerates_typo_better_than_synonym(self):
        typo = sf.jaccard_qgram("robert ashton", "robrt ashton")
        syn = sf.jaccard_qgram("robert ashton", "bob ashton")
        assert typo > syn

    def test_levenshtein_known_distance(self):
        # kitten -> sitting = 3 edits over max len 7
        assert sf.levenshtein_sim("kitten", "sitting") == pytest.approx(1 - 3 / 7)
