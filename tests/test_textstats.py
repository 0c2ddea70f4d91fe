"""Tokenization, grapheme counting, sampling, and the profile pipeline."""
import math
import operator
import random
import unicodedata
from collections import Counter
from unittest import mock

import pytest
import regex
from hypothesis import assume, example, given
from hypothesis import strategies as st

from divscore import textstats
from divscore.ingest import CorpusSource, load_corpus
from divscore.textstats import (
    _patterns,
    grapheme_length,
    mean_word_length,
    profile,
    sample_contiguous,
    tokenize,
    type_token_ratio,
    unigram_entropy,
)
from oracles import MID_BOTH, MID_LETTER, MID_NUMERIC, brute_entropy, brute_tokenize


def toks(text):
    return list(tokenize(text))


class TestTokenize:
    def test_whitespace_split(self):
        assert toks("one two\tthree\nfour") == ["one", "two", "three", "four"]

    def test_punctuation_only_material_dropped(self):
        assert toks("well -- yes! (maybe)") == ["well", "yes", "maybe"]
        assert toks("?! ... --") == []

    def test_trailing_sentence_punctuation_detached(self):
        assert toks("end.") == ["end"]
        assert toks("wait, what?") == ["wait", "what"]

    def test_interior_apostrophe_joins(self):
        assert toks("don't l'eau it's") == ["don't", "l'eau", "it's"]
        assert toks("rock 'n roll") == ["rock", "n", "roll"]

    def test_typographic_apostrophe_joins(self):
        assert toks("don’t") == ["don’t"]

    def test_interior_period_joins_matching_kinds(self):
        assert toks("e.g. U.N. 3.14") == ["e.g", "U.N", "3.14"]

    def test_decimal_comma_joins_digits_only(self):
        assert toks("1,234 and 12,5") == ["1,234", "and", "12,5"]
        assert toks("yes,no") == ["yes", "no"]

    def test_colon_joins_letters_only(self):
        assert toks("fi:lu 12:30") == ["fi:lu", "12", "30"]

    def test_mixed_kind_connector_splits(self):
        # apostrophe between a digit and a letter does not join
        assert toks("90's") == ["90", "s"]

    def test_hyphen_and_underscore_split(self):
        assert toks("well-known snake_case") == ["well", "known", "snake", "case"]

    def test_han_run_is_one_token(self):
        assert toks("我們") == ["我們"]
        assert toks("我們 你好") == ["我們", "你好"]

    def test_empty_input(self):
        assert toks("") == []
        assert len(tokenize("   \n\t ")) == 0

    def test_combining_marks_stay_in_token(self):
        # q + COMBINING TILDE has no precomposed form, so NFC keeps the mark
        # and the token holds both code points
        assert unicodedata.normalize("NFC", "q\u0303") == "q\u0303"
        assert toks("q\u0303") == ["q\u0303"]
        assert toks("\u00f1aq\u0303a q\u0303") == ["\u00f1aq\u0303a", "q\u0303"]

    def test_digit_kind_read_from_one_unicode_table(self):
        # Kawi digits (Unicode 15.0) are Nd in the tables of every regex
        # this package supports but not in the unicodedata of Python 3.10
        # or 3.11: they join across "," and split at ":", as "1,2" and
        # "1:2" do, in the fast path and in the cluster pass, where the
        # tail " \u200d" (no token of its own) sends the text
        for tail in ("", " \u200d"):
            assert toks("\U00011f50,\U00011f51" + tail) == ["\U00011f50,\U00011f51"]
            assert toks("\U00011f50:\U00011f51" + tail) == ["\U00011f50", "\U00011f51"]

    def test_matches_naive_split_on_restricted_fixture_text(self, fixtures):
        # fixture corpora use single-code-point letters and single spaces,
        # where full segmentation and str.split() must agree
        for sub in ("corpus_ds", "corpus_ref"):
            for f in sorted((fixtures / sub).glob("*.txt")):
                text = f.read_text(encoding="utf-8")
                assert toks(text) == text.split(), f.name


# Code points from every class the fast path must hand to the cluster
# loop, next to the plain ones it handles itself.
_MIXED_SCRIPT = (
    "abzAZ09" + "àéßÿÆ"  # ASCII and Latin-1
    + "".join(sorted(MID_LETTER | MID_NUMERIC | MID_BOTH))
    + " \t\r\n\x85\u2028\u3000"  # whitespace, CR LF among it
    + "\u0301\u0308\u093f\u0903"  # Mn and Mc marks
    + "\u094d\u09cd\u0915\u0937\u09b7"  # Devanagari and Bengali viramas and consonants
    + "\u1000\u102c"  # Myanmar letter, and a mark that is its own cluster
    + "\u200d\u200c"  # ZWJ, ZWNJ
    + "\u0600\u0d4e"  # Prepend
    + "\u1100\u1161\u11a8\uac00\uac01"  # Hangul jamo L V T, LV, LVT
    + "\U0001f1e6\U0001f1e8"  # regional indicators
    + "\U0001f44d\ufe0f\U0001f3fb"  # emoji, VS16, skin tone
    + "\u0663\u096a\U00011f50\U00010d40\U00010d41"  # Nd: Arabic-Indic, Devanagari, Kawi, Garay
    + "\u00b2\u00bd"  # No
    + "\u6211\u5011"  # Han
    + "\u0e01\u0e33"  # Thai, SARA AM
    + "\uff76\uff9e"  # halfwidth katakana, voiced sound mark
    + "-!_"
)
_MIXED_TEXT = st.text(alphabet=st.sampled_from(_MIXED_SCRIPT), max_size=40)
# str.split() separators, CR LF among them, and the two that NFC maps
_SPACES = [" ", "\t", "\n", "\r\n", "\x1c", "\x85", "\u2000", "\u2001", "\u3000"]
# Text the pattern handles itself, so the fast path: word clusters, a
# base with up to two attaching marks, between non-word code points; a
# virama between two consonants joins them into one conjunct cluster
_PLAIN_TEXT = st.lists(
    st.one_of(
        st.builds(
            operator.add,
            st.sampled_from(
                "abzAZ09àéßÿÆ\u0915\u0937\u09b7\u0663\u096a\U00011f50\u6211\u5011\u0e01\uff76"
            ),
            st.text(alphabet=st.sampled_from("\u0301\u0308\u093f\u0903\u094d\u09cd"), max_size=2),
        ),
        st.sampled_from(
            sorted(MID_LETTER | MID_NUMERIC | MID_BOTH) + list(" \t\r\n\x85\u2028\u3000\u00b2\u00bd-!_")
        ),
    ),
    max_size=40,
).map("".join)


# Types for the measures, drawn whole: plain types next to pieces that
# hold a line break, a lone CR, a leading mark, a virama, emoji or jamo
_PLAIN_TYPES = ["ab", "abc", "\u00e9t\u00e9", "e\u0301", "\u6211\u5011", "\u0915\u093f", "a'b", "3.14"]
_ANY_TYPE = st.lists(
    st.sampled_from(
        ["a", "\u00e9", "\u0301", "\u093f", "\u094d", "\u09cd", "\u0915", "\u0937", "\u0995", "\u09b7"]
        + ["\n", "\r\n", "\r", " ", "\t", "-", "'", "\u6211", "\U0001f44d", "\U0001f3fb", "\ufe0f"]
        + ["\u200d", "\U0001f469", "\U0001f4bb", "\u1100", "\u1161", "\u11a8", "\uac00", "\u0e33"]
    ),
    min_size=1,
    max_size=6,
).map("".join)


# Pieces of text for the word-material property: word material,
# connectors, punctuation and whitespace, and the triggers that send a
# text to the cluster pass (Thai SARA AM, emoji with skin tones, ZWJ,
# Prepend, jamo, and marks that land after non-word material)
_WORD_MATERIAL_TEXT = st.lists(
    st.sampled_from(
        ["a", "Z", "\u00e9", "3", "\u0663", "\u6211", "\u0915", "\u0e01"]
        + sorted(MID_LETTER | MID_NUMERIC | MID_BOTH)
        + ["-", "!", "_", "(", "\u00b2", "\u00bd", "\u2014"]
        + [" ", "\t", "\n", "\r\n", "\u3000"]
        + ["\u0e33", "\U0001f44d", "\U0001f3fd", "\U0001f44d\U0001f3fb", "\u200d", "\ufe0f"]
        + ["\u0301", "\u093f", "\u094d", "\u0600", "\u1100", "\u1161", "\U0001f1e6"]
    ),
    max_size=40,
).map("".join)


class TestTokenizeOracle:
    """The fast path against the cluster-by-cluster oracle."""

    @given(st.one_of(_MIXED_TEXT, _PLAIN_TEXT))
    @example("\u0d4e x")  # Prepend glues onto the space after it
    @example("1\u0301.2")  # the kind of "1́" is its base's
    @example("1\u0301:a")
    @example("1\u102c.2")  # "ာ" starts a cluster of letter kind
    @example("a.\u0301b")  # a mark makes the connector cluster word material
    @example("a\t\u0301b")  # but not after a control
    @example("x \u0301y")  # a mark glues onto a space
    @example("\u3000\uff9e\u096a")  # a non-mark extender after a space
    @example("\u0301ab")  # a stray mark at index 0
    @example("ab, cd " * 500 + "ef\u200d")  # one special code point, last
    @example("\u0e01\u0e02 ab " * 500 + "\u0e33")
    @example("ab \u0301c d\u200de")  # both kinds of trigger
    @example("\u1100\u1161\u11a8 \u1100\u1161")  # NFD jamo are triggers, their syllables not
    @example("ab\u2000cd\u2001e")  # NFC maps U+2000 and U+2001 to other spaces
    @example("a \u0301b a")  # a mark after a space starts a chunk, still stray
    @example("ab\u200dc " * 50)  # one trigger, inside a single repeated chunk
    @example("ab -- cd -- ab")  # a chunk with no token
    @example("well-known well-known -- a")  # several tokens in one chunk
    @example("\u0915\u094d\u0937")  # क्ष, a conjunct: one cluster of two letters (GB9c)
    @example("\u0995\u09cd\u09b7")  # ক্ষ
    @example("\u0928\u092e\u0938\u094d\u0924\u0947")  # नमस्ते
    @example("\u0915\u094d\u0937'\u0915")  # क्ष'क, a conjunct before a connector
    def test_matches_brute_force(self, text):
        assert toks(text) == brute_tokenize(unicodedata.normalize("NFC", text))

    @given(st.one_of(_MIXED_TEXT, _PLAIN_TEXT))
    @example("a\r\nb")  # a whitespace cluster of two code points
    @example("\u1100\u1161\u11a8.\u1100")  # a jamo cluster of three, before a connector
    @example("5\u0301.2")  # a digit cluster with a mark
    @example("5\u0301:2")
    @example("a.\u0301b")  # a mark makes the connector cluster word material
    @example("\U0001f44d\U0001f3fd.a")  # a non-word cluster of two code points
    @example("a.\u200db")  # a connector cluster of two code points joins nothing
    @example("a'b 3.14 1,5 a:b 1:2 a,b")  # each kind of connector, joining or not
    @example("a.1 2'b")  # an either-kind connector between mixed kinds
    def test_cluster_pass_matches_brute_force(self, text):
        # the class-letter pattern against the oracle's cluster loop, on
        # trigger-free text too, which `tokenize` keeps on its fast path
        text = unicodedata.normalize("NFC", text)
        assert textstats._tokenize_clusters(text) == brute_tokenize(text)

    @given(
        st.lists(st.one_of(_MIXED_TEXT, _PLAIN_TEXT).filter(bool), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_SPACES)), max_size=60),
        st.sampled_from(["NFC", "NFD", None]),
    )
    @example(["ab"], [(0, " ")] * 3, None)
    @example(["a-b", "c", "--"], [(0, " "), (2, "\n"), (0, " "), (1, " "), (0, "\u3000")], None)
    @example(["e\u0301", "\u00e9"], [(0, " "), (1, " "), (0, "\u2000")], None)  # one chunk after NFC
    @example(["ab", "\u0301c"], [(0, " "), (1, " "), (0, " ")], "NFD")
    def test_repeated_chunks_match_brute_force(self, pool, picks, form):
        # text that repeats a few chunks, in any normalization form: each
        # distinct chunk is tokenized once and its tokens are repeated,
        # whether the text is split whole or in blocks of a few characters
        text = "".join(pool[k % len(pool)] + space for k, space in picks)
        if form is not None:
            text = unicodedata.normalize(form, text)
        expected = brute_tokenize(unicodedata.normalize("NFC", text))
        assert toks(text) == expected
        with mock.patch.object(textstats, "_BLOCK_CHARS", 3):
            assert toks(text) == expected

    @given(st.one_of(_WORD_MATERIAL_TEXT, _MIXED_TEXT))
    @example("ab -- cd")
    @example("x \u0301y")  # a stray mark: the cluster pass
    @example("a.\u200db")
    @example("\U0001f44d\U0001f3fd.a")
    @example("-- '' .")  # no word material at all
    def test_every_token_holds_word_material(self, text):
        r"""Every token holds a letter, mark or decimal digit, so the
        tokenizer needs no check of its own for it. On the fast path a
        token is a run of ``[\p{L}\p{M}\p{Nd}]``, and a connector joins
        it only with word material on both sides; in the cluster pass a
        token is a match of the class-letter pattern, which starts with
        an ``a`` or ``d`` cluster: one that holds word material."""
        word = regex.compile(r"[\p{L}\p{M}\p{Nd}]")
        assert [t for t in tokenize(text) if not word.search(t)] == []

    def test_matches_brute_force_on_every_fixture(self, fixtures):
        corpora = sorted(fixtures.rglob("*.txt"))
        assert corpora
        for f in corpora:
            text = f.read_text(encoding="utf-8")
            expected = brute_tokenize(unicodedata.normalize("NFC", text))
            for form in ("NFC", "NFD"):
                assert toks(unicodedata.normalize(form, text)) == expected, (f, form)
                with mock.patch.object(textstats, "_BLOCK_CHARS", 100):
                    assert toks(unicodedata.normalize(form, text)) == expected, (f, form)

    def test_whitespace_is_nfc_inert(self):
        # NFC never acts across whitespace, so normalizing each chunk alone
        # equals normalizing the text: every str.isspace() code point has
        # combining class 0, is in no canonical pair decomposition (so it
        # composes with nothing), and normalizes to whitespace
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert "\u3000" in spaces and "\x1c" in spaces
        assert [c for c in spaces if unicodedata.combining(c)] == []
        in_pairs = set()
        for c in map(chr, range(0x110000)):
            parts = unicodedata.decomposition(c).split()
            if len(parts) == 2 and not parts[0].startswith("<"):
                in_pairs.update(chr(int(h, 16)) for h in parts)
        assert in_pairs and in_pairs.isdisjoint(spaces)
        changed = {c: unicodedata.normalize("NFC", c) for c in spaces}
        assert {c: n for c, n in changed.items() if n != c} == {"\u2000": "\u2002", "\u2001": "\u2003"}
        # none of it is word material for the token rule, and the blocks
        # are cut at exactly the code points str.split() splits at
        assert [c for c in spaces if _patterns().alnum.match(c)] == []
        assert textstats._WHITESPACE.findall("".join(map(chr, range(0x110000)))) == spaces

    def test_triggers_are_looked_for_after_nfc(self):
        # NFD Hangul jamo are triggers, but the syllables NFC composes them
        # into are not, so decomposed Korean takes the fast path
        text = unicodedata.normalize("NFD", "\ud55c\uad6d\uc5b4 \ud14d\uc2a4\ud2b8 \ud55c\uad6d\uc5b4")
        assert _patterns().special.search(text)
        with mock.patch.object(textstats, "_tokenize_clusters", side_effect=AssertionError):
            assert toks(text) == ["\ud55c\uad6d\uc5b4", "\ud14d\uc2a4\ud2b8", "\ud55c\uad6d\uc5b4"]

    def test_blocks_cut_at_whitespace_left_out(self):
        # a text of lines is cut into whole lines, so the distinct chunks
        # can be tokenized a block of lines at a time
        with mock.patch.object(textstats, "_BLOCK_CHARS", 3):
            assert list(textstats._blocks("ab\ncd\nef")) == ["ab\ncd", "ef"]
            assert list(textstats._blocks("abc\n")) == ["abc"]
            assert list(textstats._blocks("a b  c")) == ["a b", " c"]
            assert list(textstats._blocks("")) == []

    def test_no_whitespace_is_a_trigger(self):
        # whitespace alone never sends a text to the cluster pass: no
        # whitespace code point is special, and only a mark after one is
        # a stray mark
        special, stray_mark = _patterns().special, _patterns().stray_mark
        spaces = regex.findall(r"\s", "".join(map(chr, range(0x110000))))
        assert "\u3000" in spaces
        assert [c for c in spaces if special.match(c)] == []
        assert stray_mark.search("".join(spaces)) is None
        assert [c for c in spaces if not stray_mark.search(c + "\u0301")] == []


class TestGraphemeLength:
    def test_ascii(self):
        assert grapheme_length("word") == 4

    def test_han_pair(self):
        assert grapheme_length("我們") == 2

    def test_combining_sequence_is_one_cluster(self):
        assert grapheme_length("é") == 1
        assert grapheme_length(unicodedata.normalize("NFC", "é")) == 1

    def test_hangul_jamo_compose(self):
        # U+1100 U+1161 U+11A8 is one syllable cluster
        assert grapheme_length("각") == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            grapheme_length("")


class TestTokenSequence:
    """The token sequence: the plain tuple ``tokenize`` returns, and the
    window ``sample_contiguous`` draws from it."""

    _TEXT = "the cat saw the dog and the cat ran " * 20

    def test_sampled_window_keeps_iso_and_tokens(self):
        # the iso lives with the corpus, not the tokens: the profile keeps
        # the corpus's iso and measures exactly the window's tokens
        seq = tokenize(self._TEXT)
        window, offset = sample_contiguous(seq, 30, seed=5)
        assert window == seq[offset : offset + 30]
        prof = profile(CorpusSource(iso="abc", text=self._TEXT), target=30, seed=5)
        assert (prof.iso, prof.sample_offset, prof.token_count) == ("abc", offset, 30)
        assert prof.mean_word_length == mean_word_length(Counter(window))

    def test_sampled_window_is_not_scanned_again(self):
        # the tokens were checked when they were tokenized; a window of
        # them is their slice and needs none of the tokenizer's patterns
        seq = tokenize(self._TEXT)
        with mock.patch.object(textstats, "_patterns", side_effect=AssertionError):
            window, offset = sample_contiguous(seq, 30, seed=5)
        assert type(window) is tuple
        assert window == seq[offset : offset + 30]


class TestSampleContiguous:
    def _seq(self, n):
        return tuple(f"t{i}" for i in range(n))

    def test_short_sequence_returned_whole(self):
        seq = self._seq(5)
        window, offset = sample_contiguous(seq, 10, seed=3)
        assert window is seq and offset == 0

    def test_window_size_and_determinism(self):
        seq = self._seq(100)
        w1, o1 = sample_contiguous(seq, 30, seed=7)
        w2, o2 = sample_contiguous(seq, 30, seed=7)
        assert len(w1) == 30
        assert (o1, w1) == (o2, w2)
        assert w1 == seq[o1 : o1 + 30]

    def test_offset_follows_documented_rng(self):
        seq = self._seq(100)
        _, offset = sample_contiguous(seq, 30, seed=42)
        assert offset == random.Random(42).randint(0, 70)

    def test_different_seeds_can_differ(self):
        seq = self._seq(1000)
        offsets = {sample_contiguous(seq, 10, seed=s)[1] for s in range(20)}
        assert len(offsets) > 1

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            sample_contiguous((), 5, seed=0)


class TestMeasures:
    def test_mwl_logographic_scaling(self):
        # written lengths (1, 1, 1, 2); scale 2.4 maps the mean onto the
        # romanized value 3.0
        seq = tokenize("我 你 好 我們")
        assert len(seq) == 4
        assert mean_word_length(Counter(seq)) == pytest.approx(1.25)
        assert mean_word_length(Counter(seq), script_scale=2.4) == pytest.approx(3.0)

    def test_mwl_plain(self):
        seq = ("ab", "abcd")
        assert mean_word_length(Counter(seq)) == 3.0

    @given(st.one_of(_MIXED_TEXT, _PLAIN_TEXT), st.integers(1, 4), st.floats(0.01, 100.0))
    @example("ab ab ab cde", 1, 2.4)  # repeated tokens
    @example("\u6211 \u6211\u5011 \u6211", 3, 2.4)
    @example("x \u0301y a\u200db", 2, 1.0)
    @example("\u0915\u094d\u0937", 1, 1.0)  # क्ष
    @example("\u0995\u09cd\u09b7", 2, 1.0)  # ক্ষ
    @example("\u0928\u092e\u0938\u094d\u0924\u0947 ab", 1, 1.0)  # नमस्ते
    @example("\u0915\u094d\u0937'\u0915", 1, 1.0)  # क्ष'क
    def test_mwl_per_type_equals_per_token(self, text, reps, scale):
        # lengths are summed once per type, times its count; the integer
        # total, and so the float, equals the sum over every token
        seq = tokenize(" ".join([text] * reps))
        assume(len(seq) > 0)
        per_token = sum(grapheme_length(t) for t in seq)
        assert mean_word_length(Counter(seq), scale) == per_token / len(seq) * scale

    @given(
        st.lists(st.one_of(st.sampled_from(_PLAIN_TYPES), _ANY_TYPE), min_size=1, max_size=8),
        st.lists(st.integers(0, 7), min_size=1, max_size=30),
        st.floats(0.01, 100.0),
    )
    @example(["a\nb", "c"], [0, 1, 1], 1.0)  # a type holding a line break
    @example(["a\r\nb", "a"], [0, 1], 1.0)  # CR LF, one cluster of two code points
    @example(["a\r", "b"], [0, 1], 1.0)  # a lone CR, before the joining line break
    @example(["\u0301a", "ab"], [0, 1, 1], 1.0)  # a leading mark, a cluster of its own
    @example(["\u0915\u094d\u0937", "ab"], [0, 1], 1.0)  # a virama: क्ष is one cluster
    @example(["\U0001f44d\U0001f3fb", "\U0001f469\u200d\U0001f4bb", "ab"], [0, 1, 2], 1.0)  # emoji
    @example(["\u1100\u1161\u11a8", "\u1100\u1161"], [0, 1], 1.0)  # Hangul jamo
    @example(["ab", "\u6211\u5011", "a\u200db", "cd"], [0, 1, 2, 3, 0], 2.4)  # plain and trigger types
    def test_mwl_of_any_tokens_equals_per_token(self, pool, picks, scale):
        # any tuple of non-empty tokens, not only the tokenizer's: the
        # one pass over the types, where it runs, counts what \X counts
        seq = tuple(pool[k % len(pool)] for k in picks)
        per_token = sum(grapheme_length(t) for t in seq)
        assert mean_word_length(Counter(seq), scale) == per_token / len(seq) * scale

    def test_mwl_counts_a_conjunct_as_regex_does(self):
        # GB9c makes क्ष one cluster where the installed regex implements
        # it, so the expected length is read from regex, not written here
        conjunct = "\u0915\u094d\u0937"
        assert mean_word_length(Counter((conjunct,))) == grapheme_length(conjunct)

    @pytest.mark.parametrize("seq", [("a", ""), ("", "a"), ("",)])
    def test_mwl_empty_token_error_unchanged(self, seq):
        with pytest.raises(ValueError, match="^grapheme_length requires a non-empty token$"):
            mean_word_length(Counter(seq))

    def test_mwl_rejects_bad_scale(self):
        seq = ("ab",)
        with pytest.raises(ValueError, match="script_scale"):
            mean_word_length(Counter(seq), script_scale=0.0)

    def test_ttr(self):
        seq = ("a", "b", "a", "b")
        assert type_token_ratio(Counter(seq)) == 0.5
        assert type_token_ratio(Counter(("x",))) == 1.0

    def test_entropy_alternating(self):
        seq = ("a", "b", "a", "b")
        assert unigram_entropy(Counter(seq)) == pytest.approx(1.0)

    def test_entropy_constant_is_zero(self):
        seq = ("a",) * 10
        assert unigram_entropy(Counter(seq)) == 0.0

    def test_entropy_matches_oracle(self):
        rng = random.Random(5)
        tokens = [rng.choice("abcdefg") * rng.randint(1, 3) for _ in range(500)]
        seq = tuple(tokens)
        assert unigram_entropy(Counter(seq)) == brute_entropy(tokens)

    def test_entropy_all_distinct_hits_log2_n(self):
        seq = tuple(f"t{i}" for i in range(32))
        assert unigram_entropy(Counter(seq)) == pytest.approx(5.0)


class TestProfile:
    def _corpus(self, text, iso="abc"):
        return CorpusSource(iso=iso, text=text)

    def test_happy_path_records_provenance(self):
        text = " ".join(f"w{i}" for i in range(50))
        prof = profile(self._corpus(text), target=20, seed=9)
        assert prof.iso == "abc"
        assert prof.token_count == 20
        assert prof.seed == 9
        assert prof.sample_offset == random.Random(9).randint(0, 30)

    def test_small_corpus_uses_all_tokens(self):
        prof = profile(self._corpus("a bb ccc"))
        assert prof.token_count == 3
        assert prof.sample_offset == 0
        assert prof.mean_word_length == 2.0

    def test_scale_comes_from_record(self):
        """The scale a command reads from the language's registry record
        multiplies the mean word length."""
        prof = profile(self._corpus("a bb ccc"), script_scale=2.0)
        assert prof.mean_word_length == 4.0

    def test_no_lexical_tokens_is_fatal(self):
        with pytest.raises(ValueError, match="no lexical tokens"):
            profile(self._corpus("... -- !!"))

    def test_fixture_windows_take_the_one_pass(self, fixtures):
        # every window of the fixture corpora is measured by the one pass
        # over its types: no type reaches grapheme_length
        corpora = sorted((fixtures / "corpus_ds").glob("*.txt"))
        assert corpora
        expected = [profile(load_corpus(f, f.stem)) for f in corpora]
        with mock.patch.object(textstats, "grapheme_length", side_effect=AssertionError):
            assert [profile(load_corpus(f, f.stem)) for f in corpora] == expected

    @pytest.mark.parametrize(
        "text",
        [
            "\u0915\u094d\u0937\u0947\u0924\u094d\u0930 \u0928\u092e\u0938\u094d\u0924\u0947 ab ab",  # viramas
            "ab a\u200db ab cd",  # a ZWJ, special
            "x \u0301y ab",  # a stray mark
        ],
    )
    def test_virama_or_trigger_window_sums_per_type(self, text):
        seq = tokenize(text)
        with mock.patch.object(textstats, "grapheme_length", wraps=grapheme_length) as spy:
            mwl = profile(self._corpus(text)).mean_word_length
        assert spy.call_count == len(set(seq))
        assert mwl == sum(map(grapheme_length, seq)) / len(seq)

    def test_normalization_forms_profile_identically(self, fixtures):
        a = profile(load_corpus(fixtures / "corpus_nfc" / "qna.txt", "qna"))
        b = profile(load_corpus(fixtures / "corpus_nfd" / "qna.txt", "qna"))
        assert a == b


def test_mwl_is_scale_equivariant():
    # scaling the mean equals scaling each length: exercised across a
    # spread of scales on one fixed sequence
    seq = ("a", "bb", "ccc", "dddd", "ee")
    base = mean_word_length(Counter(seq))
    for scale in (0.5, 1.0, 2.4, 3.7):
        assert mean_word_length(Counter(seq), scale) == pytest.approx(base * scale, rel=1e-15)
        assert math.isfinite(mean_word_length(Counter(seq), scale))
