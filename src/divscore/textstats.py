"""Text-derived language features.

Tokenization, grapheme-cluster word lengths, seeded contiguous sampling,
mean word length with logographic scaling, type-token ratio, and unigram
entropy. All functions are pure; file loading lives in ingest.

Tokens are split on Unicode whitespace and word-boundary punctuation.
The splitter works over extended grapheme clusters and keeps connector
punctuation (apostrophes, midword dots, decimal separators) inside a
token when it sits between alphanumeric material of matching kind, so
"don't" and "3.14" each stay one token. Adjacent letter clusters with no
separator between them form a single token, so a run of Han characters
such as 我們 is one token of two graphemes. Tokens without any
alphanumeric content are discarded. The connector tables below are a
pragmatic subset of the Unicode word-boundary connector classes; the
bundled fixtures document the exact behavior. Underscores separate
tokens here. Since the splitter works over clusters (UAX #29), a
combining mark after a space, or a Prepend code point before one, joins
the space into a token: tokenize("x \\u0301y") gives ["x \\u0301y"] and
tokenize("\\u0d4e x") gives ["\\u0d4e x"].

`tokenize` is the one place that NFC-normalizes text. Most text is
tokenized by one compiled pattern: where every grapheme cluster is a
base code point plus its marks, a token is a run of letters, marks and
digits, joined across single connectors, and the pattern replaces
what lies between tokens with spaces. A text that holds any code point
whose cluster that pattern cannot know (Prepend, ZWJ, Hangul jamo,
regional indicators, non-mark extenders, a mark after non-word
material) is tokenized whole by the cluster-by-cluster loop instead.
Both give the same tokens. Every Unicode property, the digit
test included, comes from `regex`'s tables, so the tokens depend on the
installed `regex` version's Unicode data but not on the Python version.
`regex` is imported, and every pattern compiled, on first use, so a
command that reads no text loads neither.

Natural text repeats its words, code points and tokens, so work that
depends on one item alone is done once per distinct item: NFC, the
trigger test and the separator pattern run once per distinct
whitespace-delimited chunk (NFC never acts across whitespace, and no
token spans it); the trigger code points are looked for among the
distinct code points; tokens are checked for alphanumeric content, and
measured in graphemes, once per type.
"""
from __future__ import annotations

import functools
import math
import re
import unicodedata
from collections import Counter, defaultdict, namedtuple
from itertools import chain, count

from .ingest import CorpusSource
from .model import LanguageRecord, TextProfile, _Immutable, _require, _require_iso

# Connector punctuation, single code point each. "Letter" connectors join
# letter-kind neighbors, "numeric" connectors join digit-kind neighbors,
# and the "both" set (apostrophes and full stops) joins either kind as
# long as the two neighbors match each other.
_MID_LETTER = frozenset(":··՟״‧︓﹕：")
_MID_NUMERIC = frozenset(",;;٫٬﹐﹔，；")
_MID_BOTH = frozenset("'.’․﹒＇．")

_WS, _WORD, _PUNCT = 0, 1, 2
# the standard library's \s is str.isspace(), where str.split() splits
_WHITESPACE = re.compile(r"\s")
#: Characters `tokenize` splits at a time.
_BLOCK_CHARS = 1 << 18

#: The tokenizer's compiled patterns, built by :func:`_patterns`.
_Patterns = namedtuple(
    "_Patterns", "separator special stray_mark grapheme alnum no_alnum_line digit"
)


class TokenSequence(_Immutable):
    """Ordered tokens for one language: an iso code and a tuple of tokens.

    May be empty (callers decide whether that is fatal), but every token
    present must contain at least one alphanumeric character. The check
    reads each distinct token once.
    """

    __slots__ = ("iso", "tokens")

    def __init__(self, iso: str, tokens) -> None:
        _require_iso(iso)
        toks = tuple(tokens)
        _require_word_material(set(toks), toks)
        object.__setattr__(self, "iso", iso)
        object.__setattr__(self, "tokens", toks)

    @classmethod
    def _checked(cls, iso: str, tokens: tuple[str, ...]) -> TokenSequence:
        """A sequence of an iso code and tokens that passed the checks."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "iso", iso)
        object.__setattr__(seq, "tokens", tokens)
        return seq

    def __len__(self) -> int:
        return len(self.tokens)

    def window(self, start: int, stop: int) -> TokenSequence:
        """The tokens in positions [start, stop), with this sequence's iso.

        They were checked as part of this sequence, so they are not
        scanned again.
        """
        return TokenSequence._checked(self.iso, self.tokens[start:stop])


def _require_word_material(types, tokens: tuple[str, ...]) -> None:
    """Require an alphanumeric character in every token.

    One scan reads ``types``, every distinct token of ``tokens`` (some
    perhaps more than once), a line each. A token that holds a line
    break may raise a false alarm, which the scan of ``tokens`` in order
    settles; it names the first token without one.
    """
    p = _patterns()
    if p.no_alnum_line.search("\n".join(types)):
        bad = next((t for t in tokens if not p.alnum.search(t)), None)
        _require(bad is None, f"every token must contain an alphanumeric character, got {bad!r}")


def _classify(cluster: str, p: _Patterns) -> tuple[int, bool]:
    """Class of one grapheme cluster and whether its base char is a digit."""
    if cluster.isspace():
        return _WS, False
    if p.alnum.search(cluster) is not None:
        return _WORD, p.digit.match(cluster) is not None
    return _PUNCT, False


def _tokenize_clusters(text: str) -> list[str]:
    """Tokens of ``text``, segmenting it into grapheme clusters first."""
    p = _patterns()
    clusters = p.grapheme.findall(text)
    memo: dict[str, tuple[int, bool]] = {}
    classes: list[tuple[int, bool]] = []
    for c in clusters:
        k = memo.get(c)
        if k is None:
            k = _classify(c, p)
            memo[c] = k
        classes.append(k)

    tokens: list[str] = []
    n = len(clusters)
    i = 0
    while i < n:
        cls, numeric = classes[i]
        if cls != _WORD:
            i += 1
            continue
        parts = [clusters[i]]
        j = i
        while True:
            nxt = j + 1
            if nxt < n and classes[nxt][0] == _WORD:
                parts.append(clusters[nxt])
                j = nxt
                continue
            # single connector cluster with word material of matching
            # kind on both sides joins the run
            if nxt + 1 < n and classes[nxt][0] == _PUNCT and classes[nxt + 1][0] == _WORD:
                conn = clusters[nxt]
                prev_num = classes[j][1]
                next_num = classes[nxt + 1][1]
                joins = len(conn) == 1 and (
                    (conn in _MID_LETTER and not prev_num and not next_num)
                    or (conn in _MID_NUMERIC and prev_num and next_num)
                    or (conn in _MID_BOTH and prev_num == next_num)
                )
                if joins:
                    parts.append(conn)
                    parts.append(clusters[nxt + 1])
                    j = nxt + 1
                    continue
            break
        tokens.append("".join(parts))
        i = j + 1
    return tokens


@functools.cache
def _patterns() -> _Patterns:
    """Every pattern the tokenizer uses, compiled on first use, which
    is also when ``regex`` is imported.

    The fast path's patterns are the separator, special and stray-mark
    ones. A code point is plain when its cluster is known without
    segmenting: a non-mark that starts a new cluster (CR LF aside, which
    only joins whitespace), or a mark that extends the cluster before
    it. Any other code point is special. A special code point is a
    trigger, and so is a mark after anything but word material (a stray
    mark), which glues onto a non-word base. Being special is a property
    of the code point alone, so `tokenize` looks for one among the
    text's distinct code points; only the stray mark needs its context,
    and a scan over the distinct chunks. In text without triggers every
    cluster is one base plus its marks, so a token is a run of word code
    points joined across a single connector, and the kind of the cluster
    before the connector is its base's: the last non-mark. The separator
    pattern matches the rest: each run of code points that are neither
    word material, a line break, nor a connector with word material of
    its kind on both sides. Natural text holds far fewer separator runs
    than tokens, so replacing the runs costs less than finding the
    tokens.
    """
    import regex

    def char_class(chars: frozenset[str]) -> str:
        return "[" + "".join(regex.escape(c) for c in sorted(chars)) + "]"

    plain = (
        r"[\p{GCB=Other}\p{GCB=LV}\p{GCB=LVT}\p{GCB=Control}\p{GCB=CR}\p{GCB=LF}--\p{M}]"
        r"[[\p{GCB=Extend}\p{GCB=SpacingMark}]&&\p{M}]"
    )
    special = rf"[^{plain}]"
    word = r"[\p{L}\p{M}\p{Nd}]"
    letter = char_class(_MID_LETTER | _MID_BOTH)
    numeric = char_class(_MID_NUMERIC | _MID_BOTH)
    # a connector that joins: word material before it, and each
    # connector's char before its kind test
    connector = (
        rf"(?<={word})(?:{letter}(?<!\p{{Nd}}\p{{M}}*.)(?=\p{{L}})"
        rf"|{numeric}(?<=\p{{Nd}}\p{{M}}*.)(?=\p{{Nd}}))"
    )
    return _Patterns(
        separator=regex.compile(rf"(?:(?!{connector})[^\p{{L}}\p{{M}}\p{{Nd}}\n])+"),
        special=regex.compile(rf"(?V1){special}"),
        stray_mark=regex.compile(rf"(?<!{word})\p{{M}}"),
        grapheme=regex.compile(r"\X"),
        alnum=regex.compile(word),
        no_alnum_line=regex.compile(r"(?m)^[^\p{L}\p{M}\p{Nd}\n]*$"),
        digit=regex.compile(r"\p{Nd}"),
    )


def tokenize(text: str, iso: str = "und") -> TokenSequence:
    """Split text into lexical tokens of its NFC normal form.

    The one place that normalizes text: the tokens are those of
    ``unicodedata.normalize("NFC", text)``, so canonically equivalent
    spellings give equal tokens. Natural text repeats its words, so NFC
    and the token rule run once per distinct whitespace-delimited chunk,
    over the distinct chunks joined by line breaks: NFC never acts
    across whitespace, and no token spans it. Without a trigger, one
    pass replaces each chunk's separator runs with spaces, leaving a
    line of space-separated tokens per chunk; each occurrence of a chunk
    then shares that chunk's token objects, so the tokens take memory
    for the distinct chunks and a reference per token. The chunk strings
    are freed before any token is made, and the alphanumeric check reads
    the distinct chunks' tokens. With a trigger, the whole text is
    normalized and tokenized by the cluster loop.

    Parameters
    ----------
    text : str
        Input text, in any normalization form.
    iso : str, optional
        Language code carried on the resulting sequence. Defaults to
        "und" (undetermined) for anonymous text.

    Returns
    -------
    TokenSequence
        Tokens in original order, punctuation-only material removed.
        Empty input yields an empty sequence.
    """
    _require_iso(iso)
    p = _patterns()
    # each chunk occurrence becomes its chunk's number, counted from 0
    # in order of first sight; the first of equal chunks is kept, as a
    # key, until the keys are joined
    numbers: defaultdict[str, int] = defaultdict(count().__next__)
    chunks: list[int] = []
    for block in _blocks(text):
        chunks += map(numbers.__getitem__, block.split())
    distinct = unicodedata.normalize("NFC", "\n".join(numbers))
    del numbers
    # a mark that starts a chunk follows a line break, so it is still stray
    if p.special.search("".join(set(distinct))) or p.stray_mark.search(distinct):
        del chunks, distinct
        return TokenSequence(iso, _tokenize_clusters(unicodedata.normalize("NFC", text)))
    # a line per distinct chunk, its tokens with spaces between; a block
    # of lines at a time, since `sub` holds a string per piece between
    # separators until it joins them. Each chunk's tuple of tokens is
    # shared by all its occurrences.
    lines: list[tuple[str, ...]] = []
    for block in _blocks(distinct):
        lines += map(tuple, map(str.split, p.separator.sub(" ", block).split("\n")))
    del distinct
    tokens = tuple(chain.from_iterable(map(lines.__getitem__, chunks)))
    del chunks
    # the distinct chunks' tokens hold every type, so the check reads
    # them instead of a set of the sequence
    _require_word_material(chain.from_iterable(lines), tokens)
    return TokenSequence._checked(iso, tokens)


def _blocks(text: str):
    """``text`` in pieces of about ``_BLOCK_CHARS`` characters, cut at a
    whitespace character that neither piece keeps, so that no chunk
    spans two pieces, and a text of lines is cut into whole lines."""
    start = 0
    while start < len(text):
        cut = _WHITESPACE.search(text, start + _BLOCK_CHARS)
        end = cut.start() if cut else len(text)
        yield text[start:end]
        start = end + 1


def grapheme_length(token: str) -> int:
    """Count extended grapheme clusters in a token.

    A combining sequence counts as one grapheme regardless of how many
    code points encode it, so NFC and decomposed spellings of the same
    text measure the same length. 我們 has length 2.
    """
    _require(bool(token), "grapheme_length requires a non-empty token")
    return len(_patterns().grapheme.findall(token))


def sample_contiguous(tokens: TokenSequence, target: int, seed: int) -> tuple[TokenSequence, int]:
    """Extract a contiguous window of up to ``target`` tokens.

    The window offset is drawn uniformly from [0, N - target] with a
    dedicated RNG seeded by ``seed``, so the same (tokens, target, seed)
    always yields the same window. When the sequence has at most
    ``target`` tokens the whole sequence is returned with offset 0.

    Returns
    -------
    (TokenSequence, int)
        The sampled window and its start offset in token positions.
    """
    _require(target >= 1, f"sample target must be >= 1, got {target}")
    n = len(tokens)
    _require(n > 0, "cannot sample from an empty token sequence")
    if n <= target:
        return tokens, 0
    import random  # here, so commands that sample nothing never load it

    offset = random.Random(seed).randint(0, n - target)
    return tokens.window(offset, offset + target), offset


def mean_word_length(tokens: TokenSequence, script_scale: float = 1.0) -> float:
    """Mean grapheme clusters per token, times ``script_scale``.

    The scale compensates for logographic scripts: with the four types
    wo, men, ta, wo-men of written lengths (1, 1, 1, 2) and romanized
    lengths (2, 2, 3, 5), a scale of (2+2+3+5)/(1+1+1+2) = 2.4 maps the
    observed mean 1.25 onto the romanized mean 3.0. Scaling the mean is
    equivalent to scaling each length by the same constant.
    """
    _require(
        math.isfinite(script_scale) and script_scale > 0,
        f"script_scale must be a finite positive number, got {script_scale!r}",
    )
    _require(len(tokens) > 0, "mean_word_length requires a non-empty token sequence")
    total = sum(n * grapheme_length(t) for t, n in Counter(tokens.tokens).items())
    return total / len(tokens) * script_scale


def type_token_ratio(tokens: TokenSequence) -> float:
    """Distinct tokens divided by total tokens, in (0, 1].

    Types are compared by exact string equality; the tokenizer's NFC
    normalization makes canonically equivalent spellings compare equal.
    """
    _require(len(tokens) > 0, "type_token_ratio requires a non-empty token sequence")
    return len(set(tokens.tokens)) / len(tokens)


def unigram_entropy(tokens: TokenSequence) -> float:
    """Shannon entropy (bits) of the empirical token distribution.

    H = -sum(p_i * log2(p_i)) with p_i = count_i / N. Ranges from 0 (one
    repeated token) to log2(N) (all tokens distinct).
    """
    _require(len(tokens) > 0, "unigram_entropy requires a non-empty token sequence")
    n = len(tokens)
    ps = [c / n for c in Counter(tokens.tokens).values()]
    return -math.fsum([p * math.log2(p) for p in ps])


def profile(
    corpus: CorpusSource,
    record: LanguageRecord,
    target: int = 10000,
    seed: int = 0,
) -> TextProfile:
    """Tokenize, sample, and measure one corpus.

    Tokenizes ``corpus.text``, draws a seeded contiguous sample of up to
    ``target`` tokens, and computes mean word length (scaled by
    ``record.script_scale``), type-token ratio, and unigram entropy on
    that same sample. The seed and sample offset are recorded in the
    profile so it can be recomputed exactly.

    Raises
    ------
    ValueError
        If the corpus and record disagree on the language, or the corpus
        tokenizes to zero tokens ("no lexical tokens").
    """
    _require(
        corpus.iso == record.iso,
        f"corpus language {corpus.iso!r} does not match record {record.iso!r}",
    )
    toks = tokenize(corpus.text, corpus.iso)
    if len(toks) == 0:
        raise ValueError(f"no lexical tokens in corpus for {corpus.iso!r}")
    sample, offset = sample_contiguous(toks, target, seed)
    return TextProfile(
        iso=record.iso,
        mean_word_length=mean_word_length(sample, record.script_scale),
        ttr=type_token_ratio(sample),
        unigram_entropy=unigram_entropy(sample),
        token_count=len(sample),
        sample_offset=offset,
        seed=seed,
    )
