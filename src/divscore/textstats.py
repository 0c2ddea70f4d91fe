"""Text-derived language features.

Tokenization, grapheme-cluster word lengths, seeded contiguous sampling,
mean word length with logographic scaling, type-token ratio, and unigram
entropy. All functions are pure; file loading lives in ingest. Tokens
are a plain tuple of str; a sample window is a slice of it, and the
three measures read one `Counter` of its tokens.

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
material) is tokenized whole by the cluster pass instead: it segments
the text into grapheme clusters, writes one class letter per code point
(word, numeric word, each kind of connector, other), and a second
pattern over those letters finds the tokens. Both give the same tokens,
each holding word material by construction, so no pass checks for it:
a fast-path token is a run of word code points, which a connector joins
only with word material on both sides, and a cluster-pass token holds a
word cluster.
Every Unicode property, the digit test included, comes from `regex`'s
tables, so the tokens depend on the installed `regex` version's Unicode
data but not on the Python version.
`regex` is imported, and every pattern compiled, on first use, so a
command that reads no text loads neither.

Natural text repeats its words, code points and tokens, so work that
depends on one item alone is done once per distinct item: NFC, the
trigger test and the separator pattern run once per distinct
whitespace-delimited chunk (NFC never acts across whitespace, and no
token spans it); the trigger code points are looked for among the
distinct code points. A window's word lengths take one pass over its
types: where they hold no trigger and no virama, a type's clusters are
its non-marks, counted by deleting the marks (`mean_word_length`).
"""
from __future__ import annotations

import functools
import math
import operator
import re
import unicodedata
from collections import Counter, defaultdict, namedtuple
from itertools import chain, count

from .ingest import CorpusSource
from .model import TextProfile, _require

# Connector punctuation, single code point each. "Letter" connectors join
# letter-kind neighbors, "numeric" connectors join digit-kind neighbors,
# and the "both" set (apostrophes and full stops) joins either kind as
# long as the two neighbors match each other.
_MID_LETTER = frozenset(":··՟״‧︓﹕：")
_MID_NUMERIC = frozenset(",;;٫٬﹐﹔，；")
_MID_BOTH = frozenset("'.’․﹒＇．")
#: The class letter `_tokenize_clusters` gives each connector.
_CONNECTOR_LETTERS = {
    **dict.fromkeys(_MID_LETTER, "l"),
    **dict.fromkeys(_MID_NUMERIC, "n"),
    **dict.fromkeys(_MID_BOTH, "b"),
}

# the standard library's \s is str.isspace(), where str.split() splits
_WHITESPACE = re.compile(r"\s")
#: Characters `tokenize` splits at a time.
_BLOCK_CHARS = 1 << 18

#: The tokenizer's compiled patterns, built by :func:`_patterns`.
_Patterns = namedtuple("_Patterns", "separator special stray_mark grapheme alnum digit mark virama")


def _tokenize_clusters(text: str) -> list[str]:
    """Tokens of ``text``, segmenting it into grapheme clusters first.

    Each distinct cluster gets one class letter: ``a`` for word material
    (a letter, mark or decimal digit), ``d`` for word material whose
    first code point is a digit, ``l``, ``n`` or ``b`` for a
    one-code-point letter, numeric or either-kind connector, and ``x``
    for anything else. Repeated over its cluster's code points, the
    letters line up with ``text``, and a token is the text at the span
    of each match of one pattern over them: runs of word letters, joined
    across a connector with word letters of its kind on both sides.
    ``re``'s cache compiles the pattern on the first call, not at import.
    """
    p = _patterns()
    clusters = p.grapheme.findall(text)

    def letters(cluster: str) -> str:
        if p.alnum.search(cluster):
            kind = "d" if p.digit.match(cluster) else "a"
        else:
            kind = _CONNECTOR_LETTERS.get(cluster, "x")
        return kind * len(cluster)

    memo = {c: letters(c) for c in set(clusters)}
    classes = "".join(map(memo.__getitem__, clusters))
    del clusters, memo
    tokens = re.finditer(r"[ad]+(?:(?:(?<=a)[lb](?=a)|(?<=d)[nb](?=d))[ad]+)*", classes)
    return [text[i:j] for i, j in map(re.Match.span, tokens)]


@functools.cache
def _patterns() -> _Patterns:
    """Every pattern the tokenizer and `mean_word_length` use, compiled
    on first use, which is also when ``regex`` is imported.

    The fast path's patterns are the separator, special and stray-mark
    ones. A code point is plain when its cluster is known without
    segmenting: a non-mark that starts a new cluster (CR LF aside, which
    only joins whitespace), or a mark that extends the cluster before
    it. Any other code point is special. A special code point is a
    trigger, and so is a mark after anything but word material (a stray
    mark), which glues onto a non-word base. Being special is a property
    of the code point alone, so `tokenize` looks for one among the
    text's distinct code points; only the stray mark needs its context,
    and a scan over the distinct chunks (`_has_trigger`). In text without
    triggers every cluster is one base plus its marks, or a conjunct
    (UAX #29 rule GB9c, where the installed ``regex`` implements it):
    consonants joined across a virama, one cluster with two bases. Every
    consonant GB9c joins is a letter, so the bases of a cluster are of
    one kind, and a token is a run of word code points joined across a
    single connector, where the kind of the cluster before the connector
    is its last base's: the last non-mark. The separator
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
        digit=regex.compile(r"\p{Nd}"),
        mark=regex.compile(r"\p{M}+"),
        virama=regex.compile(r"\p{ccc=Virama}"),
    )


def _has_trigger(text: str) -> bool:
    """Whether ``text`` holds a trigger: a special code point, looked
    for among its distinct code points, or a stray mark. A mark that
    starts ``text`` or follows a line break is stray."""
    p = _patterns()
    return bool(p.special.search("".join(set(text))) or p.stray_mark.search(text))


def tokenize(text: str) -> tuple[str, ...]:
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
    are freed before any token is made. With a trigger, the whole text
    is normalized and tokenized by the cluster pass (`_tokenize_clusters`).

    Parameters
    ----------
    text : str
        Input text, in any normalization form.

    Returns
    -------
    tuple of str
        Tokens in original order, punctuation-only material removed,
        each holding an alphanumeric character. Empty input yields an
        empty tuple.
    """
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
    if _has_trigger(distinct):
        del chunks, distinct
        return tuple(_tokenize_clusters(unicodedata.normalize("NFC", text)))
    # a line per distinct chunk, its tokens with spaces between; a block
    # of lines at a time, since `sub` holds a string per piece between
    # separators until it joins them. Each chunk's tuple of tokens is
    # shared by all its occurrences.
    lines: list[tuple[str, ...]] = []
    for block in _blocks(distinct):
        lines += map(tuple, map(str.split, p.separator.sub(" ", block).split("\n")))
    del distinct
    return tuple(chain.from_iterable(map(lines.__getitem__, chunks)))


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


def sample_contiguous(tokens: tuple[str, ...], target: int, seed: int) -> tuple[tuple, int]:
    """Extract a contiguous window of up to ``target`` tokens.

    The window offset is drawn uniformly from [0, N - target] with a
    dedicated RNG seeded by ``seed``, so the same (tokens, target, seed)
    always yields the same window. When the tuple has at most ``target``
    tokens it is returned whole with offset 0.

    Returns
    -------
    (tuple of str, int)
        The sampled window, a slice of ``tokens``, and its start offset
        in token positions.
    """
    _require(target >= 1, f"sample target must be >= 1, got {target}")
    n = len(tokens)
    _require(n > 0, "cannot sample from an empty token sequence")
    if n <= target:
        return tokens, 0
    import random  # here, so commands that sample nothing never load it

    offset = random.Random(seed).randint(0, n - target)
    return tokens[offset : offset + target], offset


def mean_word_length(counts: Counter[str], script_scale: float = 1.0) -> float:
    """Mean grapheme clusters per token in ``counts``, times ``script_scale``.

    The scale compensates for logographic scripts: with the four types
    wo, men, ta, wo-men of written lengths (1, 1, 1, 2) and romanized
    lengths (2, 2, 3, 5), a scale of (2+2+3+5)/(1+1+1+2) = 2.4 maps the
    observed mean 1.25 onto the romanized mean 3.0. Scaling the mean is
    equivalent to scaling each length by the same constant.

    Each type is measured once and weighted by its count. Where every
    cluster is one non-mark plus the marks after it, a type's length is
    its count of non-marks, so one pass deletes the marks of all the
    types joined by line breaks and reads each line's length. That holds
    when the types hold no trigger (see `_patterns`), no virama, across
    which a conjunct such as क्ष is one cluster of two bases, no empty
    type and no line break of their own; any other window sums
    `grapheme_length` over its types. Both give the same total.
    """
    _require(
        math.isfinite(script_scale) and script_scale > 0,
        f"script_scale must be a finite positive number, got {script_scale!r}",
    )
    _require(bool(counts), "mean_word_length requires a non-empty token sequence")
    p = _patterns()
    joined = "\n".join(counts)
    if (
        "" not in counts
        and joined.count("\n") == len(counts) - 1
        and not p.virama.search(joined)
        and not _has_trigger(joined)
    ):
        lengths = map(len, p.mark.sub("", joined).split("\n"))
        total = sum(map(operator.mul, lengths, counts.values()))
    else:
        total = sum(n * grapheme_length(t) for t, n in counts.items())
    return total / counts.total() * script_scale


def type_token_ratio(counts: Counter[str]) -> float:
    """Distinct tokens divided by total tokens in ``counts``, in (0, 1].

    Types are compared by exact string equality; the tokenizer's NFC
    normalization makes canonically equivalent spellings compare equal.
    """
    _require(bool(counts), "type_token_ratio requires a non-empty token sequence")
    return len(counts) / counts.total()


def unigram_entropy(counts: Counter[str]) -> float:
    """Shannon entropy (bits) of a window's token ``counts``.

    H = -sum(p_i * log2(p_i)) with p_i = count_i / N. Ranges from 0 (one
    repeated token) to log2(N) (all tokens distinct).
    """
    _require(bool(counts), "unigram_entropy requires a non-empty token sequence")
    n = counts.total()
    ps = [c / n for c in counts.values()]
    return -math.fsum([p * math.log2(p) for p in ps])


def profile(
    corpus: CorpusSource,
    script_scale: float = 1.0,
    target: int = 10000,
    seed: int = 0,
) -> TextProfile:
    """Tokenize, sample, and measure one corpus.

    Tokenizes ``corpus.text``, draws a seeded contiguous sample of up to
    ``target`` tokens, and computes mean word length (scaled by
    ``script_scale``, the language's registry value), type-token ratio,
    and unigram entropy on that same sample. The profile carries
    ``corpus.iso``, the seed and the sample offset, so it can be
    recomputed exactly.

    Raises
    ------
    ValueError
        If the corpus tokenizes to zero tokens ("no lexical tokens").
    """
    toks = tokenize(corpus.text)
    if len(toks) == 0:
        raise ValueError(f"no lexical tokens in corpus for {corpus.iso!r}")
    sample, offset = sample_contiguous(toks, target, seed)
    counts = Counter(sample)
    return TextProfile(
        iso=corpus.iso,
        mean_word_length=mean_word_length(counts, script_scale),
        ttr=type_token_ratio(counts),
        unigram_entropy=unigram_entropy(counts),
        token_count=len(sample),
        sample_offset=offset,
        seed=seed,
    )
