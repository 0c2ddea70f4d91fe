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

Most text is tokenized by one compiled pattern: where every grapheme
cluster is a base code point plus its marks, a token is a run of
letters, marks and digits, joined across single connectors. A text that
holds any code point whose cluster that pattern cannot know (Prepend,
ZWJ, Hangul jamo, regional indicators, non-mark extenders, a mark after
non-word material) is tokenized whole by the cluster-by-cluster loop
instead. Both give the same tokens. Every Unicode property, the digit
test included, comes from `regex`'s tables, so the tokens depend on the
installed `regex` version's Unicode data but not on the Python version.
`regex` is imported, and every pattern compiled, on first use, so a
command that reads no text loads neither.

Natural text repeats its code points and tokens, so work that depends
on one item alone is done once per distinct item: the trigger code
points are looked for among the text's distinct code points, with one
scan over the text for a mark after non-word material; tokens are
checked for alphanumeric content, and measured in graphemes, once per
type.
"""
from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple

from .ingest import CorpusSource
from .model import ISO_CODE_RE, LanguageRecord, TextProfile, _Immutable, _pairwise_sum, _require

# Connector punctuation, single code point each. "Letter" connectors join
# letter-kind neighbors, "numeric" connectors join digit-kind neighbors,
# and the "both" set (apostrophes and full stops) joins either kind as
# long as the two neighbors match each other.
_MID_LETTER = frozenset(":··՟״‧︓﹕：")
_MID_NUMERIC = frozenset(",;;٫٬﹐﹔，；")
_MID_BOTH = frozenset("'.’․﹒＇．")

_WS, _WORD, _PUNCT = 0, 1, 2

#: The tokenizer's compiled patterns, built by :func:`_patterns`.
_Patterns = namedtuple(
    "_Patterns", "token special stray_mark grapheme alnum no_alnum_line digit"
)


class TokenSequence(_Immutable):
    """Ordered tokens for one language: an iso code and a tuple of tokens.

    May be empty (callers decide whether that is fatal), but every token
    present must contain at least one alphanumeric character.
    """

    __slots__ = ("iso", "tokens")

    def __init__(self, iso: str, tokens) -> None:
        _require(
            bool(ISO_CODE_RE.match(iso)),
            f"iso must be exactly three ASCII lowercase letters, got {iso!r}",
        )
        toks = tuple(tokens)
        p = _patterns()
        # one scan over the distinct tokens, a line each; a token that
        # holds a line break may raise a false alarm, which the scan in
        # sequence order settles
        if p.no_alnum_line.search("\n".join(set(toks))):
            bad = next((t for t in toks if not p.alnum.search(t)), None)
            _require(bad is None, f"every token must contain an alphanumeric character, got {bad!r}")
        object.__setattr__(self, "iso", iso)
        object.__setattr__(self, "tokens", toks)

    def __len__(self) -> int:
        return len(self.tokens)


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

    The fast path's patterns are the token, special and stray-mark ones.
    A code point is plain when its cluster is known without segmenting:
    a non-mark that starts a new cluster (CR LF aside, which only joins
    whitespace), or a mark that extends the cluster before it. Any other
    code point is special. A special code point is a trigger, and so is
    a mark after anything but word material (a stray mark), which glues
    onto a non-word base. Being special is a property of the code point
    alone, so `tokenize` looks for one among the text's distinct code
    points; only the stray mark needs its context, and a scan over the
    whole text. In text without triggers every cluster is one base plus
    its marks, so a token is a run of word code points joined across a
    single connector, and the kind of the cluster before the connector
    is its base's: the last non-mark.
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
    # the run's class goes first, and each connector's char before its
    # kind test: trying the lookarounds at every position is slower
    connector = (
        rf"(?:{letter}(?<!\p{{Nd}}\p{{M}}*.)(?=\p{{L}})"
        rf"|{numeric}(?<=\p{{Nd}}\p{{M}}*.)(?=\p{{Nd}}))"
    )
    return _Patterns(
        token=regex.compile(rf"{word}+(?:{connector}{word}+)*"),
        special=regex.compile(rf"(?V1){special}"),
        stray_mark=regex.compile(rf"(?<!{word})\p{{M}}"),
        grapheme=regex.compile(r"\X"),
        alnum=regex.compile(word),
        no_alnum_line=regex.compile(r"(?m)^[^\p{L}\p{M}\p{Nd}\n]*$"),
        digit=regex.compile(r"\p{Nd}"),
    )


def tokenize(text: str, iso: str = "und") -> TokenSequence:
    """Split NFC-normalized text into lexical tokens.

    Parameters
    ----------
    text : str
        Input text. Callers should normalize to NFC first (ingestion
        does); this function does not re-normalize.
    iso : str, optional
        Language code carried on the resulting sequence. Defaults to
        "und" (undetermined) for anonymous text.

    Returns
    -------
    TokenSequence
        Tokens in original order, punctuation-only material removed.
        Empty input yields an empty sequence.
    """
    p = _patterns()
    if p.special.search("".join(set(text))) is None and p.stray_mark.search(text) is None:
        return TokenSequence(iso, p.token.findall(text))
    return TokenSequence(iso, _tokenize_clusters(text))


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
    window = TokenSequence(tokens.iso, tokens.tokens[offset : offset + target])
    return window, offset


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

    Types are compared by exact string equality; ingestion's NFC
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
    return -_pairwise_sum([p * math.log2(p) for p in ps])


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
