"""Text-derived language features.

Tokenization, grapheme-cluster word lengths, seeded contiguous sampling,
mean word length with logographic scaling, type-token ratio, and unigram
entropy. All functions are pure; file loading lives in ingest.
`tokenize` returns a plain tuple of str and `sample_contiguous` a slice
of it; `profile` gives the same window without that tuple, reading it
off the tokens of each distinct chunk, and the three measures read one
`Counter` of the window's tokens.

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

`tokenize` alone decodes and NFC-normalizes text. Most text is
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
depends on one item alone is done once per distinct item: decoding (the
text is split into chunks as UTF-8 bytes), NFC, the trigger test and the
separator pattern run once per distinct whitespace-delimited chunk (NFC
never acts across whitespace, and no token spans it); the trigger code
points are looked for among the distinct code points. `profile` counts
a corpus's tokens per chunk occurrence and expands only the chunks that
cover its window. A window's word lengths take one pass over its types:
where they hold no trigger and no virama, a type's clusters are its
non-marks, counted by deleting the marks (`mean_word_length`); the
trigger test runs once per corpus, not again on its window.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import unicodedata
from collections import Counter, defaultdict, namedtuple
from itertools import chain, count, islice

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

# where bytes.split() splits: in a bytes pattern the standard library's
# \s is the six ASCII whitespace bytes
_ASCII_WHITESPACE = re.compile(rb"\s")
#: Bytes `tokenize` splits into chunks at a time.
_BLOCK_BYTES = 1 << 18
#: Distinct chunks decoded and tokenized at a time, and chunk occurrences
#: `profile` counts the tokens of at a time.
_BATCH_CHUNKS = 1 << 12

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


def _has_trigger(*texts: str) -> bool:
    """Whether any of ``texts`` holds a trigger: a special code point,
    looked for among their distinct code points, or a stray mark. A mark
    that starts a text or follows a line break is stray."""
    p = _patterns()
    special = p.special.search("".join(set().union(*texts)))
    return bool(special or any(map(p.stray_mark.search, texts)))


def tokenize(text: str | bytes) -> tuple[str, ...]:
    """Split text into lexical tokens of its NFC normal form.

    The one place that decodes and normalizes text: the tokens are those
    of ``unicodedata.normalize("NFC", text)``, ``bytes`` decoded strictly
    as UTF-8 first, so canonically equivalent spellings give equal
    tokens. A str is encoded to UTF-8 and tokenized as its bytes. The
    tokens are those of each chunk occurrence in turn (`_chunk_tokens`),
    and each occurrence of a chunk shares that chunk's token objects, so
    the tuple takes memory for the distinct chunks and a reference per
    token.

    Parameters
    ----------
    text : str or bytes
        Input text, in any normalization form; ``bytes`` hold it in
        UTF-8, as ``ingest.load_corpus`` reads a corpus file.

    Returns
    -------
    tuple of str
        Tokens in original order, punctuation-only material removed,
        each holding an alphanumeric character. Empty input yields an
        empty tuple.

    Raises
    ------
    UnicodeError
        If ``text`` is bytes that are not valid UTF-8
        (``UnicodeDecodeError``), or a str with a lone surrogate, which
        UTF-8 cannot encode (``UnicodeEncodeError``).
    """
    lines, chunks, _ = _chunk_tokens(text)
    return tuple(chain.from_iterable(map(lines.__getitem__, chunks)))


def _chunk_tokens(text: str | bytes) -> tuple[list, list[int], bool]:
    """``(lines, chunks, trigger_free)``: the tokens of each distinct chunk
    of ``text``, the chunk number of each chunk occurrence, and whether the
    text holds no trigger.

    The tokens of the text are ``lines[k]`` for each ``k`` in ``chunks``,
    in turn. Natural text repeats its words, so the bytes are
    split into chunks at ASCII whitespace as they come, and decoding, NFC
    and the token rule run once per distinct chunk, over batches of
    distinct chunks joined by line breaks: NFC never acts across
    whitespace, and no token spans it. A chunk may keep other whitespace
    (U+3000, U+0085, ...), where the separator pass splits it. No ASCII
    byte sits inside a multi-byte UTF-8 sequence, so the text is valid
    UTF-8 exactly when its distinct chunks are; where they are not, the
    whole text is decoded, so the error counts the bad byte's position in
    it. Without a trigger, one pass replaces each chunk's separator runs
    with spaces, leaving a line of space-separated tokens per chunk, a
    tuple in ``lines``; the chunks are freed before any token is made.
    With a trigger, the whole text is decoded, normalized and tokenized
    by the cluster pass (`_tokenize_clusters`), and its token list is the
    one chunk, numbered 0.
    """
    p = _patterns()
    if isinstance(text, str):
        text = text.encode()
    # each chunk occurrence becomes its chunk's number, counted from 0
    # in order of first sight; the first of equal chunks is kept, as a
    # key, until the keys are joined
    numbers: defaultdict[bytes, int] = defaultdict(count().__next__)
    chunks: list[int] = []
    for block in _blocks(text):
        chunks += map(numbers.__getitem__, block.split())
    # the distinct chunks in batches, each joined by line breaks, decoded
    # and normalized: a batch at a time, since bytes.join holds a buffer
    # record per item and decoding most scripts first holds 2 bytes a byte
    keys = iter(numbers)
    try:
        batches = [
            unicodedata.normalize("NFC", b"\n".join(islice(keys, _BATCH_CHUNKS)).decode())
            for _ in range(0, len(numbers), _BATCH_CHUNKS)
        ]
    except UnicodeDecodeError:
        text.decode()  # fails too, at the bad byte's position in the whole text
        raise
    del numbers, keys
    # a mark that starts a chunk follows a line break or starts a batch,
    # so it is still stray
    if _has_trigger(*batches):
        del chunks, batches
        return [_tokenize_clusters(unicodedata.normalize("NFC", text.decode()))], [0], False
    # a line per distinct chunk, its tokens with spaces between; a batch
    # of lines at a time, since `sub` holds a string per piece between
    # separators until it joins them
    lines: list[tuple[str, ...]] = []
    for batch in batches:
        lines += map(tuple, map(str.split, p.separator.sub(" ", batch).split("\n")))
    return lines, chunks, True


def _blocks(text: bytes):
    """``text`` in pieces of about ``_BLOCK_BYTES`` bytes, cut at an ASCII
    whitespace byte that neither piece keeps, so that no chunk spans two
    pieces."""
    start = 0
    while start < len(text):
        cut = _ASCII_WHITESPACE.search(text, start + _BLOCK_BYTES)
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
    offset = _window_offset(len(tokens), target, seed)
    return tokens[offset : offset + target], offset


def _window_offset(n: int, target: int, seed: int) -> int:
    """Start of the window of up to ``target`` of ``n`` tokens: 0 when
    ``n <= target``, else drawn uniformly from [0, n - target] by an RNG
    seeded by ``seed``."""
    _require(target >= 1, f"sample target must be >= 1, got {target}")
    _require(n > 0, "cannot sample from an empty token sequence")
    if n <= target:
        return 0
    import random  # here, so commands that sample nothing never load it

    return random.Random(seed).randint(0, n - target)


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
    return _mean_word_length(counts, script_scale, trigger_free=False)


def _mean_word_length(counts: Counter[str], script_scale: float, trigger_free: bool) -> float:
    """`mean_word_length`, without looking for a trigger in the types
    where ``trigger_free`` says they hold none."""
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
        and (trigger_free or not _has_trigger(joined))
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
    recomputed exactly: the sample is ``sample_contiguous(tokenize(
    corpus.text), target, seed)``.

    `_chunk_tokens` gives the tokens of each distinct chunk and a chunk
    number per chunk occurrence; the token count N is summed over the
    chunk numbers, and only the chunks that cover the window are read for
    its tokens. So where the text holds no trigger, the profile holds the
    corpus's bytes, the distinct chunks' tokens, 8 bytes per chunk
    occurrence and the window's counts, not a reference per token, and
    the window's types are not looked at for a trigger again.

    Raises
    ------
    ValueError
        If the corpus tokenizes to zero tokens ("no lexical tokens").
    """
    lines, chunks, trigger_free = _chunk_tokens(corpus.text)
    # tokens per block of chunk occurrences: they sum to N, and the window
    # starts in the first block that ends past its offset
    sizes = list(map(len, lines))
    blocks = [
        sum(map(sizes.__getitem__, chunks[i : i + _BATCH_CHUNKS]))
        for i in range(0, len(chunks), _BATCH_CHUNKS)
    ]
    n = sum(blocks)
    if n == 0:
        raise ValueError(f"no lexical tokens in corpus for {corpus.iso!r}")
    offset = _window_offset(n, target, seed)
    first, skip = 0, offset
    for size in blocks:
        if skip < size:
            break
        first += _BATCH_CHUNKS
        skip -= size
    tokens = chain.from_iterable(map(lines.__getitem__, islice(chunks, first, None)))
    counts = Counter(islice(tokens, skip, skip + target))
    return TextProfile(
        iso=corpus.iso,
        mean_word_length=_mean_word_length(counts, script_scale, trigger_free),
        ttr=type_token_ratio(counts),
        unigram_entropy=unigram_entropy(counts),
        token_count=min(n, target),
        sample_offset=offset,
        seed=seed,
    )
