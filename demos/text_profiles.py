"""Profile a handful of synthetic corpora and compare their statistics.

Builds three tiny corpora in memory (no files involved): an analytic
language with short words, a synthetic one with long inflected words,
and a logographic one where word length is counted in grapheme clusters
and rescaled. Prints the mean word length, type-token ratio, and
unigram entropy for each.
"""

import random

from divscore.ingest import CorpusSource
from divscore.textstats import grapheme_length, profile, tokenize

ANALYTIC_STEMS = ["ta", "ko", "ni", "sae", "lum", "po", "ki", "da", "mo", "ren"]
AFFIXES = ["ssa", "lle", "sta", "ksi", "nne", "mme", "kin", "han"]
HAN_WORDS = ["我們", "今天", "出發", "學校", "朋友", "時間", "工作", "喜歡"]


def build_text(rng: random.Random, words: list[str], n: int) -> str:
    lines = []
    for _ in range(n // 10):
        lines.append(" ".join(rng.choice(words) for _ in range(10)))
    return "\n".join(lines)


def main() -> None:
    rng = random.Random(7)

    # heavy suffix stacking: every token is stem + 2-3 affixes
    agglut_words = [
        s + a + b
        for s in ANALYTIC_STEMS
        for a in AFFIXES
        for b in ("", rng.choice(AFFIXES))
    ]

    # analytic, agglutinative and logographic, with their script scales
    corpora = [
        ("qan", build_text(rng, ANALYTIC_STEMS, 600), 1.0),
        ("qag", build_text(rng, agglut_words, 600), 1.0),
        ("qlo", build_text(rng, HAN_WORDS, 600), 2.4),
    ]

    print("iso    mwl     ttr    entropy  tokens")
    for iso, text, scale in corpora:
        source = CorpusSource(iso, text)
        p = profile(source, scale, target=500, seed=0)
        print(
            f"{p.iso}  {p.mean_word_length:6.3f}  {p.ttr:6.3f}"
            f"  {p.unigram_entropy:7.3f}  {p.token_count:6d}"
        )

    print()
    print("notes:")
    print("  - the logographic corpus is measured in grapheme clusters,")
    seq = tokenize("我們")
    tok = seq[0]
    print(f"    e.g. {tok!r} is one token of {grapheme_length(tok)} clusters,")
    print("    then multiplied by its script_scale of 2.4")
    print("  - profiles record the sampling window (offset, seed), so a")
    print("    rerun with the same seed reproduces them exactly")


if __name__ == "__main__":
    main()
