"""Seeded input generator for the benchmark, with ground truth.

Every file is a pure function of the seed: the same seed writes
byte-identical corpora, registries, profile tables and feature matrices.
The generator builds each corpus token by token from known grapheme
clusters and separates tokens unambiguously (whitespace always follows
separator punctuation), so it knows each corpus's exact token count and
the grapheme length of every token the tokenizer will emit. It also
knows each binary matrix's per-feature counts.

Only the standard library is used, so the ground truth stays independent
of the package under test.
"""
from __future__ import annotations

import csv
import itertools
import json
import random
import string
from statistics import NormalDist
from dataclasses import dataclass, field
from pathlib import Path

# Grapheme material by kind. Combining marks are written decomposed
# (NFD); ingestion composes what it can, and either way a base letter
# with its marks is one grapheme cluster.
_LATIN_1B = string.ascii_lowercase
_LATIN_2B = "äöüßéñ"
_MARKS = [chr(c) for c in range(0x0300, 0x0315)]
_HAN = [chr(c) for c in range(0x4E00, 0x4E00 + 2000)]
_DIGITS = string.digits
_APOSTROPHES = ("'", "’")
# Separators between tokens. Punctuation is always followed by
# whitespace, so it never joins the tokens on either side.
_SEPARATORS = (" ", "\n", ", ", ". ", "; ", " — ", "! ")
_SEP_WEIGHTS = (70, 8, 8, 6, 3, 3, 2)

@dataclass
class CorpusTruth:
    """What the generator knows about one corpus file."""

    iso: str
    script_scale: float
    glens: list[int]  # grapheme length of every token, in order
    bytes: int

    @property
    def tokens(self) -> int:
        return len(self.glens)

    @property
    def grapheme_sum(self) -> int:
        return sum(self.glens)

    def expected_profile(self, target: int, seed: int) -> dict:
        """Window offset, size and mean word length the tokenizer and the
        seeded sampler must produce (offset drawn as the README says)."""
        n = self.tokens
        if n <= target:
            offset, count = 0, n
        else:
            offset, count = random.Random(seed).randint(0, n - target), target
        total = sum(self.glens[offset : offset + count])
        return {
            "offset": offset,
            "token_count": count,
            "mwl": total / count * self.script_scale,
        }


@dataclass
class MatrixTruth:
    """Per-feature counts of ones in a generated binary matrix."""

    languages: list[str]
    features: list[str]
    ones: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.languages)


def iso_codes(rng: random.Random, k: int) -> list[str]:
    """k distinct three-letter codes, sorted."""
    picks = rng.sample(range(26**3), k)
    letters = string.ascii_lowercase
    return sorted(letters[p // 676] + letters[p // 26 % 26] + letters[p % 26] for p in picks)


def _token(rng: random.Random, kind: str, length: int, rank: int) -> str:
    """One token of ``length`` grapheme clusters. Its byte layout (which
    letters are two-byte, how many marks, where connectors go) depends
    only on ``rank``; ``rng`` picks the characters."""
    shape = [(rank + i) % 8 for i in range(length)]
    if kind == "latin":
        return "".join(rng.choice(_LATIN_2B if k == 0 else _LATIN_1B) for k in shape)
    if kind == "nfd":
        # 1 to 2 marks on the first letter, 0 to 2 on the rest
        marks = [1 + k % 2 if i == 0 else k % 3 for i, k in enumerate(shape)]
        return "".join(rng.choice(_LATIN_1B) + "".join(rng.sample(_MARKS, m)) for m in marks)
    if kind == "han":
        return "".join(rng.choice(_HAN) for _ in shape)
    if kind == "numeric":
        # digit groups joined by single ',' or '.' connectors, never at
        # either end and never two in a row
        out = []
        for i, k in enumerate(shape):
            joins = 0 < i < length - 1 and k % 4 == 3 and out[-1] in _DIGITS
            out.append(rng.choice(",.") if joins else rng.choice(_DIGITS))
        return "".join(out)
    # apostrophe: letters, one apostrophe, letters
    length = max(length, 3)
    cut = 1 + rank % (length - 2)
    letters = [rng.choice(_LATIN_1B) for _ in range(length - 1)]
    return "".join(letters[:cut]) + _APOSTROPHES[rank % 2] + "".join(letters[cut:])


def _glen(kind: str, length: int) -> int:
    return max(length, 3) if kind == "apostrophe" else length


def _kinds(mix: dict[str, float], k: int) -> list[str]:
    """k kinds in the proportions of ``mix``, interleaved by rank."""
    total = sum(mix.values())
    out, acc = [], {kind: 0.0 for kind in mix}
    for _ in range(k):
        for kind, w in mix.items():
            acc[kind] += w / total
        kind = max(acc, key=acc.get)
        acc[kind] -= 1.0
        out.append(kind)
    return out


def write_corpus(
    path: Path,
    rng: random.Random,
    iso: str,
    n_tokens: int,
    mean_len: float,
    mix: dict[str, float],
    script_scale: float = 1.0,
    vocab_size: int = 3000,
) -> CorpusTruth:
    """Write one corpus of exactly ``n_tokens`` tokens drawn from a
    Zipf-weighted vocabulary; return its ground truth.

    Each vocabulary rank's kind and length are fixed by the mix and mean
    (lengths follow a normal quantile sequence), so every seed gives the
    same distribution of token shapes and nearly the same bytes; the seed
    picks the characters and the token order.
    """
    lengths = NormalDist(mean_len, mean_len / 3)
    vocab, vlen = [], []
    for rank, kind in enumerate(_kinds(mix, vocab_size)):
        u = (rank * 0.6180339887 + 0.5) % 1.0
        length = max(1, min(24, round(lengths.inv_cdf(u))))
        vocab.append(_token(rng, kind, length, rank))
        vlen.append(_glen(kind, length))
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab_size)))
    picks = rng.choices(range(vocab_size), cum_weights=cum, k=n_tokens)
    seps = rng.choices(_SEPARATORS, weights=_SEP_WEIGHTS, k=n_tokens)
    seps[-1] = "\n"
    text = "".join(vocab[i] + s for i, s in zip(picks, seps))
    data = text.encode("utf-8")
    path.write_bytes(data)
    return CorpusTruth(
        iso=iso,
        script_scale=script_scale,
        glens=[vlen[i] for i in picks],
        bytes=len(data),
    )


def write_corpora(
    directory: Path,
    rng: random.Random,
    isos: list[str],
    sizes: list[int],
    mean_lens: list[float],
    mixes: list[dict[str, float]],
    scales: dict[str, float],
) -> dict[str, CorpusTruth]:
    """Write one corpus per language, and record each corpus's token
    count and grapheme-length sum beside the directory."""
    directory.mkdir(parents=True, exist_ok=True)
    truths = {
        iso: write_corpus(
            directory / f"{iso}.txt", rng, iso, n, m, mix, scales.get(iso, 1.0)
        )
        for iso, n, m, mix in zip(isos, sizes, mean_lens, mixes)
    }
    record = {
        iso: {"tokens": t.tokens, "grapheme_sum": t.grapheme_sum, "bytes": t.bytes, "script_scale": t.script_scale}
        for iso, t in truths.items()
    }
    _record(directory.with_name(f"truth_{directory.name}.json"), record)
    return truths


def _record(path: Path, truth: dict) -> None:
    path.write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def write_registry(
    path: Path,
    rng: random.Random,
    isos: list[str],
    scales: dict[str, float],
    n_families: int = 8,
) -> dict[str, str | None]:
    """Registry CSV; every tenth language has no family. Returns iso -> family."""
    families = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", "name", "family", "endangerment", "script_scale"])
        for i, iso in enumerate(isos):
            fam = None if i % 10 == 9 else f"Family{rng.randrange(n_families):02d}"
            families[iso] = fam
            scale = repr(scales[iso]) if iso in scales else ""
            w.writerow([iso, f"Language {iso.upper()}", fam or "", "", scale])
    return families


def write_profile_table(path: Path, rng: random.Random, isos: list[str], lo: float, hi: float, skew: float) -> None:
    """Profile table CSV in the ``profile --format csv`` layout, with mean
    word lengths in [lo, hi). ``skew`` > 1 crowds them toward ``lo``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"])
        for iso in isos:
            mwl = lo + (hi - lo) * rng.random() ** skew
            w.writerow(
                [iso, mwl, rng.uniform(0.05, 1.0), rng.uniform(4.0, 13.0), 10000, rng.randrange(90000), 0]
            )


def write_binary_matrix(path: Path, rng: random.Random, isos: list[str], features: list[str], rates: list[float]) -> MatrixTruth:
    truth = MatrixTruth(languages=list(isos), features=list(features), ones=[0] * len(features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", *features])
        for iso in isos:
            row = [1 if rng.random() < p else 0 for p in rates]
            for j, v in enumerate(row):
                truth.ones[j] += v
            w.writerow([iso, *row])
    _record(path.with_name(f"truth_{path.stem}.json"), {"languages": truth.n, "ones": dict(zip(features, truth.ones))})
    return truth


def write_morph_values(path: Path, rng: random.Random, isos: list[str], ranges: list[tuple[str, int, int]]) -> dict[str, list[int]]:
    """Final-valued morphology matrix over the given (chapter, min, max)."""
    rows = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", *(c for c, _, _ in ranges)])
        for iso in isos:
            rows[iso] = [rng.randint(lo, hi) for _, lo, hi in ranges]
            w.writerow([iso, *rows[iso]])
    return rows


def write_numeric_table(path: Path, rng: random.Random, isos: list[str]) -> dict[str, tuple[float, float]]:
    """Table with a name column and two correlated numeric columns."""
    rows = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", "name", "mwl", "c_wals"])
        for iso in isos:
            x = round(rng.uniform(3.0, 9.0), 2)
            y = round(0.05 * x + rng.uniform(0.0, 0.4), 2)
            rows[iso] = (x, y)
            w.writerow([iso, f"Language {iso.upper()}", x, y])
    return rows
