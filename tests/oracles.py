"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions using only
the standard library: Counter histograms, exact decimal floor binning,
plain min/max sums, and textbook entropy formulas. Nothing imports
divscore.
"""
import math
from collections import Counter
from fractions import Fraction


def exact_bin(v, width):
    """Bin k with k*width <= v < (k+1)*width, reading v and width as the
    decimals they print as."""
    return math.floor(Fraction(repr(v)) / Fraction(repr(width)))


def brute_jmm(dataset, reference, width):
    """Minmax Jaccard of two measurement lists, from first principles.

    Bin each side with exact_bin(v, width), multiply every count of the
    smaller side by max(n, m) / min(n, m), then sum min and max over the
    union of occupied bins. Bins where one side is absent contribute 0
    to the min sum and the other side's weight to the max sum, so the
    union (not a contiguous range) is enough here.
    """
    bins_d = Counter(exact_bin(v, width) for v in dataset)
    bins_r = Counter(exact_bin(v, width) for v in reference)
    c = max(len(dataset), len(reference)) / min(len(dataset), len(reference))
    wd = {k: float(n) for k, n in bins_d.items()}
    wr = {k: float(n) for k, n in bins_r.items()}
    if len(dataset) < len(reference):
        wd = {k: v * c for k, v in wd.items()}
    elif len(reference) < len(dataset):
        wr = {k: v * c for k, v in wr.items()}
    num = den = 0.0
    for k in set(wd) | set(wr):
        a, b = wd.get(k, 0.0), wr.get(k, 0.0)
        num += min(a, b)
        den += max(a, b)
    return num / den


def bent(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def brute_ti_morph(values, width):
    """Mean binary entropy of bin occupancy over occupied bins."""
    bins = Counter(exact_bin(v, width) for v in values)
    ents = [bent(n / len(values)) for n in bins.values()]
    return sum(ents) / len(ents)


def brute_ti_syn(rows):
    """Mean binary entropy over columns of a 0/1 matrix given as rows."""
    n = len(rows)
    width = len(rows[0])
    ents = []
    for j in range(width):
        ones = sum(row[j] for row in rows)
        ents.append(bent(ones / n))
    return sum(ents) / len(ents)


def brute_entropy(tokens):
    """Shannon entropy in bits of a token list's empirical distribution."""
    counts = Counter(tokens)
    n = len(tokens)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())
