"""The scoring core.

Two families of diversity scores over language features:

* Minmax Jaccard: count both data sets over one table of rows, multiply
  every count of the smaller set by the size ratio
  c = max(|A|,|B|) / min(|A|,|B|) so that set size does not masquerade
  as diversity, and score sum_j min(a_j, b_j) / sum_j max(a_j, b_j). 1
  means the distributions coincide after size normalization, 0 disjoint
  support. Each side's measurements are binned once, by
  :func:`bin_measurements`; the rows are the bins occupied on either
  side, labelled ``bin<k>`` (a bin empty on both sides would add 0 to
  both sums). For binary syntactic features the rows are the features, or
  ``<feature>=1`` and ``<feature>=0``. A side is one
  :class:`~divscore.model.Side`: its counts, and its languages' cells with
  the rule that reads each cell as the key of a row that counts it, which
  ``analysis.attach_gap`` reads for the gap report's examples.

* Typological index: mean Shannon entropy (base 2) of feature-value
  distributions across the languages of one set. For binary syntactic
  features each feature contributes the entropy of its fraction of 1s;
  for binned measurements each occupied bin is treated as a binary
  in-this-bin feature.

The score is the exact ratio of the scaled counts, rounded once by an
int division (``DiversityReport.value``), so it does not depend on the
order of the rows. The typological index sums with ``math.fsum``.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Sequence

from .model import DiversityReport, FeatureMatrix, Side, _require

_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max
#: A float quotient farther than |q| * 2**-40 from every integer has the
#: same floor as the decimal quotient: printing each operand as its
#: shortest decimal and dividing in floats err by a few 2**-53 of |q|.
_NEAR_INTEGER = 2.0**-40


def bin_index(value: float, width: float) -> int:
    """Index k of the half-open bin [k*width, (k+1)*width) holding ``value``.

    ``value`` and ``width`` are read as the decimals they print as
    (``repr``), which is also what CSV and JSON show, so 0.3 at width 0.1
    lands in bin 3 and a value on a boundary belongs to the upper bin.
    The float quotient decides whenever it is clearly away from an
    integer; near an integer, or when a subnormal, zero or infinite
    operand makes the quotient unreliable, the decimal floor decides.
    """
    if width >= _MIN_NORMAL and abs(value) >= _MIN_NORMAL:
        q = value / width
        if _MIN_NORMAL <= abs(q) <= _MAX_FLOAT:
            k = math.floor(q)
            tol = abs(q) * _NEAR_INTEGER
            if q - k > tol and k + 1 - q > tol:
                return k
    _require(math.isfinite(value), f"cannot bin non-finite value {value}")
    _require(
        math.isfinite(width) and width > 0,
        f"bin width must be a finite positive number, got {width}",
    )
    from fractions import Fraction  # imported here: most commands never take this path

    return Fraction(repr(float(value))) // Fraction(repr(float(width)))


def bin_measurements(values: Sequence[float], width: float) -> list[int]:
    """Each value's :func:`bin_index`, in input order: a binned side, which
    the caller makes once per side and hands to :func:`jmm_score`,
    :func:`ti_morph` and, as each language's row, ``analysis.attach_gap``."""
    _require(len(values) > 0, "bin_measurements requires at least one value")
    return [bin_index(v, width) for v in values]


def jmm_score(dataset: Sequence[int], reference: Sequence[int]) -> DiversityReport:
    """Minmax Jaccard between two binned sides of :func:`bin_measurements`.

    Counts each side over the sorted union of the bins occupied on either
    side, however far apart they lie; a bin occupied on one side only
    gets count 0 on the other. The rows are keyed ``bin<k>``, and each
    language's one cell is its bin's position among them.
    """
    counts_d, counts_r = Counter(dataset), Counter(reference)
    axis = sorted({*counts_d, *counts_r})
    keys = tuple(map("bin{}".format, axis))
    cell_of = {k: (i,) for i, k in enumerate(axis)}
    side_d = Side(keys, [counts_d[k] for k in axis], map(cell_of.__getitem__, dataset), [keys])
    side_r = Side(keys, [counts_r[k] for k in axis], map(cell_of.__getitem__, reference), [keys])
    return DiversityReport("jmm_morph", side_d, side_r)


def feature_side(matrix: FeatureMatrix, count_zeros: bool = False) -> Side:
    """The side of a binary feature matrix: each language's cells are its
    byte row, and its feature's rule reads each cell as a row key.

    Default: one row per feature, counting the languages showing value 1
    (all-zero features keep their row at count 0); a 0 cell counts in no
    row. With ``count_zeros`` every feature contributes two rows,
    ``<feature>=1`` and ``<feature>=0``, counting both values separately;
    the counts then total languages x features.

    A matrix containing no 1s at all has nothing to compare in the
    default mode and is rejected.
    """
    n, values = matrix.n_languages, (1, 0) if count_zeros else (1,)
    key_of = [(f"{f}=0", f"{f}=1") if count_zeros else (None, f) for f in matrix.features]
    keys = [rule[v] for rule in key_of for v in values]
    counts = [t if v else n - t for t in matrix.totals for v in values]
    _require(any(counts), "syntactic weights need positive total weight")
    return Side(keys, counts, matrix.values, key_of)


def jmm_syn(
    dataset: FeatureMatrix, reference: FeatureMatrix, count_zeros: bool = False
) -> DiversityReport:
    """Minmax Jaccard over binary syntactic feature counts.

    Builds the :func:`feature_side` of ``dataset``, then of ``reference``,
    with ``count_zeros``; an error there names its matrix in its ``sides``
    attribute, ``("dataset",)`` or ``("reference",)``. Both matrices must
    then list identical features in identical order. The smaller set's
    counts are scaled by the language-count ratio before scoring, so a dataset
    whose every count is exactly half the reference's with half as many
    languages scores 1.0.
    """
    sides = {}
    for name, matrix in (("dataset", dataset), ("reference", reference)):
        try:
            sides[name] = feature_side(matrix, count_zeros)
        except ValueError as exc:
            exc.sides = (name,)
            raise
    if dataset.features != reference.features:
        for j, (fd, fr) in enumerate(zip(dataset.features, reference.features)):
            if fd != fr:
                raise ValueError(f"feature lists differ at column {j}: {fd!r} vs {fr!r}")
        lengths = f"{len(dataset.features)} vs {len(reference.features)}"
        raise ValueError(f"feature lists differ in length: {lengths}")
    return DiversityReport("jmm_syn", **sides)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits, with 0*log2(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _ti(n: int, counts: Iterable[int]) -> float:
    """Mean binary entropy of count / n over ``counts``."""
    entropies = [binary_entropy(t / n) for t in counts]
    return math.fsum(entropies) / len(entropies)


def ti_syn(matrix: FeatureMatrix) -> float:
    """Mean binary entropy of per-feature value distributions, in [0, 1].

    1.0 when every feature splits the languages evenly, 0.0 when every
    feature is constant. Each feature's count of 1s enters once, whether
    the score counts 103 or 206 rows. Needs at least 2 languages; with
    one language every feature is trivially constant and the index is
    meaningless.
    """
    n = matrix.n_languages
    _require(n >= 2, f"ti_syn needs at least 2 languages, got {n}")
    return _ti(n, matrix.totals)


def ti_morph(bins: Sequence[int]) -> float:
    """Mean binary entropy of bin membership over a binned side's occupied bins.

    Each occupied bin acts as a binary feature (in the bin or not); its
    entropy is binary_entropy(n_bin / N). Only occupied bins enter the
    average: a fixed global bin universe would let arbitrarily many
    empty bins drive the index toward 0.
    """
    _require(len(bins) >= 2, f"ti_morph needs at least 2 values, got {len(bins)}")
    return _ti(len(bins), Counter(bins).values())
