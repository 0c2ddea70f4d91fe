"""Rank correlation, gap diagnosis, and report serialization."""
import csv
import io

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from divscore.analysis import (
    MAX_GAP_EXAMPLES,
    _average_ranks,
    attach_gap,
    serialize_report,
    spearman,
)
from divscore.diversity import bin_measurements, jmm_score, jmm_syn, syntactic_weights
from divscore.model import BinOverlap, DiversityReport, FeatureMatrix


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == -1.0

    def test_nonlinear_monotone_still_one(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert spearman(xs, [x**3 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_with_ties(self):
        xs = [1.0, 2.0, 2.0, 4.0, 5.0]
        ys = [3.0, 1.0, 4.0, 4.0, 6.0]
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero rank variance"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman([1, 2], [1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman([1, 2, 3], [1, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            spearman([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])

    # Ties are the only case where average ranks differ from plain ranks,
    # and uniform floats almost never tie, so values are also drawn from a
    # small pool that includes both zeros.
    _values = st.one_of(
        st.floats(min_value=-10, max_value=10),
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
    )

    @given(
        xs=st.lists(_values, min_size=3, max_size=20),
        ys=st.lists(_values, min_size=3, max_size=20),
    )
    @example(xs=[-0.0, 0.0, 2.0, -1.0], ys=[0.5, 2.0, 0.0, -0.0])
    @example(xs=[0.5, 0.5, 0.5, 0.5, 2.0], ys=[-1.0, 0.0, 0.5, 2.0, 2.0])
    @example(xs=[2.0, -1.0, 0.5], ys=[0.5, 0.5, -1.0])
    def test_matches_scipy_property(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        for values in (xs, ys):
            np.testing.assert_array_equal(
                _average_ranks(values), scipy.stats.rankdata(values), strict=True
            )
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    @given(
        xs=st.lists(_values, min_size=3, max_size=20),
        ys=st.lists(_values, min_size=3, max_size=20),
    )
    @example(xs=[-0.0, 0.0, 2.0, -1.0], ys=[0.5, 2.0, 0.0, -0.0])
    @example(xs=[0.5, 0.5, 0.5, 0.5, 2.0], ys=[-1.0, 0.0, 0.5, 2.0, 2.0])
    def test_equals_numpy_corrcoef_property(self, xs, ys):
        """The stdlib arithmetic gives numpy's Pearson correlation of the
        average ranks bit for bit."""
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        expected = float(np.corrcoef(_average_ranks(xs), _average_ranks(ys))[0, 1])
        assert spearman(xs, ys) == expected


class TestGapReport:
    @staticmethod
    def _report(labels, dataset, reference):
        rows = [
            BinOverlap(x, a, b, min(a, b), max(a, b)) for x, a, b in zip(labels, dataset, reference)
        ]
        value = sum(r.min_weight for r in rows) / sum(r.max_weight for r in rows)
        return DiversityReport("jmm_morph", value, per_bin=rows, normalization_c=1.0)

    def test_partition(self):
        report = self._report(["bin2", "bin3", "bin4"], [1.0, 2.0, 0.0], [0.0, 1.5, 1.5])
        gap = attach_gap(report, {"bin4": ["qba", "qbb"]}).gap
        assert [(b.label, b.excess) for b in gap.surplus_bins] == [
            ("bin2", 1.0),
            ("bin3", 0.5),
        ]
        assert [(b.label, b.shortfall) for b in gap.deficit_bins] == [("bin4", 1.5)]
        assert gap.deficit_bins[0].examples == ("qba", "qbb")

    def test_examples_capped_and_sorted(self):
        report = self._report(["bin0"], [1.0], [9.0])
        members = {"bin0": ["zzz", "aaa", "mmm", "bbb", "ccc", "aaa", "ddd", "eee"]}
        examples = attach_gap(report, members).gap.deficit_bins[0].examples
        assert len(examples) == MAX_GAP_EXAMPLES
        assert examples == ("aaa", "bbb", "ccc", "ddd", "eee")

    def test_equal_bins_appear_nowhere(self):
        report = self._report(["bin0", "bin1"], [1.0, 2.0], [1.0, 2.0])
        gap = attach_gap(report, {}).gap
        assert gap.surplus_bins == () and gap.deficit_bins == ()

    def test_attach_gap_round_trip(self):
        report = jmm_score(
            bin_measurements([2.5, 3.5, 3.7], 1.0), bin_measurements([3.2, 4.1], 1.0)
        )
        enriched = attach_gap(report, {"bin4": ["qzz"]})
        assert enriched.value == report.value
        assert enriched.gap is not None
        deficit_labels = [b.label for b in enriched.gap.deficit_bins]
        assert "bin4" in deficit_labels


class TestOverlapSeries:
    """The per-bin min and max columns, whose sums are the score's parts."""

    def test_rows_carry_min_max(self):
        # jmm_syn's rows: counts [1, 3] and [2, 2] over three languages each
        isos = ["qaa", "qab", "qac"]
        a = FeatureMatrix(isos, ["x", "y"], [[1, 1], [0, 1], [0, 1]])
        b = FeatureMatrix(isos, ["x", "y"], [[1, 1], [1, 1], [0, 0]])
        rows = jmm_syn(a, b, syntactic_weights(a), syntactic_weights(b)).per_bin
        assert [(r.min_weight, r.max_weight) for r in rows] == [(1.0, 2.0), (2.0, 3.0)]
        num = sum(r.min_weight for r in rows)
        den = sum(r.max_weight for r in rows)
        assert num / den == 3.0 / 5.0


class TestSerialization:
    def _report(self):
        report = jmm_score(
            bin_measurements([2.5, 3.5, 3.7], 1.0), bin_measurements([3.2, 4.1], 1.0)
        )
        return attach_gap(report, {"bin4": ["qba", "qbb"]})

    def test_csv_and_svg_are_deterministic(self):
        for fmt in ("csv", "svg"):
            assert serialize_report(self._report(), fmt) == serialize_report(self._report(), fmt)

    def test_csv_header_and_rows(self):
        report = self._report()
        table = list(csv.reader(io.StringIO(serialize_report(report, "csv").decode())))
        assert table[0] == ["bin", "dataset", "reference", "min", "max"]
        assert table[1:] == [
            [r.label, repr(r.dataset), repr(r.reference), repr(r.min_weight), repr(r.max_weight)]
            for r in report.per_bin
        ]
        assert table[1][0] == "bin2"

    def test_svg_one_rect_per_occupied_bin_per_series(self):
        report = self._report()
        svg = serialize_report(report, "svg").decode()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        n_dataset_bins = sum(1 for r in report.per_bin if r.dataset > 0)
        n_reference_bins = sum(1 for r in report.per_bin if r.reference > 0)
        n_overlap_bins = sum(1 for r in report.per_bin if r.min_weight > 0)
        assert svg.count('class="dataset"') == n_dataset_bins
        assert svg.count('class="reference"') == n_reference_bins
        assert svg.count('class="intersection"') == n_overlap_bins
        assert svg.count("<text") == len(report.per_bin) + 1

    def test_unknown_format_rejected(self):
        for fmt in ("yaml", "json"):
            with pytest.raises(ValueError, match="unsupported format"):
                serialize_report(self._report(), fmt)
