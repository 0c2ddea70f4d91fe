"""Scoring core: binning, the aligned min-max table, and entropy indices.

The randomized properties here are the package-level half of the
acceptance property suites; the acceptance tests re-run the headline
properties at their pinned budgets.
"""
import heapq
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divscore.analysis import attach_gap
from divscore.diversity import (
    bin_index,
    bin_measurements,
    binary_entropy,
    feature_members,
    jmm_score,
    jmm_syn,
    normalization_scalar,
    syntactic_weights,
    ti_morph,
    ti_syn,
)
from divscore.ingest import bundled_path
from divscore.model import FeatureMatrix
from oracles import brute_jmm, brute_jmm_syn, brute_ti_morph, brute_ti_syn, exact_bin
from support import run_main

# {2.5, 3.5, 3.7} vs {3.2, 4.1} at width 1: c = 1.5 on the smaller side,
# aligned columns A [1, 2, 0] and B [0, 1.5, 1.5], min-sum 1.5, max-sum
# 4.5. The expected score is exactly one third.
TOY_A = [2.5, 3.5, 3.7]
TOY_B = [3.2, 4.1]


def _jmm(a, b, width):
    """jmm_score with both sides binned here."""
    return jmm_score(bin_measurements(a, width), bin_measurements(b, width))

measurements = st.lists(
    st.floats(min_value=-3.0, max_value=6.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)

# Values far apart relative to the bin width, where a contiguous bin axis
# would run to billions of bins.
far_apart_measurements = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


decimal_widths = st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 2.5])


@st.composite
def near_bin_edges(draw, width):
    """A value on a bin edge k * width, or one float beside it."""
    edge = float(Fraction(repr(width)) * draw(st.integers(-10**4, 10**4)))
    return draw(
        st.sampled_from([edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)])
    )


class TestBinIndex:
    def test_hand_cases(self):
        cases = [
            (0.0, 0.5, 0),
            (0.49, 0.5, 0),
            (0.5, 0.5, 1),  # a boundary belongs to the upper bin
            (-0.1, 0.5, -1),
            (0.3, 0.1, 3),  # 0.3 / 0.1 is 2.9999999999999996 in floats
            (0.7, 0.1, 7),
            (0.8999999999999999, 0.3, 2),  # the float quotient rounds up to 3.0
            (3.45, 0.01, 345),
            (-5e-324, 1.0, -1),
            (-5e-324, 2.0, -1),  # the float quotient underflows to -0.0
        ]
        assert [bin_index(v, w) for v, w, _ in cases] == [k for _, _, k in cases]

    @given(
        v=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
        ),
        width=st.one_of(decimal_widths, st.floats(min_value=5e-324, max_value=1e6)),
    )
    def test_matches_decimal_floor_property(self, v, width):
        assert bin_index(v, width) == exact_bin(v, width)

    @given(data=st.data(), width=decimal_widths)
    def test_matches_decimal_floor_at_bin_edges_property(self, data, width):
        v = data.draw(near_bin_edges(width))
        assert bin_index(v, width) == exact_bin(v, width)

    @given(data=st.data(), pair=st.sampled_from([(1.0, 2.0), (0.05, 0.1), (0.1, 0.5), (0.25, 1.0)]))
    def test_coarse_bins_nest_fine_bins_property(self, data, pair):
        fine, coarse = pair
        k = int(Fraction(repr(coarse)) / Fraction(repr(fine)))
        v = data.draw(near_bin_edges(fine))
        assert bin_index(v, coarse) == bin_index(v, fine) // k

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError, match="non-finite"):
            bin_index(math.inf, 1.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match="width"):
            bin_index(1.0, width)


class TestBinning:
    def test_counts_and_boundaries(self):
        assert Counter(bin_measurements([0.2, 0.9, 1.0, 2.5], width=1.0)) == {0: 2, 1: 1, 2: 1}

    def test_negative_values(self):
        assert Counter(bin_measurements([-0.5, -1.0, 0.5], width=1.0)) == {-1: 2, 0: 1}

    def test_narrow_width(self):
        assert Counter(bin_measurements([0.2, 0.3], width=0.25)) == {0: 1, 1: 1}

    def test_one_bin_per_value_in_input_order(self):
        assert bin_measurements([2.5, -0.5, 0.3, 2.5], width=0.1) == [25, -5, 3, 25]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one value"):
            bin_measurements([], 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            bin_measurements([float("nan")], 1.0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            bin_measurements([1.0], -1.0)


class TestNormalizationScalar:
    def test_ratio(self):
        assert normalization_scalar(3, 5) == 5 / 3
        assert normalization_scalar(5, 3) == 5 / 3
        assert normalization_scalar(4, 4) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            normalization_scalar(0, 5)


class TestAlignBins:
    """jmm_score's rows: the sorted union of the bins occupied on either side."""

    def test_one_sided_bins_get_zero_weight(self):
        rows = _jmm(TOY_A, TOY_B, 1.0).per_bin
        assert [r.label for r in rows] == ["bin2", "bin3", "bin4"]
        assert [r.dataset for r in rows] == [1.0, 2.0, 0.0]
        assert [r.reference for r in rows] == [0.0, 1.5, 1.5]

    def test_gap_in_the_middle(self):
        # bins 1-3 are empty on both sides and get no row
        rows = _jmm([0.5], [4.5], 1.0).per_bin
        assert [r.label for r in rows] == ["bin0", "bin4"]
        assert [(r.dataset, r.reference) for r in rows] == [(1.0, 0.0), (0.0, 1.0)]


def _syn(rows, features=None):
    """A binary matrix over languages qaa, qab, ... and s1, s2, ..."""
    isos = ["q" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26) for i in range(len(rows))]
    features = features or [f"s{j}" for j in range(1, len(rows[0]) + 1)]
    return FeatureMatrix(isos, features, rows)


def _jmm_syn(dataset, reference, count_zeros=False):
    """jmm_syn with both sides' weights computed here."""
    weights = [syntactic_weights(m, count_zeros) for m in (dataset, reference)]
    return jmm_syn(dataset, reference, *weights)


class TestJaccardMinmax:
    """sum(min) / sum(max) over jmm_syn's feature rows."""

    def test_toy_columns(self):
        # dataset counts [1, 2, 0] over 3 languages; reference [0, 1, 1]
        # over 2, scaled by c = 1.5 to [0, 1.5, 1.5]
        report = _jmm_syn(_syn([[1, 1, 0], [0, 1, 0], [0, 0, 0]]), _syn([[0, 1, 0], [0, 0, 1]]))
        assert [r.reference for r in report.per_bin] == [0.0, 1.5, 1.5]
        assert report.value == 1 / 3

    def test_identical_vectors_score_one(self):
        m = _syn([[1, 0, 1], [1, 1, 0]])
        assert _jmm_syn(m, m).value == 1.0
        assert _jmm_syn(m, m, count_zeros=True).value == 1.0

    def test_disjoint_support_scores_zero(self):
        assert _jmm_syn(_syn([[1, 0, 0]]), _syn([[0, 1, 1]])).value == 0.0

    def test_rejects_label_mismatch(self):
        # the same features in another order label other rows
        a = _syn([[1, 0, 0]], ["s1", "s2", "s3"])
        b = _syn([[1, 0, 0]], ["s2", "s1", "s3"])
        with pytest.raises(ValueError, match="column 0: 's1' vs 's2'"):
            _jmm_syn(a, b)


class TestJmmScore:
    def test_toy_case_exact(self):
        report = _jmm(TOY_A, TOY_B, 1.0)
        assert report.value == 1 / 3
        assert report.normalization_c == 1.5
        assert [r.min_weight for r in report.per_bin] == [0.0, 1.5, 0.0]
        assert [r.max_weight for r in report.per_bin] == [1.0, 2.0, 1.5]
        assert [r.label for r in report.per_bin] == ["bin2", "bin3", "bin4"]

    def test_toy_case_swapped_sides(self):
        assert _jmm(TOY_B, TOY_A, 1.0).value == 1 / 3

    def test_scaling_applies_to_smaller_side(self):
        # reference smaller: its per-bin column carries the scaled weights
        report = _jmm([1.5, 2.5, 3.5, 1.2], [1.4, 2.6], 1.0)
        assert report.normalization_c == 2.0
        by_label = {r.label: r for r in report.per_bin}
        assert by_label["bin1"].reference == 2.0
        assert by_label["bin2"].reference == 2.0
        assert by_label["bin1"].dataset == 2.0

    def test_equal_sizes_no_scaling(self):
        report = _jmm([1.5], [2.5], 1.0)
        assert report.normalization_c == 1.0
        assert report.value == 0.0

    def test_per_bin_sums_reproduce_value(self):
        report = _jmm(TOY_A, TOY_B, 1.0)
        num = sum(r.min_weight for r in report.per_bin)
        den = sum(r.max_weight for r in report.per_bin)
        assert abs(report.value - num / den) <= 1e-12

    @given(values=measurements, width=st.sampled_from([0.25, 0.5, 1.0, 2.5]))
    def test_identity_property(self, values, width):
        assert _jmm(values, values, width).value == 1.0

    @given(a=measurements, b=measurements, width=st.sampled_from([0.5, 1.0]))
    def test_symmetry_property(self, a, b, width):
        assert _jmm(a, b, width).value == _jmm(b, a, width).value

    @given(a=measurements, b=measurements, width=st.sampled_from([0.5, 1.0]))
    def test_range_property(self, a, b, width):
        v = _jmm(a, b, width).value
        assert 0.0 <= v <= 1.0

    @given(a=measurements, b=measurements, k=st.sampled_from([2, 3, 5]))
    def test_duplication_invariance_property(self, a, b, k):
        base = _jmm(a, b, 1.0).value
        assert _jmm(a * k, b, 1.0).value == pytest.approx(base, abs=1e-12)
        assert _jmm(a, b * k, 1.0).value == pytest.approx(base, abs=1e-12)

    @given(a=measurements, b=measurements)
    @example(a=[-1.0], b=[-5e-324])
    def test_coarsening_monotonicity_property(self, a, b):
        fine = _jmm(a, b, 1.0).value
        coarse = _jmm(a, b, 2.0).value
        assert coarse >= fine - 1e-12

    @given(a=measurements, b=measurements, width=st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=200)
    def test_matches_brute_force_property(self, a, b, width):
        assert _jmm(a, b, width).value == brute_jmm(a, b, width)

    @given(
        a=far_apart_measurements,
        b=far_apart_measurements,
        width=st.sampled_from([1e-5, 1e-3, 0.01, 1.0]),
    )
    @example(a=[0.0], b=[1e5], width=1.0)
    def test_sparse_axis_property(self, a, b, width):
        report = _jmm(a, b, width)
        rows = report.per_bin
        assert len(rows) <= len(a) + len(b)
        assert all(r.max_weight > 0 for r in rows)
        ks = [int(r.label.removeprefix("bin")) for r in rows]
        assert all(k < k_next for k, k_next in zip(ks, ks[1:]))
        assert report.value == brute_jmm(a, b, width)


class TestSyntacticWeights:
    def test_ones_counts(self):
        v = syntactic_weights(_syn([[1, 0, 1], [1, 1, 0]]))
        assert v == {"s1": 2.0, "s2": 1.0, "s3": 1.0}
        assert list(v) == ["s1", "s2", "s3"]

    def test_count_zeros_doubles_dimensions(self):
        m = _syn([[1, 0], [1, 1]])
        v = syntactic_weights(m, count_zeros=True)
        assert list(v) == ["s1=1", "s1=0", "s2=1", "s2=0"]
        assert list(v.values()) == [2.0, 0.0, 1.0, 1.0]
        assert sum(v.values()) == m.n_languages * len(m.features)

    def test_all_zero_matrix_rejected_in_default_mode(self):
        m = _syn([[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="positive total"):
            syntactic_weights(m)
        # with zero counting the distribution is all in the =0 dimensions
        assert syntactic_weights(m, count_zeros=True)["s1=0"] == 2.0

    def test_kind_checked(self, capsys):
        """Only a binary matrix reaches the weights: ``score --level syn``
        loads each side without specs, so morphology values fail there."""
        path = str(bundled_path("morph_values.csv"))
        argv = ["score", "--level", "syn", "--dataset", path, "--reference", path]
        code, out, err = run_main(argv, capsys)
        assert code == 1 and out == ""
        prefix = f"error: feature matrix {path} row "
        assert err.startswith(prefix) and "must be 0 or 1" in err, err


@st.composite
def syn_pairs(draw):
    """Feature names and two 0/1 matrices over them, as lists of rows."""
    n_features = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=0, max_value=1), min_size=n_features, max_size=n_features)
    features = [f"s{j}" for j in range(1, n_features + 1)]
    matrix = st.lists(row, min_size=1, max_size=9)
    return features, draw(matrix), draw(matrix)


class TestJmmSyn:
    def test_fixture_values(self, fixtures):
        from divscore.ingest import load_feature_matrix

        ds, _ = load_feature_matrix(fixtures / "syn_dataset.csv")
        ref, _ = load_feature_matrix(fixtures / "syn_reference.csv")
        # hand computation: scaled dataset [4.8, 3.2] * 3, reference
        # [5, 5, 5, 5, 5, 4] -> min-sum 24, max-sum 29 (103 dims) and
        # 43/53 with zero dimensions counted
        assert _jmm_syn(ds, ref).value == pytest.approx(24 / 29, abs=1e-12)
        assert _jmm_syn(ds, ref, count_zeros=True).value == pytest.approx(43 / 53, abs=1e-12)
        assert _jmm_syn(ds, ref).normalization_c == 1.6

    def test_half_scaled_dataset_scores_one(self):
        ref = FeatureMatrix(
            ["aaa", "bbb", "ccc", "ddd"], ["s1", "s2"], [[1, 0], [1, 0], [0, 1], [0, 1]]
        )
        ds = FeatureMatrix(["xxx", "yyy"], ["s1", "s2"], [[1, 0], [0, 1]])
        assert _jmm_syn(ds, ref).value == 1.0

    def test_feature_mismatch_names_first_column(self):
        a = FeatureMatrix(["aaa"], ["s1", "sX"], [[1, 0]])
        b = FeatureMatrix(["bbb"], ["s1", "s2"], [[1, 0]])
        with pytest.raises(ValueError, match="column 1: 'sX' vs 's2'"):
            _jmm_syn(a, b)

    @given(pair=syn_pairs(), count_zeros=st.booleans())
    @example(pair=(["s1"], [[0]], [[1], [1]]), count_zeros=False)
    @example(pair=(["s1"], [[0]], [[1], [1]]), count_zeros=True)
    def test_matches_brute_force_property(self, pair, count_zeros):
        features, rows_d, rows_r = pair
        ds, ref = _syn(rows_d, features), _syn(rows_r, features)
        expected = brute_jmm_syn(features, rows_d, rows_r, count_zeros)
        if expected is None:
            with pytest.raises(ValueError, match="positive total"):
                _jmm_syn(ds, ref, count_zeros)
            return
        value, table = expected
        report = _jmm_syn(ds, ref, count_zeros)
        assert [
            (r.label, r.dataset, r.reference, r.min_weight, r.max_weight) for r in report.per_bin
        ] == table
        assert report.value == value

    def test_feature_length_mismatch(self):
        a = FeatureMatrix(["aaa"], ["s1"], [[1]])
        b = FeatureMatrix(["bbb"], ["s1", "s2"], [[1, 0]])
        with pytest.raises(ValueError, match="differ in length"):
            _jmm_syn(a, b)


@st.composite
def gap_cases(draw):
    """Feature names, a 0/1 dataset as rows, and a reference of 1-40
    languages in shuffled iso order with its rows."""
    n_features = draw(st.integers(min_value=1, max_value=4))
    features = [f"s{j}" for j in range(1, n_features + 1)]
    row = st.lists(st.integers(min_value=0, max_value=1), min_size=n_features, max_size=n_features)
    rows_d = draw(st.lists(row, min_size=1, max_size=40))
    isos = draw(st.sets(st.text("abcdefg", min_size=3, max_size=3), min_size=1, max_size=40))
    isos_r = draw(st.permutations(sorted(isos)))
    rows_r = draw(st.lists(row, min_size=len(isos_r), max_size=len(isos_r)))
    return features, rows_d, isos_r, rows_r


class TestFeatureMembers:
    @given(case=gap_cases(), count_zeros=st.booleans())
    @example(  # seven reference languages with the value, in reverse iso order
        case=(["s1"], [[1], [0]], ["ggg", "fff", "eee", "ddd", "ccc", "bbb", "aaa"], [[1]] * 7),
        count_zeros=False,
    )
    def test_gap_examples_property(self, case, count_zeros):
        """Each deficit row lists the five smallest iso codes among all the
        reference languages showing the row's value."""
        features, rows_d, isos_r, rows_r = case
        assume(count_zeros or (any(map(any, rows_d)) and any(map(any, rows_r))))
        ds = _syn(rows_d, features)
        ref = FeatureMatrix(isos_r, features, rows_r)
        report = _jmm_syn(ds, ref, count_zeros)
        gap = attach_gap(report, feature_members(ref, count_zeros)).gap
        counted = {
            (f"{f}={value}" if count_zeros else f): (j, value)
            for j, f in enumerate(features)
            for value in ((1, 0) if count_zeros else (1,))
        }
        short = [r.label for r in report.per_bin if r.dataset < r.reference]
        assert [d.label for d in gap.deficit_bins] == short
        for d in gap.deficit_bins:
            j, value = counted[d.label]
            members = {iso for iso, row in zip(isos_r, rows_r) if row[j] == value}
            assert d.examples == tuple(heapq.nsmallest(5, members))


class TestBinaryEntropy:
    def test_exact_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter_value(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_domain_checked(self):
        with pytest.raises(ValueError, match="probability"):
            binary_entropy(1.5)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    def test_flip_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestTiSyn:
    def test_balanced_matrix_scores_one(self):
        m = _syn([[1, 0], [0, 1], [1, 1], [0, 0]])
        assert ti_syn(m) == 1.0

    def test_constant_matrix_scores_zero(self):
        m = _syn([[1, 0], [1, 0], [1, 0]])
        assert ti_syn(m) == 0.0

    def test_matches_oracle(self):
        rows = [[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]]
        m = _syn(rows)
        assert ti_syn(m) == brute_ti_syn(rows)

    def test_needs_two_languages(self):
        m = _syn([[1, 0]])
        with pytest.raises(ValueError, match="at least 2 languages"):
            ti_syn(m)

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_flip_symmetry_property(self, rows):
        m = _syn(rows)
        flipped = _syn([[1 - v for v in row] for row in rows])
        assert ti_syn(m) == pytest.approx(ti_syn(flipped), abs=1e-12)


class TestTiMorph:
    def test_even_two_bin_split_scores_one(self):
        assert ti_morph(bin_measurements([0.2, 0.7, 1.2, 1.7], 1.0)) == 1.0

    def test_three_one_split(self):
        assert ti_morph(bin_measurements([0.1, 0.2, 0.3, 1.5], 1.0)) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_single_bin_scores_zero(self):
        assert ti_morph(bin_measurements([0.1, 0.2, 0.3], 1.0)) == 0.0

    def test_only_occupied_bins_enter_the_mean(self):
        # values far apart: interior empty bins must not dilute the index
        spread = ti_morph(bin_measurements([0.5, 99.5], 1.0))
        adjacent = ti_morph(bin_measurements([0.5, 1.5], 1.0))
        assert spread == adjacent == 1.0

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least 2 values"):
            ti_morph(bin_measurements([1.0], 1.0))

    @given(values=st.lists(st.floats(min_value=0, max_value=6), min_size=2, max_size=12))
    def test_matches_oracle_property(self, values):
        assert ti_morph(bin_measurements(values, 1.0)) == brute_ti_morph(values, 1.0)

    @given(values=st.lists(st.floats(min_value=0, max_value=6), min_size=2, max_size=12))
    def test_range_property(self, values):
        assert 0.0 <= ti_morph(bin_measurements(values, 1.0)) <= 1.0
