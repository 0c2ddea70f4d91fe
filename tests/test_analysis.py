"""Rank correlation, gap diagnosis, and report serialization."""
import csv
import io
import json
from xml.etree import ElementTree

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from divscore.analysis import _average_ranks, attach_gap, serialize_report, spearman
from divscore.diversity import bin_measurements, jmm_score, jmm_syn
from divscore.model import MAX_GAP_EXAMPLES, DiversityReport, FeatureMatrix, Side
from oracles import morph_payload
from support import run_main, side

#: One side of a morph score: distinct iso codes, each with a mean word
#: length, drawn from few letters so bins share members.
_morph_side = st.lists(
    st.tuples(st.text("abcd", min_size=3, max_size=3), st.floats(1.0, 4.0)),
    min_size=1,
    max_size=12,
    unique_by=lambda pair: pair[0],
)


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
        """The average ranks are scipy's, and rho is scipy's within 1e-12."""
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
    def test_partition(self):
        # reference qbb in bin4, qaa in bin3
        report = jmm_score([2, 3, 3], [4, 3])
        assert [(r.dataset, r.reference) for r in report.per_bin] == [
            (1.0, 0.0),
            (2.0, 1.5),
            (0.0, 1.5),
        ]
        gap = attach_gap(report, ["qbb", "qaa"])
        assert gap == {
            "surplus": [{"bin": "bin2", "excess": 1.0}, {"bin": "bin3", "excess": 0.5}],
            "deficit": [{"bin": "bin4", "shortfall": 1.5, "examples": ["qbb"]}],
        }

    def test_examples_capped_and_sorted(self):
        dataset = side(["bin0"], [["bin0"]] + [[]] * 8)
        reference = side(["bin0"], [["bin0"]] * 8 + [[]])
        report = DiversityReport("jmm_morph", dataset, reference)
        isos = ["zzz", "aaa", "mmm", "bbb", "ccc", "fff", "ddd", "eee", "qqq"]
        examples = attach_gap(report, isos)["deficit"][0]["examples"]
        assert len(examples) == MAX_GAP_EXAMPLES
        assert examples == ["aaa", "bbb", "ccc", "ddd", "eee"]

    def test_equal_bins_appear_nowhere(self):
        report = jmm_score([0, 1, 1], [0, 1, 1])
        assert attach_gap(report, ["aaa", "bbb", "ccc"]) == {"surplus": [], "deficit": []}

    def test_scan_stops_once_every_deficit_row_is_full(self):
        """The examples fill the deficit rows alone: once each lists as
        many languages as it counts, up to five, no further language's
        cells are read, though the surplus row has languages unlisted."""
        # bin0 counts six reference languages and is a deficit, bin1 two
        # and is a surplus; abc is the one bin1 language before the sixth
        rows = {"aaa": 0, "abc": 1, "bbb": 0, "ccc": 0, "ddd": 0, "eee": 0, "fff": 0, "hhh": 1}
        read = []

        class Cells(tuple):
            """(bin position, iso): a language's one cell, logging its iso when read."""

            def __iter__(self):
                read.append(self[1])
                yield self[0]

        isos = sorted(rows, reverse=True)
        keys = ("bin0", "bin1")
        cells = [Cells((rows[iso], iso)) for iso in isos]
        reference = Side(keys, [6, 2], cells, [keys])
        dataset = side(keys, [["bin0"]] + [["bin1"]] * 7)
        gap = attach_gap(DiversityReport("jmm_morph", dataset, reference), isos)
        assert gap["deficit"] == [
            {"bin": "bin0", "shortfall": 5.0, "examples": ["aaa", "bbb", "ccc", "ddd", "eee"]}
        ]
        assert read == ["aaa", "abc", "bbb", "ccc", "ddd", "eee"]

    @pytest.mark.thorough
    @given(ds=_morph_side, ref=_morph_side, width=st.sampled_from([0.1, 0.5, 1.0]))
    @example(  # seven reference languages in one deficit bin, in reverse iso order
        ds=[("aaa", 2.5)],
        ref=[(iso, 1.5) for iso in ("ddd", "ccc", "bbb", "abc", "aab", "aaa", "aad")],
        width=1.0,
    )
    @example(ds=[("aaa", 1.4)], ref=[("bbb", 1.4), ("ccc", 1.3)], width=0.1)  # 1.4/0.1 < 14
    @example(  # a deficit bin the dataset partly fills, after scaling
        ds=[("aaa", 1.5), ("bbb", 2.5)],
        ref=[("ccc", 1.5), ("ddd", 1.5), ("abc", 1.5), ("abd", 2.5)],
        width=1.0,
    )
    @example(  # counts equal once the smaller side is scaled: no gap
        ds=[("aaa", 1.0), ("bbb", 2.0)],
        ref=[("ccc", 1.0), ("ddd", 1.0), ("abc", 2.0), ("abd", 2.0)],
        width=1.0,
    )
    @example(  # equal counts on equal sides: no row is a deficit
        ds=[("aaa", 1.5), ("bbb", 2.5)], ref=[("ddd", 2.5), ("ccc", 1.5)], width=1.0
    )
    def test_morph_gap_property(self, ds, ref, width):
        """Each bin whose scaled counts differ is surplus or deficit by
        the difference, in row order, and a deficit lists the five
        smallest reference isos of its bin: the reference's gap rows."""
        iso_r, mwl_r = zip(*ref)
        mwl_d = [v for _, v in ds]
        bins_r = bin_measurements(mwl_r, width)
        report = jmm_score(bin_measurements(mwl_d, width), bins_r)
        gap = attach_gap(report, iso_r)
        assert gap == morph_payload(mwl_d, mwl_r, iso_r, width)["jmm"]["gap"]

    def test_attach_gap_round_trip(self):
        report = jmm_score(
            bin_measurements([2.5, 3.5, 3.7], 1.0), bin_measurements([3.2, 4.1], 1.0)
        )
        before = tuple(report)
        gap = attach_gap(report, ["qzz", "qaa"])
        assert tuple(report) == before
        deficit_labels = [b["bin"] for b in gap["deficit"]]
        assert "bin4" in deficit_labels
        # the gap block goes into the JSON as it is, and round-trips
        jmm = report.to_dict(gap)
        assert jmm["gap"] == gap and jmm["value"] == report.value
        assert json.loads(json.dumps(jmm)) == jmm


class TestOverlapSeries:
    """The per-bin min and max columns, whose sums are the score's parts."""

    def test_rows_carry_min_max(self):
        # jmm_syn's rows: counts [1, 3] and [2, 2] over three languages each
        isos = ["qaa", "qab", "qac"]
        a = FeatureMatrix(isos, ["x", "y"], [[1, 1], [0, 1], [0, 1]])
        b = FeatureMatrix(isos, ["x", "y"], [[1, 1], [1, 1], [0, 0]])
        rows = jmm_syn(a, b).per_bin
        assert [(r.min_weight, r.max_weight) for r in rows] == [(1.0, 2.0), (2.0, 3.0)]
        num = sum(r.min_weight for r in rows)
        den = sum(r.max_weight for r in rows)
        assert num / den == 3.0 / 5.0


class TestSerialization:
    _DATASET, _REFERENCE = [2.5, 3.5, 3.7], [3.2, 4.1]

    def _report(self):
        sides = (bin_measurements(values, 1.0) for values in (self._DATASET, self._REFERENCE))
        return jmm_score(*sides)

    def test_svg_is_deterministic(self):
        assert serialize_report(self._report()) == serialize_report(self._report())

    def test_csv_header_and_rows(self, tmp_path, capsys):
        """``score --format csv`` writes the per-bin table, one row per
        bin under the names the JSON prints its fields with."""
        sides = []
        for side, values in (("dataset", self._DATASET), ("reference", self._REFERENCE)):
            table = tmp_path / f"{side}.csv"
            rows = (f"q{side[0]}{c},{v}\n" for c, v in zip("abc", values))
            table.write_text("iso,mwl\n" + "".join(rows))
            sides += [f"--{side}", str(table)]
        code, out, _ = run_main(["score", "--level", "morph", *sides, "--format", "csv"], capsys)
        assert code == 0
        report = self._report()
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["bin", "dataset", "reference", "min", "max"]
        assert table[1:] == [
            [r.label, repr(r.dataset), repr(r.reference), repr(r.min_weight), repr(r.max_weight)]
            for r in report.per_bin
        ]
        assert table[1][0] == "bin2"

    def test_svg_one_rect_per_occupied_bin_per_series(self):
        report = self._report()
        svg = serialize_report(report)
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        n_dataset_bins = sum(1 for r in report.per_bin if r.dataset > 0)
        n_reference_bins = sum(1 for r in report.per_bin if r.reference > 0)
        n_overlap_bins = sum(1 for r in report.per_bin if r.min_weight > 0)
        assert svg.count('class="dataset"') == n_dataset_bins
        assert svg.count('class="reference"') == n_reference_bins
        assert svg.count('class="intersection"') == n_overlap_bins
        assert svg.count("<text") == len(report.per_bin) + 1

    def test_svg_labels_escaped(self, tmp_path, capsys):
        """A feature name holding ``<``, ``&`` or ``>`` is written
        escaped: the SVG parses as XML and its slot texts read back the
        names."""
        matrix = tmp_path / "m.csv"
        matrix.write_text("iso,a<b,c&d,e>f\naaa,1,0,1\nbbb,0,1,1\nccc,1,1,0\n")
        sides = ["--dataset", str(matrix), "--reference", str(matrix)]
        code, out, _ = run_main(["score", "--level", "syn", *sides, "--format", "svg"], capsys)
        assert code == 0
        root = ElementTree.fromstring(out.encode())
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[:-1] == ["a<b", "c&d", "e>f"]
