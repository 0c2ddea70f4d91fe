"""Morphological complexity: spec files, normalization, and scoring."""
import pytest

from divscore.grammar import FEATURE_SET_SIZE, c_wals_table, load_morph_specs
from divscore.ingest import bundled_path, load_feature_matrix
from divscore.model import FeatureMatrix, MorphFeatureSpec
from oracles import exact_sum


@pytest.fixture(scope="module")
def specs():
    return load_morph_specs()


class TestSpecLoading:
    def test_bundled_set_is_complete(self, specs):
        assert len(specs) == FEATURE_SET_SIZE
        assert len({s.chapter for s in specs}) == FEATURE_SET_SIZE

    def test_every_spec_has_usable_range(self, specs):
        for s in specs:
            assert s.final_min < s.final_max, s.chapter

    def test_rejects_wrong_count(self, tmp_path):
        p = tmp_path / "specs.csv"
        p.write_text("chapter,name,transformation,final_min,final_max\n22A,x,none,0,1\n")
        with pytest.raises(ValueError) as exc:
            load_morph_specs(p)
        assert str(exc.value) == f"morphology spec file {p} must list exactly 26 chapters, got 1"

    def test_negative_final_min_rejected(self, tmp_path):
        p = tmp_path / "specs.csv"
        p.write_text(
            "chapter,name,transformation,final_min,final_max\n"
            "22A,x,none,0,7\n"
            "26A,y,binarization,-1,1\n"
        )
        with pytest.raises(ValueError) as exc:
            load_morph_specs(p)
        assert str(exc.value) == (
            f"morphology spec file {p} row 3: final_min -1 for chapter 26A must be non-negative"
        )

    def test_value_map_column_rejected(self, tmp_path):
        p = tmp_path / "specs.csv"
        p.write_text(
            "chapter,name,transformation,final_min,final_max,value_map\n"
            "22A,x,none,1,7,\n"
        )
        with pytest.raises(ValueError) as exc:
            load_morph_specs(p)
        assert str(exc.value) == (
            f"morphology spec file {p} header must be "
            "chapter,name,transformation,final_min,final_max, "
            "got chapter,name,transformation,final_min,final_max,value_map"
        )


def _scores(specs, rows):
    """``c_wals_table`` over a matrix of ``rows``, one cell per spec in
    spec order, for the languages aaa, aab, ...: iso -> score."""
    isos = [f"aa{chr(ord('a') + i)}" for i in range(len(rows))]
    matrix = FeatureMatrix(isos, [s.chapter for s in specs], rows)
    return dict(c_wals_table(matrix, specs))


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        s = MorphFeatureSpec("30A", 1, 5)
        assert _scores([s], [[1], [5], [3]]) == {"aaa": 0.0, "aab": 1.0, "aac": 0.5}

    def test_out_of_range_rejected(self, tmp_path):
        # a cell outside its range never reaches the score: the loader
        # rejects it, naming the file, row, language and chapter
        p = tmp_path / "m.csv"
        p.write_text("iso,30A\nabc,6\n")
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(p, specs=[MorphFeatureSpec("30A", 1, 5)])
        assert str(exc.value) == (
            f"feature matrix {p} row 2: value 6 for (abc, 30A) lies outside the final range [1, 5]"
        )

    def test_degenerate_range_normalizes_to_zero(self):
        specs = [MorphFeatureSpec("30A", 2, 2), MorphFeatureSpec("31A", 0, 1)]
        assert _scores(specs, [[2, 0], [2, 1]]) == {"aaa": 0.0, "aab": 0.5}


class TestCWals:
    def test_uniform_extremes(self, specs):
        lows = [s.final_min for s in specs]
        highs = [s.final_max for s in specs]
        assert _scores(specs, [lows, highs]) == {"aaa": 0.0, "aab": 1.0}

    @staticmethod
    def _load(tmp_path, specs, chapters):
        """The error of loading a row of zeros under the header ``chapters``."""
        p = tmp_path / "m.csv"
        cells = ["0"] * len(chapters)
        p.write_text("iso," + ",".join(chapters) + "\nabc," + ",".join(cells) + "\n")
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(p, specs=specs)
        return str(exc.value).replace(str(p), "<path>")

    def test_missing_chapters_listed_sorted(self, specs, tmp_path):
        # the loader is the one place a matrix's columns meet the specs
        chapters = [s.chapter for s in specs if s.chapter not in ("22A", "102A")]
        assert self._load(tmp_path, specs, chapters) == (
            "feature matrix <path> is missing spec chapters: 102A, 22A"
        )

    def test_columns_beyond_the_specs_rejected(self, specs, tmp_path):
        chapters = [s.chapter for s in specs] + ["999Z"]
        assert self._load(tmp_path, specs, chapters) == (
            "feature matrix <path> has columns not in the feature specs: 999Z"
        )

    def test_hand_computed_mean(self, specs):
        # minimum everywhere except one binary chapter at 1: the mean of
        # the normalized values is exactly 1/26
        values = [1 if s.chapter == "26A" else s.final_min for s in specs]
        assert _scores(specs, [values]) == {"aaa": 1 / 26}

    def test_mean_is_exact(self, specs):
        # the exact sum of the normalized values, rounded once; adding
        # them in order from 0.0 differs in the last bit for at least one
        # bundled language, so a return to in-order adding fails here
        matrix, _ = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
        table = dict(c_wals_table(matrix, specs))
        spec = {s.chapter: s for s in specs}
        in_order_differs = 0
        for iso, values in zip(matrix.languages, matrix.values):
            normalized = []
            for f, v in zip(matrix.features, values):
                lo, hi = spec[f].final_min, spec[f].final_max
                normalized.append((v - lo) / (hi - lo) if hi > lo else 0.0)
            mean = exact_sum(normalized) / len(specs)
            assert table[iso] == mean
            total = 0.0
            for v in normalized:
                total += v
            in_order_differs += total / len(specs) != mean
        assert in_order_differs > 0, "no bundled language tells the two sums apart"

    def test_table_sorted_and_kind_checked(self, specs):
        """The matrix kind comes from the specs: without them the loader
        reads the bundled values as a binary matrix and rejects them."""
        matrix, _ = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
        rows = c_wals_table(matrix, specs)
        isos = [iso for iso, _ in rows]
        assert isos == sorted(isos)
        assert len(rows) == 28
        binary = r"row \d+: binary feature \(\w+, \w+\) must be 0 or 1"
        with pytest.raises(ValueError, match=binary):
            load_feature_matrix(bundled_path("morph_values.csv"))

    def test_published_spot_values(self, specs):
        matrix, _ = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
        scores = dict(c_wals_table(matrix, specs))
        assert scores["tur"] == pytest.approx(0.76, abs=0.005)
        assert scores["vie"] == pytest.approx(0.21, abs=0.005)
        assert scores["swh"] == pytest.approx(0.71, abs=0.005)
