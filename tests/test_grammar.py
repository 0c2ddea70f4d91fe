"""Morphological complexity: spec files, normalization, and scoring."""
import pytest

from divscore.grammar import (
    FEATURE_SET_SIZE,
    MorphSpecSet,
    c_wals,
    c_wals_table,
    load_morph_specs,
    normalize_feature,
)
from divscore.ingest import bundled_path, load_feature_matrix
from divscore.model import MorphFeatureSpec
from oracles import exact_sum


@pytest.fixture(scope="module")
def specs():
    return load_morph_specs()


class TestSpecLoading:
    def test_bundled_set_is_complete(self, specs):
        assert len(specs) == FEATURE_SET_SIZE
        assert len({s.chapter for s in specs}) == FEATURE_SET_SIZE

    def test_remove_transformation_read(self, specs):
        (s,) = [s for s in specs if s.chapter == "49A"]
        assert s.transformation == "remove"
        assert (s.final_min, s.final_max) == (1, 8)

    def test_every_spec_has_usable_range(self, specs):
        for s in specs:
            assert s.final_min < s.final_max, s.chapter

    def test_rejects_wrong_count(self):
        one = MorphFeatureSpec("22A", "x", "none", 0, 1)
        with pytest.raises(ValueError, match="exactly 26"):
            MorphSpecSet([one])

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


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        s = MorphFeatureSpec("30A", "x", "none", 1, 5)
        assert normalize_feature(1, s) == 0.0
        assert normalize_feature(5, s) == 1.0
        assert normalize_feature(3, s) == 0.5

    def test_out_of_range_rejected(self):
        s = MorphFeatureSpec("30A", "x", "none", 1, 5)
        with pytest.raises(ValueError, match="outside the final range"):
            normalize_feature(6, s)

    def test_degenerate_range_normalizes_to_zero(self):
        s = MorphFeatureSpec("30A", "x", "none", 2, 2)
        assert normalize_feature(2, s) == 0.0


class TestCWals:
    def test_uniform_extremes(self, specs):
        lows = {s.chapter: s.final_min for s in specs}
        highs = {s.chapter: s.final_max for s in specs}
        assert c_wals(lows, specs) == 0.0
        assert c_wals(highs, specs) == 1.0

    def test_missing_chapters_listed_sorted(self, specs):
        values = {s.chapter: s.final_min for s in specs}
        values.pop("22A")
        values.pop("102A")
        with pytest.raises(ValueError, match="102A, 22A"):
            c_wals(values, specs)

    def test_extra_chapters_ignored(self, specs):
        values = {s.chapter: s.final_min for s in specs}
        values["999Z"] = 42
        assert c_wals(values, specs) == 0.0

    def test_hand_computed_mean(self, specs):
        # minimum everywhere except one binary chapter at 1: the mean of
        # the normalized values is exactly 1/26
        values = {s.chapter: s.final_min for s in specs}
        values["26A"] = 1
        assert c_wals(values, specs) == pytest.approx(1 / 26)

    def test_mean_is_exact(self, specs):
        # the exact sum of the normalized values, rounded once; adding
        # them in order from 0.0 differs in the last bit for at least one
        # bundled language, so a return to in-order adding fails here
        matrix, _ = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
        table = dict(c_wals_table(matrix, specs))
        in_order_differs = 0
        for iso, values in zip(matrix.languages, matrix.values):
            row = dict(zip(matrix.features, values))
            normalized = [normalize_feature(row[s.chapter], s) for s in specs]
            mean = exact_sum(normalized) / len(specs)
            assert c_wals(row, specs) == table[iso] == mean
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
