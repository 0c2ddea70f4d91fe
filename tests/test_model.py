"""Construction-time invariants of the shared domain types."""
import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divscore.analysis import attach_gap
from divscore.cli import PROFILE_COLUMNS
from divscore.diversity import _minmax_report, feature_members
from divscore.grammar import MorphSpecSet, load_morph_specs
from divscore.ingest import CorpusSource, bundled_path, load_feature_matrix
from divscore.model import (
    MAX_GAP_EXAMPLES,
    BinOverlap,
    DeficitBin,
    DiversityReport,
    FeatureMatrix,
    GapReport,
    LanguageRecord,
    LanguageSet,
    MorphFeatureSpec,
    SurplusBin,
    TextProfile,
)
from divscore.textstats import TokenSequence, tokenize
from oracles import exact_sum

_ROW = BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0)
_SPEC = MorphFeatureSpec("22A", "x", "none", 0, 1)
_RECORD = LanguageRecord("aaa", "A")
#: One instance of each domain type, and one field it has.
_INSTANCES = {
    "LanguageRecord": (_RECORD, "iso"),
    "LanguageSet": (LanguageSet([_RECORD]), "members"),
    "TextProfile": (TextProfile("aaa", 1.0, 1.0, 0.0, 1, 0, 0), "ttr"),
    "MorphFeatureSpec": (_SPEC, "final_max"),
    "BinOverlap": (_ROW, "dataset"),
    "SurplusBin": (SurplusBin("bin1", 1.0), "excess"),
    "DeficitBin": (DeficitBin("bin0", 1.0, ("aaa",)), "examples"),
    "GapReport": (GapReport([], []), "deficit_bins"),
    "DiversityReport": (DiversityReport("jmm_syn", 0.5, [_ROW], 1.0), "per_bin"),
    "CorpusSource": (CorpusSource("aaa", "a.txt", "text"), "text"),
    "FeatureMatrix": (FeatureMatrix(["aaa"], ["f1"], [[1]]), "values"),
    "MorphSpecSet": (load_morph_specs(), "specs"),
    "TokenSequence": (TokenSequence("aaa", ["a"]), "tokens"),
}

#: Each construction check, fired with keyword arguments only. The checks
#: of LanguageRecord, TextProfile and GapReport are fired by keyword in
#: their own tests below.
_KEYWORD_CHECKS = {
    "set-duplicate": (lambda: LanguageSet(members=[_RECORD, _RECORD]), "duplicate iso"),
    "spec-chapter": (
        lambda: MorphFeatureSpec(
            chapter="", name="x", transformation="none", final_min=0, final_max=1
        ),
        "non-empty",
    ),
    "spec-transformation": (
        lambda: MorphFeatureSpec(
            chapter="22A", name="x", transformation="squaring", final_min=0, final_max=1
        ),
        "transformation",
    ),
    "spec-negative-min": (
        lambda: MorphFeatureSpec(
            chapter="22A", name="x", transformation="none", final_min=-1, final_max=1
        ),
        "non-negative",
    ),
    "spec-range": (
        lambda: MorphFeatureSpec(
            chapter="22A", name="x", transformation="none", final_min=2, final_max=1
        ),
        "final_min",
    ),
    "spec-byte": (
        lambda: MorphFeatureSpec(
            chapter="22A", name="x", transformation="none", final_min=0, final_max=256
        ),
        "at most 255",
    ),
    "report-name": (
        lambda: DiversityReport(score_name="gini", value=0.5, per_bin=[_ROW], normalization_c=1.0),
        "score_name",
    ),
    "report-value": (
        lambda: DiversityReport(
            score_name="jmm_syn", value=1.5, per_bin=[_ROW], normalization_c=1.0
        ),
        "lie in",
    ),
    "report-scalar": (
        lambda: DiversityReport(
            score_name="jmm_syn", value=0.5, per_bin=[_ROW], normalization_c=0.5
        ),
        "normalization",
    ),
    "report-empty": (
        lambda: DiversityReport(score_name="jmm_syn", value=0.5, per_bin=[], normalization_c=1.0),
        "sum to zero",
    ),
    "report-sums": (
        lambda: DiversityReport(
            score_name="jmm_syn", value=0.4, per_bin=[_ROW], normalization_c=1.0
        ),
        "does not equal",
    ),
    "corpus-iso": (lambda: CorpusSource(iso="x", path="p", text="t"), "three ASCII"),
    "specset-size": (lambda: MorphSpecSet(specs=[_SPEC]), "exactly 26"),
    "specset-duplicate": (lambda: MorphSpecSet(specs=[_SPEC] * 26), "duplicate chapter"),
    "tokens-iso": (lambda: TokenSequence(iso="x", tokens=["a"]), "three ASCII"),
    "tokens-alnum": (lambda: TokenSequence(iso="aaa", tokens=["--"]), "alphanumeric"),
}


class TestConstruction:
    """Every domain type checks its fields when built and is immutable after."""

    @pytest.mark.parametrize("name", sorted(_INSTANCES))
    def test_fields_cannot_be_assigned(self, name):
        obj, field = _INSTANCES[name]
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is before

    @pytest.mark.parametrize("case", sorted(_KEYWORD_CHECKS))
    def test_checks_fire_with_keywords(self, case):
        build, message = _KEYWORD_CHECKS[case]
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda iso: LanguageRecord(iso, "x"),
            lambda iso: TextProfile(iso, 1.0, 1.0, 0.0, 1, 0, 0),
            lambda iso: CorpusSource(iso, "p", "t"),
            lambda iso: TokenSequence(iso, ["a"]),
            lambda iso: tokenize("ab cd", iso),
        ],
        ids=["record", "profile", "corpus", "tokens", "tokenize"],
    )
    def test_iso_with_a_final_line_break_rejected(self, build):
        # a pattern ending in `$` would match "abc\n": `$` also matches
        # before a final line break
        assert build("abc").iso == "abc"
        with pytest.raises(ValueError, match="three ASCII lowercase"):
            build("abc\n")


def _seeded_floats(n, seed):
    """n floats over 16 decades of both signs, so that any change of
    summation order shows in the last bits."""
    rng = random.Random(seed)
    return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]


class TestExactSum:
    # The pinned lengths sit on each side of numpy's 8-term unroll and
    # 128-term block. Adding [1e16, 1.0, -1e16] in order or in numpy's
    # order gives 0.0, its exact sum is 1.0. Over [1.0, 2**-53, 2**-53]
    # adding in order loses both small terms, so the score moves.
    @given(xs=st.builds(_seeded_floats, st.integers(0, 1000), st.integers(0, 2**32 - 1)))
    @example(xs=_seeded_floats(7, 0))
    @example(xs=_seeded_floats(8, 0))
    @example(xs=_seeded_floats(9, 0))
    @example(xs=_seeded_floats(128, 0))
    @example(xs=_seeded_floats(129, 0))
    @example(xs=_seeded_floats(136, 0))
    @example(xs=_seeded_floats(257, 0))
    @example(xs=[1e16, 1.0, -1e16])
    @example(xs=[1.0, 2.0**-53, 2.0**-53])
    def test_scorer_sums_are_exact_property(self, xs):
        """The scorers sum with math.fsum: the float nearest the exact sum.
        A min-max table of |x| against 1.0 per row scores the exact
        sum(min) over the exact sum(max)."""
        assert math.fsum(xs) == exact_sum(xs)
        if not xs:
            return
        wd, wr = [abs(x) for x in xs], [1.0] * len(xs)
        report = _minmax_report("jmm_syn", [f"f{i}" for i in range(len(xs))], wd, wr, 1, 1)
        lo, hi = list(map(min, wd, wr)), list(map(max, wd, wr))
        assert report.value == exact_sum(lo) / exact_sum(hi)


class TestLanguageRecord:
    def test_minimal(self):
        rec = LanguageRecord(iso="deu", name="German")
        assert rec.family is None
        assert rec.endangerment is None
        assert rec.script_scale == 1.0

    def test_defaults(self):
        assert tuple(LanguageRecord("deu", "German"))[2:] == (None, None, 1.0)

    @pytest.mark.parametrize("iso", ["", "de", "DEU", "de1", "deuu", "d-u"])
    def test_rejects_bad_iso(self, iso):
        with pytest.raises(ValueError, match="three ASCII lowercase letters"):
            LanguageRecord(iso=iso, name="x")

    def test_rejects_unknown_endangerment(self):
        with pytest.raises(ValueError, match="endangerment"):
            LanguageRecord(iso="abc", name="x", endangerment="doomed")

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="script_scale"):
            LanguageRecord(iso="abc", name="x", script_scale=scale)

    def test_fractional_scale_allowed(self):
        # scales below 1 are legal in the registry; profiles reject the
        # resulting sub-1 means at their own construction site
        assert LanguageRecord(iso="abc", name="x", script_scale=0.45).script_scale == 0.45


class TestLanguageSet:
    def test_lookup_and_iteration(self):
        a = LanguageRecord(iso="aaa", name="A")
        b = LanguageRecord(iso="bbb", name="B")
        ls = LanguageSet([a, b])
        assert len(ls) == 2
        assert list(ls) == [a, b]
        assert "aaa" in ls and "ccc" not in ls
        assert ls.get("bbb") is b
        with pytest.raises(KeyError):
            ls.get("ccc")

    def test_rejects_duplicate_iso(self):
        a = LanguageRecord(iso="aaa", name="A")
        with pytest.raises(ValueError, match="duplicate iso"):
            LanguageSet([a, LanguageRecord(iso="aaa", name="A again")])

    def test_empty_set_constructs(self):
        assert len(LanguageSet([])) == 0


class TestTextProfile:
    def _make(self, **kw):
        base = dict(
            iso="deu",
            mean_word_length=4.5,
            ttr=0.5,
            unigram_entropy=3.0,
            token_count=100,
            sample_offset=0,
            seed=0,
        )
        base.update(kw)
        return TextProfile(**base)

    def test_valid(self):
        assert self._make().mean_word_length == 4.5

    def test_tuple_follows_profile_columns(self):
        """The profile command writes ``tuple(profile)`` under PROFILE_COLUMNS."""
        p = self._make(mean_word_length=4.5, ttr=0.25, unigram_entropy=3.0, sample_offset=7, seed=9)
        assert dict(zip(PROFILE_COLUMNS, tuple(p))) == {
            "iso": p.iso,
            "mwl": p.mean_word_length,
            "ttr": p.ttr,
            "entropy": p.unigram_entropy,
            "token_count": p.token_count,
            "offset": p.sample_offset,
            "seed": p.seed,
        }

    def test_rejects_sub_one_mwl(self):
        with pytest.raises(ValueError, match="mean_word_length"):
            self._make(mean_word_length=0.9)

    @pytest.mark.parametrize("mwl", [float("inf"), float("nan")])
    def test_rejects_non_finite_mwl(self, mwl):
        with pytest.raises(ValueError, match="mean_word_length must be finite"):
            self._make(mean_word_length=mwl)

    @pytest.mark.parametrize("ttr", [0.0, 1.0001, -0.1])
    def test_rejects_bad_ttr(self, ttr):
        with pytest.raises(ValueError, match="ttr"):
            self._make(ttr=ttr)

    def test_rejects_entropy_above_log2_n(self):
        with pytest.raises(ValueError, match="exceeds log2"):
            self._make(unigram_entropy=7.0, token_count=100)

    def test_entropy_at_bound_accepted(self):
        # all-distinct sample: H = log2(N) exactly
        prof = self._make(unigram_entropy=math.log2(16), token_count=16, ttr=1.0)
        assert prof.token_count == 16

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError, match="sample_offset"):
            self._make(sample_offset=-1)


def _load_matrix(tmp_path, text, specs=None):
    path = tmp_path / "m.csv"
    path.write_text(text)
    return load_feature_matrix(path, specs=specs)[0]


def _matrix_error(tmp_path, text):
    """The error of loading ``text`` as a binary matrix, after the file
    and row prefix ``feature matrix <path> ``."""
    with pytest.raises(ValueError) as exc:
        _load_matrix(tmp_path, text)
    prefix = f"feature matrix {tmp_path / 'm.csv'} "
    assert str(exc.value).startswith(prefix), str(exc.value)
    return str(exc.value)[len(prefix) :]


class TestFeatureMatrix:
    """A FeatureMatrix holds what ``load_feature_matrix`` proved; each
    rule on its cells, shape and languages is checked on a loaded file."""

    def test_roundtrip_access(self):
        m = FeatureMatrix(
            languages=["aaa", "bbb"],
            features=["f1", "f2", "f3"],
            values=[[1, 0, 1], [0, 1, 1]],
        )
        assert m.n_languages == 2 and m.features == ("f1", "f2", "f3")
        assert m.totals == (1, 1, 2)
        assert m.values == (b"\x01\x00\x01", b"\x00\x01\x01")

    def test_values_read_only(self):
        cells = [[1, 0]]
        m = FeatureMatrix(["aaa"], ["f1", "f2"], cells)
        cells[0][0] = 0
        assert m.values == (b"\x01\x00",)
        assert m.totals == (1, 0)
        with pytest.raises(TypeError):
            m.values[0][0] = 0
        with pytest.raises(TypeError):
            m.values[0] = b"\x00\x00"
        assert m.values == (b"\x01\x00",)

    @given(
        width=st.integers(1, 300),
        rows=st.integers(1, 50),
        binary=st.booleans(),
        count_zeros=st.booleans(),
        data=st.data(),
    )
    def test_totals_and_members_property(self, width, rows, binary, count_zeros, data):
        """``totals`` are the per-column sums of rows of any width and any
        cells in 0-255, and ``feature_members`` lists the first
        MAX_GAP_EXAMPLES languages in iso order whose cell is the value a
        row counts."""
        isos = data.draw(
            st.lists(
                st.text("abcdefgh", min_size=3, max_size=3),
                min_size=rows,
                max_size=rows,
                unique=True,
            )
        )
        raw = data.draw(st.binary(min_size=rows * width, max_size=rows * width))
        if binary:
            raw = bytes(b & 1 for b in raw)
        cells = [list(raw[i : i + width]) for i in range(0, len(raw), width)]
        features = [f"f{j}" for j in range(width)]
        m = FeatureMatrix(isos, features, cells)
        assert m.values == tuple(map(bytes, cells))
        assert m.totals == tuple(sum(row[j] for row in cells) for j in range(width))
        expected = {}
        for j, f in enumerate(features):
            for value in (1, 0) if count_zeros else (1,):
                label = f"{f}={value}" if count_zeros else f
                shown = [iso for iso, row in sorted(zip(isos, cells)) if row[j] == value]
                expected[label] = shown[:MAX_GAP_EXAMPLES]
        assert feature_members(m, count_zeros) == expected

    def test_rejects_non_binary_cells_in_binary_kind(self, tmp_path):
        """Without specs a matrix is binary."""
        reason = _matrix_error(tmp_path, "iso,f1,f2\naaa,1,2\n")
        assert reason == "row 2: binary feature (aaa, f2) must be 0 or 1, got 2"

    def test_ordinal_kind_allows_larger_values(self):
        """With specs a cell may take any value in its chapter's range."""
        specs = load_morph_specs()
        m, _ = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
        assert max(map(max, m.values)) > 1

    def test_rejects_float_values(self, tmp_path):
        reason = _matrix_error(tmp_path, "iso,f1\naaa,0.5\n")
        assert reason == "row 2: value for (aaa, f1) must be an integer or '?', got '0.5'"

    @pytest.mark.parametrize(
        "cells, name", [(["1", "True"], "bool"), (["True", "1"], "bool"), (["1", "1.0"], "float")]
    )
    def test_rejects_cells_equal_to_an_int(self, tmp_path, cells, name):
        """A cell spelling a bool or a float equal to 1 is rejected, also
        after a 1: each distinct spelling is parsed on its own."""
        j, bad = next((j, c) for j, c in enumerate(cells, start=1) if c != "1")
        reason = _matrix_error(tmp_path, f"iso,f1,f2\naaa,{','.join(cells)}\n")
        assert reason == f"row 2: value for (aaa, f{j}) must be an integer or '?', got {bad!r}"

    def test_rejects_shape_mismatch(self, tmp_path):
        reason = _matrix_error(tmp_path, "iso,f1,f2\naaa,1,0\nbbb,1\n")
        assert reason == "row 3: expected 3 columns, got 2"

    def test_rejects_duplicate_languages(self, tmp_path):
        reason = _matrix_error(tmp_path, "iso,f1\naaa,1\naaa,0\n")
        assert reason == "row 3: duplicate iso 'aaa', first at row 2"


class TestMorphFeatureSpec:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="final_min"):
            MorphFeatureSpec("22A", "x", "none", final_min=5, final_max=1)

    def test_final_max_fits_one_byte(self):
        """A final range ends at 255 or below, the largest cell a byte row
        of a FeatureMatrix holds."""
        assert MorphFeatureSpec("22A", "x", "none", 0, 255).final_max == 255
        with pytest.raises(ValueError) as exc:
            MorphFeatureSpec("22A", "x", "none", final_min=0, final_max=256)
        assert str(exc.value) == "final_max 256 for chapter 22A must be at most 255"

    def test_rejects_unknown_transformation(self):
        with pytest.raises(ValueError, match="transformation"):
            MorphFeatureSpec("22A", "x", "squaring", 0, 1)


class TestReports:
    def test_bin_overlap_dict_round_trip(self):
        row = BinOverlap(label="bin4", dataset=2.5, reference=1.0, min_weight=1.0, max_weight=2.5)
        d = row.to_dict()
        assert d == {"bin": "bin4", "dataset": 2.5, "reference": 1.0, "min": 1.0, "max": 2.5}
        assert json.loads(json.dumps(d)) == d

    def test_gap_report_rejects_label_in_both_sides(self):
        with pytest.raises(ValueError, match="at most one"):
            GapReport(
                surplus_bins=[SurplusBin("bin1", 1.0)],
                deficit_bins=[DeficitBin("bin1", 1.0, ("aaa",))],
            )

    def test_diversity_report_validates_per_bin_consistency(self):
        rows = (
            BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0),
            BinOverlap("bin1", 3.0, 1.0, 1.0, 3.0),
        )
        rep = DiversityReport("jmm_morph", 2.0 / 5.0, per_bin=rows, normalization_c=1.0)
        assert rep.value == pytest.approx(0.4)
        with pytest.raises(ValueError, match="sum\\(min\\)/sum\\(max\\)"):
            DiversityReport("jmm_morph", 0.5, per_bin=rows, normalization_c=1.0)

    _ROWS = (BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0),)

    def test_rejects_unknown_score_name(self):
        for name in ("gini", "ti_morph", "ti_syn", "c_wals"):
            with pytest.raises(ValueError, match="score_name"):
                DiversityReport(name, 0.5, per_bin=self._ROWS, normalization_c=1.0)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError, match="lie in"):
            DiversityReport("jmm_syn", 1.5, per_bin=self._ROWS, normalization_c=1.0)

    def test_rejects_sub_one_scalar(self):
        with pytest.raises(ValueError, match="normalization"):
            DiversityReport("jmm_syn", 0.5, per_bin=self._ROWS, normalization_c=0.5)

    def test_attach_gap_keeps_the_score_and_checks_again(self):
        rows = (BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0), BinOverlap("bin1", 3.0, 1.0, 1.0, 3.0))
        rep = DiversityReport("jmm_morph", 0.4, per_bin=list(rows), normalization_c=1.5)
        assert rep.per_bin == rows
        out = attach_gap(rep, {"bin0": ["aaa"]})
        assert type(out) is DiversityReport
        assert (out.score_name, out.value, out.per_bin, out.normalization_c) == tuple(rep[:4])
        assert out.gap.to_dict() == {
            "surplus": [{"bin": "bin1", "excess": 2.0}],
            "deficit": [{"bin": "bin0", "shortfall": 1.0, "examples": ["aaa"]}],
        }
        # _replace skips the checks; attach_gap builds anew, so they run
        with pytest.raises(ValueError, match="does not equal"):
            attach_gap(rep._replace(value=0.5), {})

    def test_report_dict_round_trip(self):
        """A record reaches JSON only through ``to_dict``: passed whole to
        ``json.dumps`` it would be written as a list. The dict holds lists,
        not tuples, so it survives the round trip unchanged."""
        rows = (BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0),)
        gap = GapReport(
            surplus_bins=[],
            deficit_bins=[DeficitBin("bin0", 1.0, ("aaa", "bbb"))],
        )
        rep = DiversityReport(
            score_name="jmm_morph", value=0.5, per_bin=rows, normalization_c=2.0, gap=gap
        )
        d = rep.to_dict()
        assert d == {
            "score_name": "jmm_morph",
            "value": 0.5,
            "normalization_c": 2.0,
            "per_bin": [{"bin": "bin0", "dataset": 1.0, "reference": 2.0, "min": 1.0, "max": 2.0}],
            "gap": {
                "surplus": [],
                "deficit": [{"bin": "bin0", "shortfall": 1.0, "examples": ["aaa", "bbb"]}],
            },
        }
        assert json.loads(json.dumps(d)) == d
