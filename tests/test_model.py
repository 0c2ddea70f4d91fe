"""Construction-time invariants of the shared domain types."""
import copy
import json
import math
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divscore import model
from divscore.analysis import attach_gap
from divscore.cli import PROFILE_COLUMNS
from divscore.diversity import feature_rows, feature_side, gap_members
from divscore.grammar import load_morph_specs
from divscore.ingest import CorpusSource, bundled_path, load_feature_matrix, load_registry
from divscore.model import (
    MAX_GAP_EXAMPLES,
    BinOverlap,
    DiversityReport,
    FeatureMatrix,
    LanguageRecord,
    MorphFeatureSpec,
    Side,
    TextProfile,
)
from oracles import exact_sum

_ROW = BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0)
#: One row counting 1 of 2 languages on one side and 1 of 1 on the
#: other, which c = 2 scales to the table of `_ROW`.
_SIDES = (Side(2, ["bin0"], [1]), Side(1, ["bin0"], [1]))
_SPEC = MorphFeatureSpec("22A", 0, 1)
#: One instance of each domain type, and one field it has.
_INSTANCES = {
    "LanguageRecord": (LanguageRecord("aaa"), "iso"),
    "TextProfile": (TextProfile("aaa", 1.0, 1.0, 0.0, 1, 0, 0), "ttr"),
    "MorphFeatureSpec": (_SPEC, "final_max"),
    "BinOverlap": (_ROW, "dataset"),
    "Side": (_SIDES[0], "counts"),
    "DiversityReport": (DiversityReport("jmm_syn", *_SIDES), "per_bin"),
    "CorpusSource": (CorpusSource("aaa", "text"), "text"),
    "FeatureMatrix": (FeatureMatrix(["aaa"], ["f1"], [[1]]), "values"),
}


def _file(name, text):
    """``text`` written to ``name`` in the working directory, which the
    check tests set to a temporary one."""
    Path(name).write_text(text, encoding="utf-8")
    return Path(name)


def _spec_file(chapters):
    """A spec file with one row per chapter."""
    rows = "".join(f"{c},x,none,0,1\n" for c in chapters)
    return _file("specs.csv", "chapter,name,transformation,final_min,final_max\n" + rows)


#: Each construction check, fired with keyword arguments only. The checks
#: of LanguageRecord and TextProfile are fired by keyword in their own
#: tests below. The registry and the spec set are checked by
#: their loaders, so those checks load a file.
_KEYWORD_CHECKS = {
    "set-duplicate": (
        lambda: load_registry(path=_file("registry.csv", "iso\naaa\naaa\n")),
        "duplicate iso",
    ),
    "spec-chapter": (lambda: MorphFeatureSpec(chapter="", final_min=0, final_max=1), "non-empty"),
    "spec-negative-min": (
        lambda: MorphFeatureSpec(chapter="22A", final_min=-1, final_max=1),
        "non-negative",
    ),
    "spec-range": (lambda: MorphFeatureSpec(chapter="22A", final_min=2, final_max=1), "final_min"),
    "spec-byte": (
        lambda: MorphFeatureSpec(chapter="22A", final_min=0, final_max=256),
        "at most 255",
    ),
    "report-name": (
        lambda: DiversityReport(score_name="gini", dataset=_SIDES[0], reference=_SIDES[1]),
        "score_name",
    ),
    # a count above the side's size, which could put the value above 1
    "report-value": (lambda: Side(n=1, keys=["bin0"], counts=[2]), "lie in"),
    # a side of no languages, which leaves c = max(n) / min(n) undefined
    "report-scalar": (lambda: Side(n=0, keys=[], counts=[]), "positive"),
    "report-empty": (
        lambda: DiversityReport(
            score_name="jmm_syn", dataset=Side(1, ["s1"], [0]), reference=Side(1, ["s1"], [0])
        ),
        "sum to zero",
    ),
    "report-rows": (
        lambda: DiversityReport(
            score_name="jmm_syn", dataset=_SIDES[0], reference=Side(2, ["bin1"], [2])
        ),
        "rows differ",
    ),
    "corpus-iso": (lambda: CorpusSource(iso="x", text="t"), "three ASCII"),
    "specset-size": (
        lambda: load_morph_specs(path=_spec_file([f"{i}A" for i in range(25)])),
        "exactly 26",
    ),
    "specset-duplicate": (
        lambda: load_morph_specs(path=_spec_file(["22A"] * 26)),
        "duplicate chapter",
    ),
}


class TestConstruction:
    """Every domain type is immutable once built, and every one but
    FeatureMatrix, whose loader checks its rows, checks its fields when
    built."""

    def test_every_type_is_a_slotted_tuple(self):
        """One idiom: each record is a tuple subclass with empty ``__slots__``."""
        types = [t for t in vars(model).values() if isinstance(t, type)]
        types = [t for t in types if t.__module__ == model.__name__]
        assert {t.__name__ for t in types} == set(_INSTANCES) - {"CorpusSource"}
        for t in types:
            assert issubclass(t, tuple) and vars(t).get("__slots__") == (), t.__name__

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

    @pytest.mark.parametrize("name", sorted(_INSTANCES))
    def test_copy_deepcopy_and_pickle_rebuild_an_equal_record(self, name):
        """A record with checks or derived fields in ``__new__`` survives
        ``copy``, ``deepcopy`` and a ``pickle`` round trip: each rebuilds
        it through ``__new__`` from ``__getnewargs__``."""
        obj, _ = _INSTANCES[name]
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj

    @pytest.mark.parametrize("case", sorted(_KEYWORD_CHECKS))
    def test_checks_fire_with_keywords(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build, message = _KEYWORD_CHECKS[case]
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda iso: LanguageRecord(iso),
            lambda iso: TextProfile(iso, 1.0, 1.0, 0.0, 1, 0, 0),
            lambda iso: CorpusSource(iso, "t"),
        ],
        ids=["record", "profile", "corpus"],
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
        """The typological indices sum with math.fsum: the float nearest
        the exact sum. (The minmax scores sum ints and divide once;
        `tests/test_diversity.py::TestExactRatio` checks them.)"""
        assert math.fsum(xs) == exact_sum(xs)


class TestLanguageRecord:
    def test_minimal(self):
        rec = LanguageRecord(iso="deu")
        assert rec.family is None
        assert rec.script_scale == 1.0

    def test_defaults(self):
        assert tuple(LanguageRecord("deu")) == ("deu", None, 1.0)

    @pytest.mark.parametrize("iso", ["", "de", "DEU", "de1", "deuu", "d-u"])
    def test_rejects_bad_iso(self, iso):
        with pytest.raises(ValueError, match="three ASCII lowercase letters"):
            LanguageRecord(iso=iso)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="script_scale"):
            LanguageRecord(iso="abc", script_scale=scale)

    def test_fractional_scale_allowed(self):
        # scales below 1 are legal in the registry; profiles reject the
        # resulting sub-1 means at their own construction site
        assert LanguageRecord(iso="abc", script_scale=0.45).script_scale == 0.45


class TestLanguageSet:
    """The language set a registry loads to: a dict iso -> LanguageRecord
    in file order."""

    def test_lookup_and_iteration(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso,name\nbbb,B\naaa,A\n", encoding="utf-8")
        ls = load_registry(path)
        a, b = LanguageRecord(iso="aaa"), LanguageRecord(iso="bbb")
        assert len(ls) == 2
        assert list(ls.values()) == [b, a]
        assert "aaa" in ls and "ccc" not in ls
        assert ls["aaa"] == a
        with pytest.raises(KeyError):
            ls["ccc"]

    def test_rejects_duplicate_iso(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso,name\naaa,A\n\naaa,A again\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 4: duplicate iso 'aaa', first at row 2"):
            load_registry(path)

    def test_empty_set_constructs(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso,family,script_scale\n", encoding="utf-8")
        assert load_registry(path) == {}


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
        rows=st.integers(1, 300).flatmap(
            lambda width: st.lists(
                st.tuples(
                    st.text("abcdefgh", min_size=3, max_size=3),
                    st.binary(min_size=width, max_size=width),
                ),
                min_size=1,
                max_size=50,
                unique_by=lambda row: row[0],
            )
        ),
        binary=st.booleans(),
        count_zeros=st.booleans(),
    )
    # 0/1 cells but a single 2: the totals are sums, not counts of 1s
    @example(
        rows=[("abc", b"\1\0"), ("aaa", b"\0\2"), ("bcd", b"\1\1")], binary=False, count_zeros=False
    )
    @example(rows=[("abc", b"\1"), ("aaa", b"\0"), ("bcd", b"\1")], binary=True, count_zeros=True)
    @example(rows=[("abc", b"\1\0\1\1")], binary=True, count_zeros=True)
    def test_totals_and_members_property(self, rows, binary, count_zeros):
        """``totals`` are the per-column sums of rows of any width and any
        cells in 0-255, a binary matrix's counted as 1s, and
        ``gap_members`` over ``feature_rows`` lists the first
        MAX_GAP_EXAMPLES languages in iso order whose cell is the value a
        row counts."""
        isos = [iso for iso, _ in rows]
        cells = [[b & 1 for b in raw] if binary else list(raw) for _, raw in rows]
        width = len(cells[0])
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
        if not binary:
            return  # a syn side counts a binary matrix alone
        if not (count_zeros or any(m.totals)):
            with pytest.raises(ValueError, match="positive total"):
                feature_side(m, count_zeros)
            return
        side = feature_side(m, count_zeros)
        assert gap_members(side, isos, feature_rows(side, m)) == expected

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
            MorphFeatureSpec("22A", final_min=5, final_max=1)

    def test_final_max_fits_one_byte(self):
        """A final range ends at 255 or below, the largest cell a byte row
        of a FeatureMatrix holds."""
        assert MorphFeatureSpec("22A", 0, 255).final_max == 255
        with pytest.raises(ValueError) as exc:
            MorphFeatureSpec("22A", final_min=0, final_max=256)
        assert str(exc.value) == "final_max 256 for chapter 22A must be at most 255"


class TestReports:
    def test_bin_overlap_dict_round_trip(self):
        row = BinOverlap(label="bin4", dataset=2.5, reference=1.0, min_weight=1.0, max_weight=2.5)
        d = row.to_dict()
        assert d == {"bin": "bin4", "dataset": 2.5, "reference": 1.0, "min": 1.0, "max": 2.5}
        assert json.loads(json.dumps(d)) == d

    def test_diversity_report_validates_per_bin_consistency(self):
        rows = (
            BinOverlap("bin0", 1.0, 2.0, 1.0, 2.0),
            BinOverlap("bin1", 3.0, 1.0, 1.0, 3.0),
        )
        rep = DiversityReport("jmm_morph", Side(4, [0, 1], [1, 3]), Side(4, [0, 1], [2, 1]))
        assert rep.per_bin == rows
        assert rep.value == pytest.approx(0.4)
        with pytest.raises(ValueError, match="rows differ"):
            DiversityReport("jmm_morph", Side(4, [0, 1], [1, 3]), Side(4, [0, 2], [2, 1]))

    def test_value_is_the_exact_int_ratio(self):
        """The value is the counts' exact ratio rounded once, not a ratio
        of rounded float weights: 2 of 3 against 3 of 5 languages scales
        to 10/3 against 3, whose float weights give 0.8999999999999999."""
        rep = DiversityReport("jmm_morph", Side(3, [0], [2]), Side(5, [0], [3]))
        assert rep.normalization_c == 5 / 3
        assert rep.value == 9 / 10 == 0.9
        assert rep.per_bin[0].min_weight / rep.per_bin[0].max_weight == 0.8999999999999999

    _SIDES = (Side(2, ["bin0"], [1]), Side(2, ["bin0"], [2]))

    def test_rejects_unknown_score_name(self):
        for name in ("gini", "ti_morph", "ti_syn", "c_wals"):
            with pytest.raises(ValueError, match="score_name"):
                DiversityReport(name, *self._SIDES)

    def test_rejects_out_of_range_value(self):
        """A count above its side's size, which could score above 1."""
        with pytest.raises(ValueError, match="lie in"):
            DiversityReport("jmm_syn", Side(1, ["s1"], [2]), Side(1, ["s1"], [1]))

    def test_rejects_sub_one_scalar(self):
        """A side of no languages, for which c = max(n) / min(n) is not >= 1."""
        with pytest.raises(ValueError, match="positive"):
            DiversityReport("jmm_syn", Side(0, ["s1"], [0]), Side(1, ["s1"], [1]))

    def test_attach_gap_keeps_the_score_and_checks_again(self):
        """The gap is read off the report's rows as the JSON prints them;
        the report is left as it was, and building it again from its sides,
        which runs the checks again, gives the same report."""
        rows = (BinOverlap("bin0", 1.5, 2.0, 1.5, 2.0), BinOverlap("bin1", 3.0, 1.0, 1.0, 3.0))
        rep = DiversityReport("jmm_morph", Side(2, [0, 1], [1, 2]), Side(3, [0, 1], [2, 1]))
        before = tuple(rep)
        assert rep.per_bin == rows
        assert rep.normalization_c == 1.5
        gap = attach_gap(rep, {0: ["aaa"]})
        assert tuple(rep) == before
        assert DiversityReport(*rep[:3]) == rep
        assert gap == {
            "surplus": [{"bin": "bin1", "excess": 2.0}],
            "deficit": [{"bin": "bin0", "shortfall": 0.5, "examples": ["aaa"]}],
        }
        assert rep.to_dict(gap)["gap"] is gap
        assert rep.to_dict(gap) == {**rep.to_dict(), "gap": gap}

    def test_derived_fields_are_built_once(self):
        """``value``, ``normalization_c`` and ``per_bin`` are fields, set
        when the report is built: every read returns the same objects."""
        rep = DiversityReport("jmm_morph", Side(2, [0, 1], [1, 2]), Side(3, [0, 1], [2, 1]))
        assert rep._fields == (
            "score_name", "dataset", "reference", "value", "normalization_c", "per_bin"
        )
        assert rep.per_bin is rep.per_bin and rep.value is rep.value
        assert type(rep.per_bin) is tuple
        # a copy or a pickle builds the report again from its name and sides
        assert copy.copy(rep) == rep == pickle.loads(pickle.dumps(rep))

    def test_report_dict_round_trip(self):
        """A record reaches JSON only through ``to_dict``: passed whole to
        ``json.dumps`` it would be written as a list. The dict holds lists,
        not tuples, so it survives the round trip unchanged."""
        rep = DiversityReport(
            score_name="jmm_morph", dataset=Side(2, [0], [1]), reference=Side(1, [0], [1])
        )
        assert rep.to_dict()["gap"] is None
        gap = attach_gap(rep, {0: ("aaa", "bbb")})
        d = rep.to_dict(gap)
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
