"""File loaders: registries, feature matrices, corpora, and small tables."""
import csv
import io
import itertools
import math
import os
import re
import string
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divscore.cli import PROFILE_COLUMNS
from divscore.grammar import load_morph_specs
from divscore.ingest import (
    _plain_lines,
    _read_table,
    bundled_path,
    family_breakdown,
    load_corpus,
    load_feature_matrix,
    load_iso_list,
    load_numeric_table,
    load_registry,
)
from divscore.model import LanguageRecord, MorphFeatureSpec
from divscore.textstats import tokenize
from oracles import read_csv_table
from support import run_main


class TestRegistry:
    def test_full_round_trip(self, tmp_path):
        """The family and script_scale of a hand-written registry reach
        their records, by iso in file order."""
        p = tmp_path / "reg.csv"
        p.write_text(
            "iso,name,family,endangerment,script_scale\n"
            "aaa,Alpha,F1,safe,\n"
            '"bbb","Beta, with comma",,,2.4\n'
            "ccc,Gamma,,,\n"
        )
        registry = load_registry(p)
        assert registry == {
            "aaa": LanguageRecord("aaa", family="F1"),
            "bbb": LanguageRecord("bbb", script_scale=2.4),
            "ccc": LanguageRecord("ccc"),
        }
        assert list(registry) == ["aaa", "bbb", "ccc"]

    def test_two_column_header_accepted(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name\nabc,Abc Language\n")
        assert load_registry(p) == {"abc": LanguageRecord("abc", None, 1.0)}

    def test_blank_optional_fields_default(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name,family,endangerment,script_scale\nabc,Abc,,,\n")
        rec = load_registry(p)["abc"]
        assert (rec.family, rec.script_scale) == (None, 1.0)

    def test_columns_read_by_name_others_ignored(self, tmp_path):
        """family and script_scale are found by name in any order; a
        column that is not read, such as endangerment, may hold anything."""
        p = tmp_path / "reg.csv"
        p.write_text("iso,script_scale,endangerment,note,family\nabc,2.5,doomed,n,F\n")
        assert load_registry(p) == {"abc": LanguageRecord("abc", "F", 2.5)}
        p.write_text("iso\nabc\n")
        assert load_registry(p) == {"abc": LanguageRecord("abc")}
        p.write_text("iso,family\n")
        assert load_registry(p) == {}

    def test_error_names_row_number(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name\naaa,Ok\nZZZ,Bad\n")
        with pytest.raises(ValueError, match="row 3"):
            load_registry(p)

    def test_rejects_wrong_header_order(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("name,iso\nX,abc\n")
        with pytest.raises(ValueError, match="header"):
            load_registry(p)

    def test_rejects_non_numeric_scale(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name,family,endangerment,script_scale\nabc,X,,,big\n")
        with pytest.raises(ValueError, match="script_scale"):
            load_registry(p)


class TestFeatureMatrixLoading:
    def test_loads_binary_matrix(self, fixtures):
        m, dropped = load_feature_matrix(fixtures / "syn_dataset.csv")
        assert dropped == []
        assert m.languages == ("qda", "qdb", "qdc", "qdd", "qde")
        assert m.features == ("s1", "s2", "s3", "s4", "s5", "s6")
        assert m.values[0] == b"\x01\x00\x01\x00\x01\x00"

    def test_loaded_matrix_is_immutable(self, fixtures):
        m, _ = load_feature_matrix(fixtures / "syn_dataset.csv")
        for field in ("languages", "features", "values", "totals"):
            before = getattr(m, field)
            with pytest.raises(AttributeError):
                setattr(m, field, ())
            assert getattr(m, field) is before

    def test_missing_cells_fatal_by_default(self, fixtures):
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(fixtures / "syn_missing.csv")
        msg = str(exc.value)
        assert "(qrc, s2)" in msg and "(qrg, s6)" in msg
        assert "--drop-incomplete" in msg

    def test_drop_incomplete_returns_dropped_isos(self, fixtures):
        m, dropped = load_feature_matrix(fixtures / "syn_missing.csv", drop_incomplete=True)
        assert dropped == ["qrc", "qrg"]
        assert "qrc" not in m.languages and "qrg" not in m.languages
        assert m.n_languages == 6

    def test_rejects_non_binary_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,2\n")
        with pytest.raises(ValueError, match=r"\(aaa, f1\)"):
            load_feature_matrix(p)

    def test_rejects_non_integer_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,many\n")
        with pytest.raises(ValueError, match="integer"):
            load_feature_matrix(p)

    def test_specs_reject_unknown_column(self, tmp_path):
        from divscore.grammar import load_morph_specs

        specs = load_morph_specs()
        header = "iso," + ",".join([s.chapter for s in specs[:-1]] + ["999Z"])
        row = "abc," + ",".join("0" for _ in specs)
        p = tmp_path / "m.csv"
        p.write_text(header + "\n" + row + "\n")
        with pytest.raises(ValueError, match="999Z"):
            load_feature_matrix(p, specs=specs)

    def test_specs_reject_out_of_range_cell(self, tmp_path):
        from divscore.grammar import load_morph_specs

        specs = load_morph_specs()
        chapters = [s.chapter for s in specs]
        header = "iso," + ",".join(chapters)
        # every chapter's minimum, then push 22A (range 0..7) out of range
        row = ["abc"] + [str(s.final_min) for s in specs]
        row[1 + chapters.index("22A")] = "8"
        p = tmp_path / "m.csv"
        p.write_text(header + "\n" + ",".join(row) + "\n")
        message = r"^feature matrix \S+ row 2: value 8 for \(abc, 22A\) lies outside"
        with pytest.raises(ValueError, match=message):
            load_feature_matrix(p, specs=specs)

    def test_all_rows_dropped_is_fatal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,?\n")
        with pytest.raises(ValueError, match="no complete language rows"):
            load_feature_matrix(p, drop_incomplete=True)

    @pytest.mark.parametrize("header", ["iso", "lang,f1", "f1,iso"])
    def test_header_must_be_iso_then_features(self, header, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{header}\n" + ",".join(["qaa"] + ["1"] * header.count(",")) + "\n")
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(p)
        expect = "header must be 'iso' followed by feature identifiers"
        assert str(exc.value) == f"feature matrix {p} {expect}, got {header}"

    def test_cwals_names_the_matrix_missing_spec_chapters(self, tmp_path, capsys):
        specs = load_morph_specs()
        kept = [s for s in specs if s.chapter not in ("26A", "112A")]
        p = tmp_path / "m.csv"
        p.write_text(
            "iso," + ",".join(s.chapter for s in kept) + "\n"
            "abc," + ",".join(str(s.final_min) for s in kept) + "\n"
        )
        code, out, err = run_main(["cwals", "--dataset", str(p)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: feature matrix {p} is missing spec chapters: 112A, 26A\n"


class TestCorpus:
    def test_empty_file_is_fatal(self, tmp_path):
        p = tmp_path / "abc.txt"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="empty corpus"):
            load_corpus(p, "abc")

    def test_invalid_utf8_is_fatal(self, tmp_path):
        # the loader keeps the bytes; the tokenizer's strict decode fails,
        # at the bad byte's position in the file (3 in the distinct chunks)
        p = tmp_path / "abc.txt"
        p.write_bytes(b"ok ok \xff\xfe broken")
        corpus = load_corpus(p, "abc")
        assert corpus.text == b"ok ok \xff\xfe broken"
        with pytest.raises(UnicodeDecodeError) as exc:
            tokenize(corpus.text)
        assert (exc.value.start, exc.value.reason) == (6, "invalid start byte")

    def test_text_is_nfc_normalized(self, tmp_path):
        # the loader returns the file's bytes; the tokenizer decodes and
        # normalizes them
        p = tmp_path / "abc.txt"
        p.write_text("cafe\u0301\n", encoding="utf-8")  # decomposed accent
        corpus = load_corpus(p, "abc")
        assert corpus.text == "cafe\u0301\n".encode("utf-8")
        assert tokenize(corpus.text) == ("caf\u00e9",)


class TestFamilies:
    def _records(self):
        return [
            LanguageRecord("aaa", family="F1"),
            LanguageRecord("bbb", family="F2"),
            LanguageRecord("ccc", family="F1"),
            LanguageRecord("ddd"),
        ]

    def test_count_excludes_unlabeled(self):
        # an empty family label counts as no label
        records = [*self._records(), LanguageRecord("eee", family="")]
        families, unlabeled = family_breakdown(records)
        assert len(families) == 2
        assert unlabeled == ["ddd", "eee"]

    def test_breakdown_sorted(self):
        families, unlabeled = family_breakdown(self._records())
        assert families == {"F1": ["aaa", "ccc"], "F2": ["bbb"]}
        assert unlabeled == ["ddd"]


class TestSmallTables:
    def test_profile_table_round_trip(self, tmp_path):
        """The table `profile --format csv` writes is a per-language table;
        score reads its mwl column."""
        p = tmp_path / "profiles.csv"
        p.write_text(
            "iso,mwl,ttr,entropy,token_count,offset,seed\n"
            "aaa,4.5,0.5,3.0,100,7,0\n"
            "bbb,3.25,0.75,4.0,200,0,1\n"
        )
        assert load_numeric_table(p, ["mwl"]) == (
            ["mwl"],
            {"aaa": (4.5,), "bbb": (3.25,)},
        )

    def test_profile_table_rejects_duplicate_iso(self, tmp_path):
        p = tmp_path / "profiles.csv"
        p.write_text(
            "iso,mwl,ttr,entropy,token_count,offset,seed\n"
            "aaa,4.5,0.5,3.0,100,0,0\n"
            "aaa,4.5,0.5,3.0,100,0,0\n"
        )
        with pytest.raises(ValueError, match="duplicate iso"):
            load_numeric_table(p, ["mwl"])

    def test_profile_table_rejects_other_header(self, tmp_path):
        """A header without a requested column fails, showing the header."""
        p = tmp_path / "profiles.csv"
        p.write_text("iso,ttr,entropy\naaa,0.5,3.0\n")
        with pytest.raises(ValueError) as exc:
            load_numeric_table(p, ["mwl"])
        assert str(exc.value) == (
            f"table {p} header must be 'iso' first, with the column(s) mwl, got iso,ttr,entropy"
        )

    def test_numeric_table_header_must_start_with_iso(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("mwl,iso\n4.5,aaa\n")
        with pytest.raises(ValueError, match=r"header must be 'iso' first, .* got mwl,iso$"):
            load_numeric_table(p, ["mwl"])

    def test_numeric_table_skips_text_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iso,name,mwl,c_wals\nabc,Abc,4.5,0.5\nxyz,Xyz,3.0,0.25\n")
        cols, table = load_numeric_table(p, ["mwl", "c_wals"])
        assert cols == ["mwl", "c_wals"]
        assert table["abc"] == (4.5, 0.5)

    def test_numeric_table_rejects_duplicate_iso(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iso,v\nabc,1\nabc,2\n")
        with pytest.raises(ValueError, match="duplicate iso"):
            load_numeric_table(p, ["v"])

    def test_iso_list_comments_and_errors(self, tmp_path):
        p = tmp_path / "langs.txt"
        p.write_text("# header comment\naaa\nbbb # trailing note\n\n")
        assert load_iso_list(p) == ["aaa", "bbb"]
        p.write_text("aaa\nNOPE\n")
        with pytest.raises(ValueError, match="line 2"):
            load_iso_list(p)

    def test_profile_table_rejects_non_finite_mwl(self, tmp_path):
        p = tmp_path / "profiles.csv"
        p.write_text("iso,mwl,ttr,entropy,token_count,offset,seed\naaa,inf,0.5,3.0,100,0,0\n")
        with pytest.raises(ValueError) as exc:
            load_numeric_table(p, ["mwl"])
        assert str(exc.value) == f"table {p} row 2: mwl must be a finite number, got 'inf'"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_numeric_table_skips_non_finite_columns(self, tmp_path, cell):
        """A column that is not requested is not read, whatever it holds."""
        p = tmp_path / "t.csv"
        p.write_text(f"iso,x,y\nabc,1,2\nxyz,{cell},3\n")
        assert load_numeric_table(p, ["y"]) == (["y"], {"abc": (2.0,), "xyz": (3.0,)})

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "", "many", "1,5"])
    def test_numeric_table_rejects_non_finite_cell(self, tmp_path, cell):
        """One bad cell in a requested column fails its row; it does not
        hide the column."""
        p = tmp_path / "t.csv"
        _write_table(p, [["iso", "x", "y"], ["abc", "1", "2"], ["xyz", cell, "3"]])
        with pytest.raises(ValueError) as exc:
            load_numeric_table(p, ["y", "x"])
        assert str(exc.value) == f"table {p} row 3: x must be a finite number, got {cell!r}"


def _spec_table():
    with open(bundled_path("morph_feature_specs.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _matrix_fields(matrix, dropped):
    """A loaded matrix's fields and dropped rows, which compare by value."""
    return matrix.languages, matrix.features, matrix.values, dropped


#: Each CSV loader: the word its errors start with, a valid table (header
#: then rows, keyed by the first column), and a cell (column, text) that
#: makes a row invalid.
LOADERS = {
    "registry": (
        load_registry,
        "registry",
        [
            ["iso", "name", "family", "endangerment", "script_scale"],
            ["qaa", "A", "F1", "safe", "1.5"],
            ["qab", "B", "", "", ""],
        ],
        (4, "big"),
    ),
    "feature_matrix": (
        lambda p: _matrix_fields(*load_feature_matrix(p)),
        "feature matrix",
        [["iso", "f1", "f2"], ["qaa", "1", "0"], ["qab", "0", "1"]],
        (1, "2"),
    ),
    "profile_table": (
        lambda p: load_numeric_table(p, ["mwl"]),
        "table",
        [
            PROFILE_COLUMNS,
            ["qaa", "4.5", "0.5", "3.0", "100", "7", "0"],
            ["qab", "3.25", "0.75", "4.0", "200", "0", "1"],
        ],
        (1, "long"),
    ),
    "numeric_table": (
        lambda p: load_numeric_table(p, ["x"]),
        "table",
        [["iso", "name", "x"], ["qaa", "A", "1.5"], ["qab", "B", "2"]],
        (0, "QAB"),
    ),
    "morph_specs": (
        load_morph_specs,
        "morphology spec file",
        _spec_table(),
        (3, "low"),
    ),
}


def _write_table(path, table, bom=""):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    path.write_text(bom + buf.getvalue(), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(LOADERS))
class TestTableRules:
    """The rules every CSV loader shares, one test per rule."""

    def _fails(self, name, path, table, reason):
        loader, what, _, _ = LOADERS[name]
        _write_table(path, table)
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value).startswith(f"{what} {path} {reason}"), str(exc.value)

    def test_empty_file_has_no_header_row(self, name, tmp_path):
        self._fails(name, tmp_path / "t.csv", [], "has no header row")

    def test_bom_accepted(self, name, tmp_path):
        loader, _, table, _ = LOADERS[name]
        plain = loader(_write_table(tmp_path / "plain.csv", table))
        assert loader(_write_table(tmp_path / "bom.csv", table, bom="\ufeff")) == plain

    def test_duplicate_header_name(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        table = [row + [row[-1]] for row in table]
        self._fails(name, tmp_path / "t.csv", table, f"header repeats column(s): {table[0][-1]}")

    def test_empty_header_name(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        table = [table[0] + [""], *table[1:]]
        reason = f"header has an empty column name at column {len(table[0])}"
        self._fails(name, tmp_path / "t.csv", table, reason)

    def test_row_longer_than_header(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        table = [table[0], table[1] + ["extra"], *table[2:]]
        n = len(table[0])
        self._fails(name, tmp_path / "t.csv", table, f"row 2: expected {n} columns, got {n + 1}")

    def test_row_shorter_than_header(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        table = [table[0], table[1], table[2][:-1], *table[3:]]
        n = len(table[0])
        self._fails(name, tmp_path / "t.csv", table, f"row 3: expected {n} columns, got {n - 1}")

    def test_duplicate_key_names_both_rows(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        table = [*table, table[1]]
        key = f"{table[0][0]} {table[1][0]!r}"
        reason = f"row {len(table)}: duplicate {key}, first at row 2"
        self._fails(name, tmp_path / "t.csv", table, reason)

    def test_invalid_utf8_names_file(self, name, tmp_path):
        loader, what, table, _ = LOADERS[name]
        path = _write_table(tmp_path / "t.csv", table)
        path.write_bytes(path.read_bytes() + b"qzz,\xff\n")
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value).startswith(f"{what} {path} is not valid UTF-8: ")

    def test_unparsable_row_names_file_and_row(self, name, tmp_path):
        _, _, table, _ = LOADERS[name]
        bad = list(table[2])
        bad[1] = "x" * 200_000
        self._fails(name, tmp_path / "t.csv", [table[0], table[1], bad], "row 3: field larger")

    def test_row_error_names_file_and_row(self, name, tmp_path):
        _, _, table, (j, cell) = LOADERS[name]
        bad = list(table[2])
        bad[j] = cell
        self._fails(name, tmp_path / "t.csv", [table[0], table[1], bad, *table[3:]], "row 3: ")


def _padded(cell):
    """Strategy: ``cell`` with blanks around it, which every loader strips."""
    return st.tuples(st.sampled_from(["", " ", "  "]), st.sampled_from(["", " ", "\t"])).map(
        lambda pad: pad[0] + cell + pad[1]
    )


_TEXT = st.text("abxyz ,\"'é", min_size=1, max_size=6).filter(str.strip)
#: Text that csv.writer leaves unquoted and that holds no whitespace.
_PLAIN_TEXT = st.text("abxyz'é", min_size=1, max_size=6)


#: Cells of a per-language number table: numbers, and each kind of cell
#: the loader rejects (non-finite, not a number, empty).
_NUMBER_CELLS = ["1", "-2.5", "1e3", "0.1", "nan", "inf", "-Infinity", "x", "1,5", ""]

#: Cells of a feature matrix: 0, 1, the missing marker and corner cases
#: of int(): a sign, a leading zero, non-ASCII digits (Arabic-Indic and
#: full-width) and an underscore it accepts, values outside 0/1 (one
#: digit, and outside ``_SPEC_RANGE`` too), and cells it rejects (a
#: superscript two is a digit to str.isdigit, not to int()).
_MATRIX_CELLS = [
    "0", "1", "?", "+1", "01", "-0", "\u0661", "\uff11", "1_0",
    "2", "9", "-1", "x", "1.0", "\u00b2",
]


def _registry_cells(text):
    """Cells of each registry column after ``iso``, with names and other
    words drawn from ``text``: the two columns the loader reads and three
    it does not, whose text does not matter."""
    return {
        "name": text,
        "family": st.one_of(st.just(""), text),
        "endangerment": st.one_of(st.just(""), text),
        "script_scale": st.sampled_from(["", "1", "2.5", "1e1"]),
        "note": st.one_of(st.just(""), text),
    }


@st.composite
def csv_tables(draw):
    """A registry, a feature table of ``_MATRIX_CELLS`` or a table of
    number cells as csv.writer writes it, with padded cells, quoted
    commas and quotes, blank rows, CR LF or LF line ends and an optional
    BOM. A registry has ``iso`` and then any of ``_registry_cells``'
    columns in any order. About a third of the tables are plain, as the
    loaders read them whole: no padding, no blank rows, CR LF or LF line
    ends and only cells that csv.writer leaves unquoted. Returns (kind,
    file bytes)."""
    kind = draw(st.sampled_from(["registry", "matrix", "numbers"]))
    plain = draw(st.sampled_from([True, False, False]))
    text = _PLAIN_TEXT if plain else _TEXT
    isos = draw(
        st.lists(st.text("abc", min_size=3, max_size=3), min_size=1, max_size=6, unique=True)
    )
    if kind == "registry":
        cells = _registry_cells(text)
        columns = draw(st.permutations(list(cells)))
        header = ["iso", *columns[: draw(st.integers(0, len(columns)))]]
        rows = [[iso] + [draw(cells[c]) for c in header[1:]] for iso in isos]
    else:
        header = ["iso", *draw(st.lists(text, min_size=1, max_size=4, unique_by=str.strip))]
        cells = _MATRIX_CELLS if kind == "matrix" else _NUMBER_CELLS
        cells = st.sampled_from([c for c in cells if not plain or "," not in c])
        rows = [[iso] + [draw(cells) for _ in header[1:]] for iso in isos]
    table = [header, *rows]
    if not plain:
        table = [[draw(_padded(c)) for c in row] for row in table]
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(1, len(table)))
            table.insert(at, draw(st.sampled_from([[], [""], ["", " "], [" ", "\t", ""]])))
    buf = io.StringIO()
    line_end = draw(st.sampled_from(["\r\n", "\n"]))
    csv.writer(buf, lineterminator=line_end).writerows(table)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return kind, (bom + buf.getvalue()).encode("utf-8")


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _integer(cell):
    """int(cell), or None where int() rejects the cell."""
    try:
        return int(cell)
    except ValueError:
        return None


#: The final range of every column when a generated matrix is loaded with
#: specs: it holds 2, so a cell outside 0/1 can pass the range check.
_SPEC_RANGE = (0, 2)


def _matrix_row_error(header, row, specs):
    """The reason load_feature_matrix gives for a complete row: its first
    cell in column order that int() rejects; else, without specs, its
    first value outside 0/1; else, with specs over ``_SPEC_RANGE``, its
    first value outside the range; None for a good row."""
    iso, cells = row[0], list(zip(header[1:], row[1:]))
    bad = next(((f, c) for f, c in cells if _integer(c) is None), None)
    if bad is not None:
        return f"value for ({iso}, {bad[0]}) must be an integer or '?', got {bad[1]!r}"
    values = [(f, int(c)) for f, c in cells]
    if not specs:
        bad = next(((f, v) for f, v in values if v not in (0, 1)), None)
        return bad and f"binary feature ({iso}, {bad[0]}) must be 0 or 1, got {bad[1]}"
    lo, hi = _SPEC_RANGE
    bad = next(((f, v) for f, v in values if not lo <= v <= hi), None)
    return bad and f"value {bad[1]} for ({iso}, {bad[0]}) lies outside the final range [{lo}, {hi}]"


#: Two of these make a cell over csv.reader's field size limit.
_HALF = b"x" * (csv.field_size_limit() // 2 + 1)


class TestTableOracle:
    @pytest.mark.thorough
    @given(csv_tables())
    @example(("numbers", b"iso,x\nabc,1\nabd,nan\n"))  # non-finite
    @example(("numbers", b"iso,x\nabc,many\n"))  # not a number
    @example(("numbers", b"iso,x,y\nabc,,1\n"))  # empty
    @example(("matrix", b"iso,a,b\nabc,1,01\n"))  # two spellings of 1 in one row
    @example(("matrix", b"iso,a,b,c\nabc,1,x,1.0\n"))  # two cells int() rejects
    @example(("matrix", b"iso,a,b,c\nabc,+1,2,-1\nabd,?,x,0\n"))  # two values outside 0/1
    @example(("matrix", b"iso,a,b\nabc,0,-1\nabd,-1,?\n"))  # negative: outside 0/1 and the specs
    @example(("matrix", b"iso,a,b\nabc,2,1\n"))  # outside 0/1, inside the specs
    # rows of one-digit cells only next to rows that are not
    @example(("matrix", b"iso,a,b\nabc,1,0\nabd,01,1\n"))  # then a leading zero
    @example(("matrix", b"iso,a,b\nabc,0,01\nabd,1,1\n"))  # a leading zero first
    @example(("matrix", b"iso,a,b\nabc,1,1\nabd,9,0\n"))  # then a digit outside the specs
    @example(("matrix", b"iso,a,b,c\nabc,1,0,1\nabd,,01,1\n"))  # as many characters as cells
    @example(("matrix", "iso,a,b\nabc,0,1\nabd,\uff11,\u00b2\n".encode()))  # non-ASCII digits
    # whitespace in one cell of a row only: the first, the last, and a
    # middle one padded with whitespace other than blanks and tabs
    @example(("registry", b"iso,name\n abc,A\n"))
    @example(("registry", b"iso,name\nabc,A \n"))
    @example(("registry", "iso,name,family\nabc,A\u3000,F\n".encode()))
    @example(("registry", "iso,name,family\nabc,\x85A,F\n".encode()))
    @example(("registry", b"iso,name,family\nabc,A\x1c,F\n"))
    # at the edge of a plain table, which is read whole
    @example(("registry", b'iso,name\nabc,"A"\n'))  # one quoted cell
    @example(("numbers", b"iso,x\nabc,1\rabd,2\n"))  # a lone CR ends a row
    @example(("registry", b'iso,name,family\rabc,"A\rB",F\rabd,C,\r'))  # and sits in a quoted cell
    # a form feed and a line separator end no row, quoted or not
    @example(("registry", 'iso,name,family\nabc,"A\x0cB",F\nabd,"C\u2028D",G\n'.encode()))
    @example(("registry", 'iso,name,family\nabc,"A",F\x0c\nabd,C\u2028D,G\n'.encode()))
    @example(("numbers", b"iso,x\r\nabc,1\r\r\nabd,2\r\n"))  # a CR before a CR LF
    @example(("matrix", b"iso,a,b\r\nabc,0,1\nabd,1,1\r\n"))  # CR LF and LF line ends mixed
    @example(("numbers", b"iso,x\nabc,1\n\nabd,2\n"))  # a blank line
    @example(("matrix", b"iso,a,b\nabc,0,1\nabd,1,1"))  # no final line break
    @example(("registry", b"iso,name\nabc," + _HALF * 2 + b"\n"))  # a cell over the field limit
    @example(("registry", b"iso,a,b\nabc," + _HALF + b"," + _HALF + b"\n"))  # a line over it
    @example(("numbers", "iso,x,y\nabc,1,A\u3000B\n".encode()))  # whitespace inside a cell
    @example(("registry", b"iso,name,family\nabc,A\x1cB,F\n"))
    @example(("registry", b"iso,name,family\nabc,A\x00B,F\n"))  # a NUL
    @example(("matrix", b"iso,a\nabc,1\n,\n"))  # an empty key: a blank row of commas
    @example(("matrix", b"iso,a,b\nabc,1,?\nabd,0,1\n"))  # a missing cell
    @example(("matrix", b"iso,a,b\nabc,0,\x01\n"))  # one character, not a digit, below 2
    @example(("matrix", "\ufeffiso,a,b\nabc,0,1\n".encode()))  # a BOM
    @example(("numbers", b"iso,x\n"))  # a header only
    def test_loaders_match_oracle_property(self, case):
        """Every loader that reads the file returns what the hand-written
        parser in tests/oracles.py reads from the same bytes."""
        kind, raw = case
        header, rows = read_csv_table(raw)
        # csv.reader refuses a field over its size limit, and a NUL before Python 3.11
        refused = any(len(c) > csv.field_size_limit() for r in [header, *rows] for c in r) or (
            b"\0" in raw and sys.version_info < (3, 11)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_bytes(raw)
            if refused:
                with pytest.raises(ValueError, match=rf"^table {re.escape(str(path))} row \d+: "):
                    load_numeric_table(path, [])
                return

            # each column alone: its values, or the error of its first bad cell
            for j, name in enumerate(header[1:], start=1):
                bad = next((r[j] for r in rows if not _finite(r[j])), None)
                if bad is None:
                    assert load_numeric_table(path, [name]) == (
                        [name],
                        {r[0]: (float(r[j]),) for r in rows},
                    )
                    continue
                with pytest.raises(ValueError) as exc:
                    load_numeric_table(path, [name])
                where, _, reason = str(exc.value).partition(": ")
                assert re.fullmatch(rf"table {re.escape(str(path))} row \d+", where)
                assert reason == f"{name} must be a finite number, got {bad!r}"
            numeric = [
                (j, name) for j, name in enumerate(header) if j and all(_finite(r[j]) for r in rows)
            ]
            assert load_numeric_table(path, [name for _, name in numeric]) == (
                [name for _, name in numeric],
                {r[0]: tuple(float(r[j]) for j, _ in numeric) for r in rows},
            )
            if kind == "numbers":
                return

            if kind == "registry":
                cells = [dict(zip(header, r)) for r in rows]
                assert load_registry(path) == {
                    c["iso"]: LanguageRecord(
                        c["iso"],
                        c.get("family") or None,
                        float(c["script_scale"]) if c.get("script_scale") else 1.0,
                    )
                    for c in cells
                }
                return
            for with_specs, drop in [(False, True), (False, False), (True, True)]:
                self._check_matrix(path, header, rows, with_specs, drop)

    @staticmethod
    def _check_matrix(path, header, rows, with_specs, drop):
        """load_feature_matrix against int() on every cell: the values, or
        the error of the first bad cell in file and column order."""
        specs = [MorphFeatureSpec(f, *_SPEC_RANGE) for f in header[1:]]

        def load():
            return load_feature_matrix(path, drop, specs if with_specs else None)

        complete = [r for r in rows if "?" not in r]
        errors = (_matrix_row_error(header, r, with_specs) for r in complete)
        reason = next(filter(None, errors), None)
        holes = [f"({r[0]}, {f})" for r in rows for f, c in zip(header[1:], r[1:]) if c == "?"]
        if reason is not None:
            with pytest.raises(ValueError) as exc:
                load()
            where, _, got = str(exc.value).partition(": ")
            assert re.fullmatch(rf"feature matrix {re.escape(str(path))} row \d+", where)
            assert got == reason
            return
        if holes and not drop:
            message = (
                f"feature matrix {path} has missing values at {', '.join(holes)}; rerun with "
                f"--drop-incomplete to skip those rows"
            )
        elif not complete:
            message = f"feature matrix {path} has no complete language rows"
        else:
            matrix, dropped = load()
            assert matrix.features == tuple(header[1:])
            assert matrix.languages == tuple(r[0] for r in complete)
            assert matrix.values == tuple(bytes(int(c) for c in r[1:]) for r in complete)
            assert dropped == [r[0] for r in rows if "?" in r]
            return
        with pytest.raises(ValueError) as exc:
            load()
        assert str(exc.value) == message


class _ReaderCalled(Exception):
    pass


class TestPlainTables:
    """A plain table (no quote, no whitespace but the line breaks) is read
    whole, without ``csv.reader``; any other table reaches it."""

    @pytest.fixture(autouse=True)
    def no_reader(self, monkeypatch):
        def reader(*args, **kwargs):
            raise _ReaderCalled

        monkeypatch.setattr("divscore.ingest.csv.reader", reader)

    def test_plain_tables_load_without_the_reader(self, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_bytes(b"iso,a,b,c\nabc,0,1,1\nabd,1,0,0\nabe,0,0,1\n")
        header, rows = read_csv_table(matrix.read_bytes())
        expected = (
            tuple(r[0] for r in rows),
            tuple(header[1:]),
            tuple(bytes(map(int, r[1:])) for r in rows),
            [],
        )
        assert _matrix_fields(*load_feature_matrix(matrix)) == expected
        specs = [MorphFeatureSpec(f, 0, 1) for f in header[1:]]
        assert _matrix_fields(*load_feature_matrix(matrix, specs=specs)) == expected

        numbers = tmp_path / "n.csv"
        numbers.write_bytes(b"iso,name,x,y\nabc,A,1.5,2\nabd,B,-3,1e3\n")
        header, rows = read_csv_table(numbers.read_bytes())
        assert load_numeric_table(numbers, ["y", "x"]) == (
            ["y", "x"],
            {r[0]: (float(r[3]), float(r[2])) for r in rows},
        )

    def test_plain_table_row_error_without_the_reader(self, tmp_path):
        """A plain table that breaks a rule is read again row by row from
        its lines, and the row loop phrases the error."""
        path = tmp_path / "m.csv"
        path.write_bytes(b"iso,a\nabc,1\nabd,2\n")
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(path)
        assert str(exc.value) == (
            f"feature matrix {path} row 3: binary feature (abd, a) must be 0 or 1, got 2"
        )

    def test_plain_matrix_cell_outside_the_final_range(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"iso,a,b\nabc,1,2\nabd,2,0\n")
        specs = [MorphFeatureSpec("a", 1, 2), MorphFeatureSpec("b", 0, 2)]
        assert load_feature_matrix(path, specs=specs)[0].values == (b"\1\2", b"\2\0")
        specs = [MorphFeatureSpec("a", 0, 2), MorphFeatureSpec("b", 1, 2)]
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(path, specs=specs)
        assert str(exc.value) == (
            f"feature matrix {path} row 3: value 0 for (abd, b) lies outside the final range [1, 2]"
        )

    def test_row_of_commas_is_blank(self, tmp_path):
        """Blank rows are skipped in a plain table too, whatever the
        loader's parse would make of empty cells."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"key,value\na,1\n,\nb,\n")
        assert _read_table(path, "table", "any", lambda h: True, lambda h, row: row) == (
            ["key", "value"],
            [["a", "1"], ["b", ""]],
        )

    def test_crlf_tables_load_without_the_reader(self, tmp_path):
        """CR LF line ends, alone or mixed with LF ones, are line ends like
        LF: the table is read whole and loads as csv.reader reads it."""
        matrix = tmp_path / "m.csv"
        for raw in (b"iso,a,b\r\nabc,0,1\r\nabd,1,0\r\n", b"iso,a,b\r\nabc,0,1\nabd,1,0"):
            matrix.write_bytes(raw)
            header, rows = read_csv_table(raw)
            expected = (
                tuple(r[0] for r in rows),
                tuple(header[1:]),
                tuple(bytes(map(int, r[1:])) for r in rows),
                [],
            )
            assert expected[0] == ("abc", "abd")
            assert _matrix_fields(*load_feature_matrix(matrix)) == expected

        numbers = tmp_path / "n.csv"
        numbers.write_bytes(b"iso,name,x\r\nabc,A,1.5\r\nabd,B,-3\r\n")
        assert load_numeric_table(numbers, ["x"]) == (["x"], {"abc": (1.5,), "abd": (-3.0,)})

        # a row error is still phrased by the row loop, at the same row
        numbers.write_bytes(b"iso,x\r\nabc,1\r\nabd,?\r\n")
        with pytest.raises(ValueError) as exc:
            load_numeric_table(numbers, ["x"])
        assert str(exc.value) == f"table {numbers} row 3: x must be a finite number, got '?'"

    @pytest.mark.parametrize(
        "raw",
        [b'iso,x\nabc,"1"\n', b"iso,x\nabc, 1\n", b"iso,x\nabc,1\rabd,2\n", b"iso,x\n\nabc,1\n"],
        ids=["quoted", "padded", "lone-cr", "blank-row"],
    )
    def test_other_tables_reach_the_reader(self, raw, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(_ReaderCalled):
            load_numeric_table(path, ["x"])


class TestQuotedTableMemory:
    def test_quoted_matrix_peaks_within_three_times_its_size(self, tmp_path):
        """A table that is not plain reaches csv.reader from its bytes,
        decoded a buffer at a time: a 5,000 x 103 matrix with quoted iso
        cells peaks under 3x its file size while it loads (an io.StringIO
        of its text would hold it at 4 bytes a character: 5.6x)."""
        codes = itertools.product(string.ascii_lowercase, repeat=3)
        isos = ["".join(c) for c in itertools.islice(codes, 5000)]
        lines = ["iso," + ",".join(f"f{j}" for j in range(103))]
        lines += [f'"{iso}",' + ",".join(f"{i:0103b}") for i, iso in enumerate(isos)]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        load_feature_matrix(path)  # caches and compiled patterns first
        tracemalloc.start()
        try:
            matrix, _ = load_feature_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matrix.languages) == 5000 and matrix.values[5] == bytes(100) + b"\1\0\1"
        assert peak < 3 * path.stat().st_size


class TestOneOpen:
    """A table is read from one open of its file, plain or not."""

    @pytest.mark.parametrize(
        "load, name, plain",
        [(load_feature_matrix, "syn_dataset.csv", True), (load_registry, "registry.csv", False)],
        ids=["plain-matrix", "registry"],
    )
    def test_a_table_is_opened_once(self, load, name, plain, fixtures):
        path = fixtures / name
        assert (_plain_lines(path.read_text(encoding="utf-8")) is not None) == plain
        real_open, opened = io.open, []

        def spy(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        # ``open`` is ``io.open``; pathlib calls it as the latter
        with mock.patch("io.open", spy), mock.patch("builtins.open", spy):
            load(path)
        assert [f for f in opened if isinstance(f, (str, os.PathLike)) and Path(f) == path] == [path]
