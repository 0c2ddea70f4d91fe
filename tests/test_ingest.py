"""File loaders: registries, feature matrices, corpora, and small tables."""
import pytest

from divscore.ingest import (
    family_breakdown,
    load_corpus,
    load_feature_matrix,
    load_iso_list,
    load_numeric_table,
    load_profile_table,
    load_registry,
)
from divscore.model import LanguageRecord, LanguageSet


class TestRegistry:
    def test_full_round_trip(self, tmp_path):
        """Every column of a hand-written registry reaches its record."""
        p = tmp_path / "reg.csv"
        p.write_text(
            "iso,name,family,endangerment,script_scale\n"
            "aaa,Alpha,F1,safe,\n"
            '"bbb","Beta, with comma",,,2.4\n'
            "ccc,Gamma,,,\n"
        )
        assert load_registry(p) == LanguageSet(
            [
                LanguageRecord("aaa", "Alpha", family="F1", endangerment="safe"),
                LanguageRecord("bbb", "Beta, with comma", script_scale=2.4),
                LanguageRecord("ccc", "Gamma"),
            ]
        )

    def test_two_column_header_accepted(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name\nabc,Abc Language\n")
        ls = load_registry(p)
        assert ls.get("abc").script_scale == 1.0
        assert ls.get("abc").family is None

    def test_blank_optional_fields_default(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("iso,name,family,endangerment,script_scale\nabc,Abc,,,\n")
        rec = load_registry(p).get("abc")
        assert (rec.family, rec.endangerment, rec.script_scale) == (None, None, 1.0)

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
        m, dropped = load_feature_matrix(fixtures / "syn_dataset.csv", "binary_syntactic")
        assert dropped == []
        assert m.languages == ("qda", "qdb", "qdc", "qdd", "qde")
        assert m.features == ("s1", "s2", "s3", "s4", "s5", "s6")
        assert m.row("qda") == {"s1": 1, "s2": 0, "s3": 1, "s4": 0, "s5": 1, "s6": 0}

    def test_missing_cells_fatal_by_default(self, fixtures):
        with pytest.raises(ValueError) as exc:
            load_feature_matrix(fixtures / "syn_missing.csv", "binary_syntactic")
        msg = str(exc.value)
        assert "(qrc, s2)" in msg and "(qrg, s6)" in msg
        assert "--drop-incomplete" in msg

    def test_drop_incomplete_returns_dropped_isos(self, fixtures):
        m, dropped = load_feature_matrix(
            fixtures / "syn_missing.csv", "binary_syntactic", drop_incomplete=True
        )
        assert dropped == ["qrc", "qrg"]
        assert "qrc" not in m.languages and "qrg" not in m.languages
        assert m.n_languages == 6

    def test_rejects_non_binary_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,2\n")
        with pytest.raises(ValueError, match=r"\(aaa, f1\)"):
            load_feature_matrix(p, "binary_syntactic")

    def test_rejects_non_integer_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,many\n")
        with pytest.raises(ValueError, match="integer"):
            load_feature_matrix(p, "morphological_ordinal")

    def test_specs_reject_unknown_column(self, tmp_path):
        from divscore.grammar import load_morph_specs

        specs = load_morph_specs()
        header = "iso," + ",".join(list(specs.chapters[:-1]) + ["999Z"])
        row = "abc," + ",".join("0" for _ in specs.chapters)
        p = tmp_path / "m.csv"
        p.write_text(header + "\n" + row + "\n")
        with pytest.raises(ValueError, match="999Z"):
            load_feature_matrix(p, "morphological_ordinal", specs=specs)

    def test_specs_reject_out_of_range_cell(self, tmp_path):
        from divscore.grammar import load_morph_specs

        specs = load_morph_specs()
        header = "iso," + ",".join(specs.chapters)
        # every chapter's minimum, then push 22A (range 0..7) out of range
        row = ["abc"] + [str(specs.get(ch).final_min) for ch in specs.chapters]
        row[1 + specs.chapters.index("22A")] = "8"
        p = tmp_path / "m.csv"
        p.write_text(header + "\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match=r"\(abc, 22A\)"):
            load_feature_matrix(p, "morphological_ordinal", specs=specs)

    def test_all_rows_dropped_is_fatal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("iso,f1\naaa,?\n")
        with pytest.raises(ValueError, match="no complete language rows"):
            load_feature_matrix(p, "binary_syntactic", drop_incomplete=True)


class TestCorpus:
    def test_empty_file_is_fatal(self, tmp_path):
        p = tmp_path / "abc.txt"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="empty corpus"):
            load_corpus(p, "abc")

    def test_invalid_utf8_is_fatal(self, tmp_path):
        p = tmp_path / "abc.txt"
        p.write_bytes(b"ok \xff\xfe broken")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            load_corpus(p, "abc")

    def test_text_is_nfc_normalized(self, tmp_path):
        p = tmp_path / "abc.txt"
        p.write_text("café\n", encoding="utf-8")  # decomposed accent
        corpus = load_corpus(p, "abc")
        assert corpus.text == "café\n"


class TestFamilies:
    def _set(self):
        return LanguageSet(
            [
                LanguageRecord("aaa", "A", family="F1"),
                LanguageRecord("bbb", "B", family="F2"),
                LanguageRecord("ccc", "C", family="F1"),
                LanguageRecord("ddd", "D"),
            ]
        )

    def test_count_excludes_unlabeled(self):
        # an empty family label counts as no label
        languages = LanguageSet([*self._set(), LanguageRecord("eee", "E", family="")])
        families, unlabeled = family_breakdown(languages)
        assert len(families) == 2
        assert unlabeled == ["ddd", "eee"]

    def test_breakdown_sorted(self):
        families, unlabeled = family_breakdown(self._set())
        assert families == {"F1": ["aaa", "ccc"], "F2": ["bbb"]}
        assert unlabeled == ["ddd"]


class TestSmallTables:
    def test_profile_table_round_trip(self, tmp_path):
        p = tmp_path / "profiles.csv"
        p.write_text(
            "iso,mwl,ttr,entropy,token_count,offset,seed\n"
            "aaa,4.5,0.5,3.0,100,7,0\n"
            "bbb,3.25,0.75,4.0,200,0,1\n"
        )
        profiles = load_profile_table(p)
        assert [pr.iso for pr in profiles] == ["aaa", "bbb"]
        assert profiles[0].mean_word_length == 4.5
        assert profiles[1].seed == 1

    def test_profile_table_rejects_duplicate_iso(self, tmp_path):
        p = tmp_path / "profiles.csv"
        p.write_text(
            "iso,mwl,ttr,entropy,token_count,offset,seed\n"
            "aaa,4.5,0.5,3.0,100,0,0\n"
            "aaa,4.5,0.5,3.0,100,0,0\n"
        )
        with pytest.raises(ValueError, match="duplicate iso"):
            load_profile_table(p)

    def test_profile_table_rejects_other_header(self, tmp_path):
        p = tmp_path / "profiles.csv"
        p.write_text("iso,mwl\naaa,4.5\n")
        with pytest.raises(ValueError, match="header"):
            load_profile_table(p)

    def test_numeric_table_skips_text_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iso,name,mwl,c_wals\nabc,Abc,4.5,0.5\nxyz,Xyz,3.0,0.25\n")
        cols, table = load_numeric_table(p)
        assert cols == ["mwl", "c_wals"]
        assert table["abc"] == {"mwl": 4.5, "c_wals": 0.5}

    def test_numeric_table_rejects_duplicate_iso(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iso,v\nabc,1\nabc,2\n")
        with pytest.raises(ValueError, match="duplicate iso"):
            load_numeric_table(p)

    def test_iso_list_comments_and_errors(self, tmp_path):
        p = tmp_path / "langs.txt"
        p.write_text("# header comment\naaa\nbbb # trailing note\n\n")
        assert load_iso_list(p) == ["aaa", "bbb"]
        p.write_text("aaa\nNOPE\n")
        with pytest.raises(ValueError, match="line 2"):
            load_iso_list(p)
