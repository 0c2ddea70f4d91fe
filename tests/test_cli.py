"""End-to-end command behavior: formats, exit codes, and diagnostics."""
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import regex

import divscore
from divscore import cli
from divscore.ingest import bundled_path
from oracles import neumaier_sum
from support import assert_json_close, run_main, run_proc


class TestProfile:
    def test_json_over_fixture_directory(self, fixtures, capsys):
        code, out, err = run_main(
            [
                "profile",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--registry",
                str(fixtures / "registry.csv"),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        rows = payload["profiles"]
        assert [r["iso"] for r in rows] == ["qaa", "qab", "qac", "qad", "qae", "qaf"]
        for r in rows:
            assert r["token_count"] == 1200
            assert r["offset"] == 0 and r["seed"] == 0
            assert r["mwl"] >= 1.0
            assert 0.0 < r["ttr"] <= 1.0

    def test_registry_scale_applied(self, fixtures, capsys):
        args = ["profile", "--dataset", str(fixtures / "corpus_ds")]
        _, out_plain, _ = run_main(args, capsys)
        _, out_scaled, _ = run_main(
            args + ["--registry", str(fixtures / "registry.csv")], capsys
        )
        plain = {r["iso"]: r["mwl"] for r in json.loads(out_plain)["profiles"]}
        scaled = {r["iso"]: r["mwl"] for r in json.loads(out_scaled)["profiles"]}
        assert scaled["qaf"] == pytest.approx(plain["qaf"] * 2.4)
        assert scaled["qaa"] == plain["qaa"]

    def test_csv_format(self, fixtures, capsys):
        code, out, _ = run_main(
            ["profile", "--dataset", str(fixtures / "corpus_ds"), "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"]
        assert len(rows) == 1 + 6

    def test_sample_target_and_seed_echoed(self, fixtures, capsys):
        code, out, _ = run_main(
            [
                "profile",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--sample-target",
                "500",
                "--seed",
                "11",
            ],
            capsys,
        )
        assert code == 0
        for r in json.loads(out)["profiles"]:
            assert r["token_count"] == 500
            assert r["seed"] == 11
            assert 0 <= r["offset"] <= 1200 - 500

    def test_partial_failure_keeps_good_rows_and_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "aaa.txt").write_text("good tokens here\n")
        (tmp_path / "bbb.txt").write_text("... --- ...\n")  # no lexical tokens
        (tmp_path / "ccc.txt").mkdir()  # unreadable: the loop goes on past an OSError too
        code, out, err = run_main(["profile", "--dataset", str(tmp_path)], capsys)
        assert code == 1
        assert "profile failed for bbb.txt" in err
        assert "no lexical tokens" in err
        assert "profile failed for ccc.txt" in err
        assert [r["iso"] for r in json.loads(out)["profiles"]] == ["aaa"]

    def test_file_name_with_a_final_line_break_is_not_an_iso_code(self, tmp_path, capsys):
        (tmp_path / "aaa.txt").write_text("good tokens here\n")
        (tmp_path / "abc\n.txt").write_text("good tokens here\n")
        argv = ["profile", "--dataset", str(tmp_path), "--format", "csv"]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert err == (
            "profile failed for abc\n.txt: corpus file name must be <iso>.txt with a "
            "three-letter code, got abc\n.txt\n"
        )
        assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == ["aaa"]

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        code, out, err = run_main(["profile", "--dataset", str(tmp_path / "nope")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestScoreMorph:
    def test_matches_golden_report(self, fixtures, capsys):
        code, out, err = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--registry",
                str(fixtures / "registry.csv"),
            ],
            capsys,
        )
        assert code == 0
        golden = json.loads((fixtures / "golden" / "score_morph.json").read_text())
        assert_json_close(json.loads(out), golden, tol=1e-12)
        assert "normalization scalar c = " in err

    def test_profile_table_input_equals_directory_input(self, fixtures, tmp_path, capsys):
        registry = str(fixtures / "registry.csv")
        tables = {}
        for side in ("corpus_ds", "corpus_ref"):
            _, out, _ = run_main(
                [
                    "profile",
                    "--dataset",
                    str(fixtures / side),
                    "--registry",
                    registry,
                    "--format",
                    "csv",
                ],
                capsys,
            )
            table = tmp_path / f"{side}.csv"
            table.write_text(out)
            tables[side] = str(table)
        _, from_tables, _ = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                tables["corpus_ds"],
                "--reference",
                tables["corpus_ref"],
            ],
            capsys,
        )
        _, from_dirs, _ = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--registry",
                registry,
            ],
            capsys,
        )
        assert json.loads(from_tables) == json.loads(from_dirs)

    def test_any_table_with_an_mwl_column_is_a_side(self, tmp_path, capsys):
        """Only iso and mwl are read: other columns, such as a name, and
        the row order do not matter, and an mwl below 1 scores."""
        table = tmp_path / "t.csv"
        table.write_text("iso,name,mwl\nccc,C,7.5\naaa,A,0.5\nbbb,B,4.0\n")
        shuffled = tmp_path / "s.csv"
        shuffled.write_text("iso,mwl\nbbb,4.0\nccc,7.5\naaa,0.5\n")
        argv = ["score", "--level", "morph", "--dataset", str(table), "--reference"]
        code, out, err = run_main([*argv, str(table)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dataset_n"] == payload["reference_n"] == 3
        assert payload["jmm"]["value"] == 1.0
        assert "note:" not in err
        assert run_main([*argv, str(shuffled)], capsys)[1] == out

    def test_table_side_rejects_a_bad_mwl_cell(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("iso,mwl\naaa,3.2\nbbb,nan\n")
        code, out, err = run_main(
            ["score", "--level", "morph", "--dataset", str(table), "--reference", str(table)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == f"error: table {table} row 3: mwl must be a finite number, got 'nan'\n"

    def test_sampling_flags_noted_when_both_sides_are_tables(self, fixtures, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("iso,mwl\naaa,3.2\nbbb,4.5\n")
        tables = ["score", "--level", "morph", "--dataset", str(table), "--reference", str(table)]
        code, plain, err = run_main(tables, capsys)
        assert code == 0 and "note:" not in err
        code, out, err = run_main([*tables, "--sample-target", "500", "--seed", "0"], capsys)
        assert code == 0
        assert "note: both sides are tables, so --sample-target, --seed go unread\n" in err
        assert json.loads(out) == {**json.loads(plain), "sample_target": 500}
        # with one corpus side the flags are read, and nothing is noted
        mixed = [*tables[:-1], str(fixtures / "corpus_ref"), "--seed", "3"]
        code, _, err = run_main(mixed, capsys)
        assert code == 0 and "note:" not in err

    def test_each_value_binned_once(self, fixtures, tmp_path, capsys, monkeypatch):
        """The score, the gap and both indices read one binned side each."""
        import divscore.diversity

        calls = []
        real = divscore.diversity.bin_index

        def counted(value, width):
            calls.append(value)
            return real(value, width)

        monkeypatch.setattr(divscore.diversity, "bin_index", counted)
        ds, ref = tmp_path / "ds.csv", tmp_path / "ref.csv"
        ds.write_text("iso,mwl\naaa,1.5\nbbb,2.5\nccc,2.7\n")
        ref.write_text("iso,mwl\nddd,1.2\neee,3.4\nfff,3.9\nggg,6.0\nhhh,2.1\n")
        registry, outs = ["--registry", f"{fixtures}/registry.csv"], []
        for argv in (
            _morph(f"{fixtures}/corpus_ds", f"{fixtures}/corpus_ref", *registry),
            _morph(str(ds), str(ref)),
        ):
            calls.clear()
            code, out, _ = run_main(argv, capsys)
            payload = json.loads(out)
            assert code == 0 and len(calls) == payload["dataset_n"] + payload["reference_n"]
            outs.append(out)
        assert outs[0] == (fixtures / "golden" / "score_morph.json").read_text(encoding="utf-8")
        assert len(calls) == 3 + 5

    def test_bin_width_changes_binning(self, fixtures, capsys):
        base = [
            "score",
            "--level",
            "morph",
            "--dataset",
            str(fixtures / "corpus_ds"),
            "--reference",
            str(fixtures / "corpus_ref"),
            "--registry",
            str(fixtures / "registry.csv"),
        ]
        _, out1, _ = run_main(base, capsys)
        _, out2, _ = run_main(base + ["--bin-width", "0.5"], capsys)
        fine = json.loads(out2)
        coarse = json.loads(out1)
        assert fine["bin_width"] == 0.5
        assert len(fine["jmm"]["per_bin"]) > len(coarse["jmm"]["per_bin"])

    def test_csv_format(self, fixtures, capsys):
        code, out, _ = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--registry",
                str(fixtures / "registry.csv"),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bin,dataset,reference,min,max"
        assert len(lines) == 1 + 6

    def test_svg_format(self, fixtures, capsys):
        code, out, _ = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--registry",
                str(fixtures / "registry.csv"),
                "--format",
                "svg",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("<?xml")
        assert 'class="intersection"' in out

    def test_tiny_bin_width_output_is_bounded_by_the_languages(self, fixtures, capsys):
        # 16 languages spread over a span of about 500,000 bins: the
        # report holds one row and one SVG label per occupied bin
        base = [
            "score",
            "--level",
            "morph",
            "--dataset",
            str(fixtures / "corpus_ds"),
            "--reference",
            str(fixtures / "corpus_ref"),
            "--registry",
            str(fixtures / "registry.csv"),
            "--bin-width",
            "1e-5",
        ]
        code, out, _ = run_main(base, capsys)
        assert code == 0
        assert len(out.encode("utf-8")) < 16 * 1024
        labels = [r["bin"] for r in json.loads(out)["jmm"]["per_bin"]]
        assert len(labels) <= 16
        code, svg, _ = run_main(base + ["--format", "svg"], capsys)
        assert code == 0
        assert len(svg.encode("utf-8")) < 16 * 1024
        assert re.findall(r">(bin-?\d+)</text>", svg) == labels

    def test_bad_corpus_files_fail_the_score_and_are_all_named(self, fixtures, tmp_path, capsys):
        (tmp_path / "aaa.txt").write_text("good tokens here\n")
        (tmp_path / "bbb.txt").write_text("... --- ...\n")  # no lexical tokens
        (tmp_path / "ccc.txt").write_bytes(b"\xff\xfe not utf-8\n")
        code, out, err = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(tmp_path),
                "--reference",
                str(fixtures / "corpus_ref"),
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "profile failed for bbb.txt: no lexical tokens" in err
        assert "profile failed for ccc.txt:" in err and "not valid UTF-8" in err
        assert f"--dataset corpus directory {tmp_path}" in err
        assert "bbb.txt, ccc.txt" in err
        assert "aaa.txt" not in err

    def test_gap_examples_name_reference_languages(self, fixtures, capsys):
        _, out, _ = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--registry",
                str(fixtures / "registry.csv"),
            ],
            capsys,
        )
        gap = json.loads(out)["jmm"]["gap"]
        deficit = {d["bin"]: d for d in gap["deficit"]}
        assert deficit["bin6"]["examples"] == ["qbg", "qbh", "qbi"]
        for d in deficit.values():
            assert d["shortfall"] > 0
            assert len(d["examples"]) <= 5


class TestScoreSyn:
    def _args(self, fixtures, extra=()):
        return [
            "score",
            "--level",
            "syn",
            "--dataset",
            str(fixtures / "syn_dataset.csv"),
            "--reference",
            str(fixtures / "syn_reference.csv"),
            *extra,
        ]

    def test_matches_golden_bytes(self, fixtures, capsys):
        code, out, _ = run_main(self._args(fixtures), capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "score_syn.json").read_text(encoding="utf-8")

    def test_206_dims_match_golden_bytes(self, fixtures, capsys):
        code, out, _ = run_main(self._args(fixtures, ["--syn-dims", "206"]), capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "score_syn_206.json").read_text(encoding="utf-8")

    def test_default_dims(self, fixtures, capsys):
        code, out, err = run_main(self._args(fixtures), capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == "syn"
        assert payload["syn_dims"] == 103
        assert payload["jmm"]["value"] == pytest.approx(24 / 29, abs=1e-12)
        assert payload["normalization_c"] == 1.6
        assert payload["ti"]["score_name"] == "ti_syn"
        assert 0.0 <= payload["ti"]["dataset"] <= 1.0

    def test_doubled_dims(self, fixtures, capsys):
        code, out, _ = run_main(self._args(fixtures, ["--syn-dims", "206"]), capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["syn_dims"] == 206
        assert payload["jmm"]["value"] == pytest.approx(43 / 53, abs=1e-12)
        assert len(payload["jmm"]["per_bin"]) == 12

    def test_per_bin_labels_are_features(self, fixtures, capsys):
        _, out, _ = run_main(self._args(fixtures), capsys)
        labels = [r["bin"] for r in json.loads(out)["jmm"]["per_bin"]]
        assert labels == ["s1", "s2", "s3", "s4", "s5", "s6"]

    def test_missing_cells_error_without_flag(self, fixtures, capsys):
        args = [
            "score",
            "--level",
            "syn",
            "--dataset",
            str(fixtures / "syn_missing.csv"),
            "--reference",
            str(fixtures / "syn_reference.csv"),
        ]
        code, out, err = run_main(args, capsys)
        assert code == 1
        assert "error:" in err and "(qrc, s2)" in err

    def test_drop_incomplete_reports_dropped_rows(self, fixtures, capsys):
        args = [
            "score",
            "--level",
            "syn",
            "--dataset",
            str(fixtures / "syn_missing.csv"),
            "--reference",
            str(fixtures / "syn_reference.csv"),
            "--drop-incomplete",
        ]
        code, out, err = run_main(args, capsys)
        assert code == 0
        assert "2 dataset row(s) dropped: qrc, qrg" in err
        assert err.count("row(s) dropped") == 1
        payload = json.loads(out)
        assert payload["dataset_n"] == 6 and payload["reference_n"] == 8

    def test_gap_examples_list_reference_languages(self, fixtures, capsys):
        _, out, _ = run_main(self._args(fixtures), capsys)
        gap = json.loads(out)["jmm"]["gap"]
        deficit = {d["bin"]: d for d in gap["deficit"]}
        # s6: scaled dataset 3.2 vs reference 4; qrb/qrd/qre/qrg carry s6=1
        assert deficit["s6"]["examples"] == ["qrb", "qrd", "qre", "qrg"]

        # 206 dims with the sides swapped, so the smaller reference is
        # scaled: s1=0 has dataset 3 vs reference 2 * 1.6 = 3.2, and
        # qdc/qde carry s1=0
        swapped = [
            "score",
            "--level",
            "syn",
            "--dataset",
            str(fixtures / "syn_reference.csv"),
            "--reference",
            str(fixtures / "syn_dataset.csv"),
            "--syn-dims",
            "206",
        ]
        _, out, _ = run_main(swapped, capsys)
        deficit = {d["bin"]: d for d in json.loads(out)["jmm"]["gap"]["deficit"]}
        assert deficit["s1=0"]["examples"] == ["qdc", "qde"]

    @pytest.mark.parametrize("flag", ["--dataset", "--reference"])
    def test_all_zero_side_named_by_flag_and_path(self, fixtures, tmp_path, capsys, flag):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("iso,s1,s2,s3,s4,s5,s6\nqza,0,0,0,0,0,0\nqzb,0,0,0,0,0,0\n")
        args = self._args(fixtures)
        args[args.index(flag) + 1] = str(zeros)
        code, out, err = run_main(args, capsys)
        assert code == 1 and out == ""
        assert f"error: {flag} {zeros}: syntactic weights need positive total weight" in err

    @pytest.mark.parametrize("count_zeros", [False, True])
    def test_weights_computed_once_per_side(self, fixtures, capsys, monkeypatch, count_zeros):
        import divscore.cli
        import divscore.diversity

        calls = []
        real = divscore.diversity.syntactic_weights

        def counted(matrix, zeros=False):
            calls.append(matrix.n_languages)
            return real(matrix, zeros)

        monkeypatch.setattr(divscore.cli, "syntactic_weights", counted)
        monkeypatch.setattr(divscore.diversity, "syntactic_weights", counted)
        args = self._args(fixtures) + (["--syn-dims", "206"] if count_zeros else [])
        code, out, _ = run_main(args, capsys)
        golden = "score_syn_206.json" if count_zeros else "score_syn.json"
        assert code == 0 and out == (fixtures / "golden" / golden).read_text(encoding="utf-8")
        assert len(calls) == 2

    def test_feature_mismatch_names_both_paths(self, fixtures, tmp_path, capsys):
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("iso,s1,sX,s3,s4,s5,s6\nqza,1,0,1,0,1,0\n")
        args = self._args(fixtures)
        args[args.index("--dataset") + 1] = str(renamed)
        code, out, err = run_main(args, capsys)
        assert code == 1 and out == ""
        assert err == (
            f"error: --dataset {renamed} and --reference {fixtures / 'syn_reference.csv'}: "
            "feature lists differ at column 1: 'sX' vs 's2'\n"
        )


class TestCwals:
    def test_matches_golden_bytes(self, fixtures, capsys):
        code, out, _ = run_main(["cwals"], capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "cwals.json").read_text(encoding="utf-8")

    def test_bundled_defaults(self, capsys):
        code, out, err = run_main(["cwals"], capsys)
        assert code == 0
        rows = json.loads(out)["c_wals"]
        assert len(rows) == 28
        scores = {r["iso"]: r["c_wals"] for r in rows}
        assert scores["tur"] == pytest.approx(0.76, abs=0.005)
        assert scores["vie"] == pytest.approx(0.21, abs=0.005)
        isos = [r["iso"] for r in rows]
        assert isos == sorted(isos)

    def test_csv_format(self, capsys):
        code, out, _ = run_main(["cwals", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iso,c_wals"
        assert len(lines) == 1 + 28

    def test_drop_incomplete_on_custom_matrix(self, tmp_path, capsys):
        from divscore.grammar import load_morph_specs

        specs = load_morph_specs()
        header = "iso," + ",".join(s.chapter for s in specs)
        good = "qqa," + ",".join(str(s.final_max) for s in specs)
        holey = "qqb," + ",".join(["?"] + [str(s.final_min) for s in specs.specs[1:]])
        p = tmp_path / "values.csv"
        p.write_text(header + "\n" + good + "\n" + holey + "\n")

        code, out, err = run_main(["cwals", "--dataset", str(p)], capsys)
        assert code == 1 and "error:" in err

        code, out, err = run_main(["cwals", "--dataset", str(p), "--drop-incomplete"], capsys)
        assert code == 0
        assert "1 row(s) dropped: qqb" in err
        rows = json.loads(out)["c_wals"]
        assert rows == [{"iso": "qqa", "c_wals": 1.0}]

    def test_degenerate_chapters_reported_once(self, tmp_path, capsys):
        from divscore.ingest import bundled_path

        text = bundled_path("morph_feature_specs.csv").read_text(encoding="utf-8")
        header, *specs = list(csv.reader(io.StringIO(text)))
        for spec in specs[:2]:  # collapse two chapters' final ranges to one value
            spec[4] = spec[3]
        spec_path = tmp_path / "specs.csv"
        with open(spec_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *specs])
        values = tmp_path / "values.csv"
        values.write_text(
            "iso," + ",".join(spec[0] for spec in specs) + "\n"
            + "qqa," + ",".join(spec[3] for spec in specs) + "\n"
            + "qqb," + ",".join(spec[4] for spec in specs) + "\n"
        )
        code, out, err = run_main(
            ["cwals", "--dataset", str(values), "--specs", str(spec_path)], capsys
        )
        assert code == 0
        for chapter, low in ((specs[0][0], specs[0][3]), (specs[1][0], specs[1][3])):
            line = (
                f"chapter {chapter} has a degenerate final range [{low}, {low}]; "
                "normalized value defined as 0\n"
            )
            assert err.count(line) == 1
        assert err.count("degenerate") == 2
        scores = {r["iso"]: r["c_wals"] for r in json.loads(out)["c_wals"]}
        assert scores == {"qqa": 0.0, "qqb": pytest.approx(24 / 26, abs=1e-12)}

    @staticmethod
    def _specs_and_values(tmp_path, chapter, final_min, cell):
        """A spec file from the bundled one with ``chapter``'s final_min
        set, and a one-language matrix at every final_min but ``cell`` in
        ``chapter``."""
        from divscore.ingest import bundled_path

        text = bundled_path("morph_feature_specs.csv").read_text(encoding="utf-8")
        header, *specs = list(csv.reader(io.StringIO(text)))
        (spec,) = [spec for spec in specs if spec[0] == chapter]
        spec[3] = final_min
        spec_path = tmp_path / "specs.csv"
        with open(spec_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *specs])
        values = tmp_path / "values.csv"
        values.write_text(
            "iso," + ",".join(s[0] for s in specs) + "\n"
            + "qqa," + ",".join(cell if s is spec else s[3] for s in specs) + "\n"
        )
        return spec_path, values, specs.index(spec) + 2

    def test_negative_cell_names_file_and_row(self, tmp_path, capsys):
        """A negative cell fails as a row error of the matrix: no spec range
        goes below 0, so it lies outside its feature's range."""
        spec_path, values, _ = self._specs_and_values(tmp_path, "26A", "0", "-1")
        code, out, err = run_main(
            ["cwals", "--dataset", str(values), "--specs", str(spec_path)], capsys
        )
        assert code == 1 and out == ""
        reason = "value -1 for (qqa, 26A) lies outside the final range [0, 1]"
        assert err == f"error: feature matrix {values} row 2: {reason}\n"

    def test_negative_final_min_names_spec_file_and_row(self, tmp_path, capsys):
        """A spec range below 0 fails in the spec file, before any cell is
        read; such a range's lower part could never hold a cell."""
        spec_path, values, row = self._specs_and_values(tmp_path, "22A", "-1", "-1")
        code, out, err = run_main(
            ["cwals", "--dataset", str(values), "--specs", str(spec_path)], capsys
        )
        assert code == 1 and out == ""
        reason = "final_min -1 for chapter 22A must be non-negative"
        assert err == f"error: morphology spec file {spec_path} row {row}: {reason}\n"


class TestCorrelate:
    def test_bundled_table(self, capsys):
        code, out, err = run_main(["correlate", "mwl", "c_wals"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 28
        assert payload["rho"] == pytest.approx(0.69, abs=0.01)
        assert payload["x"] == "mwl" and payload["y"] == "c_wals"
        assert "rho = " in err

    def test_csv_format(self, capsys):
        code, out, _ = run_main(["correlate", "mwl", "c_wals", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,n"
        assert lines[1].endswith(",28")

    def test_two_tables_joined_by_iso(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("iso,x\naaa,1\nbbb,2\nccc,3\nddd,4\n")
        b.write_text("iso,y\naaa,10\nbbb,20\nccc,25\neee,99\n")
        code, out, err = run_main(
            ["correlate", "x", "y", "--dataset", str(a), "--reference", str(b)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["rho"] == 1.0
        assert payload["excluded"] == ["ddd", "eee"]
        assert "excluded" in err

    def test_matches_golden_bytes(self, fixtures, capsys):
        code, out, _ = run_main(["correlate", "mwl", "c_wals"], capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "correlate.json").read_text(encoding="utf-8")

    def test_unknown_column_lists_available(self, capsys):
        """The header error shows the header, so it lists every column."""
        code, _, err = run_main(["correlate", "mwl", "nope"], capsys)
        assert code == 1
        table = bundled_path("mwl_cwals.csv")
        assert err == (
            f"error: table {table} header must be 'iso' first, with the column(s) nope, "
            "got iso,name,mwl,c_wals\n"
        )

    def test_unknown_column_names_its_table(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("iso,x\naaa,1\nbbb,2\nccc,3\n")
        b.write_text("iso,y\naaa,nan\nbbb,2\nccc,3\n")
        code, _, err = run_main(
            ["correlate", "x", "y", "--dataset", str(a), "--reference", str(b)], capsys
        )
        assert code == 1
        assert err == f"error: table {b} row 2: y must be a finite number, got 'nan'\n"
        code, _, err = run_main(
            ["correlate", "x", "z", "--dataset", str(a), "--reference", str(b)], capsys
        )
        assert code == 1
        assert err.startswith(f"error: table {b} header must be ")

    def test_disjoint_tables_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("iso,x\naaa,1\nbbb,2\nccc,3\n")
        b.write_text("iso,y\nxxx,1\nyyy,2\nzzz,3\n")
        code, _, err = run_main(
            ["correlate", "x", "y", "--dataset", str(a), "--reference", str(b)], capsys
        )
        assert code == 1
        assert "no overlapping languages" in err


class TestFamilies:
    def test_matches_golden_bytes(self, fixtures, capsys):
        code, out, _ = run_main(["families"], capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "families.json").read_text(encoding="utf-8")

    def test_bundled_lists(self, capsys):
        code, out, err = run_main(["families"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["family_count"] == 15
        assert sum(len(v) for v in payload["families"].values()) + len(
            payload["unlabeled"]
        ) == 97
        assert "15 distinct families over 97 languages" in err

    def test_unlabeled_languages_reported_once(self, capsys):
        code, out, err = run_main(["families"], capsys)
        assert code == 0
        line = "3 language(s) excluded from family count (no family label): eus, ido, vol\n"
        assert err.count(line) == 1
        assert err.count("excluded from family count") == 1
        assert json.loads(out)["unlabeled"] == ["eus", "ido", "vol"]

    def test_fixture_registry(self, fixtures, tmp_path, capsys):
        listing = tmp_path / "langs.txt"
        listing.write_text("qaa\nqba\nqbb\nqca\nqaa\nzzz\n")  # dupe + unknown
        code, out, err = run_main(
            [
                "families",
                "--dataset",
                str(listing),
                "--registry",
                str(fixtures / "registry.csv"),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["unknown"] == ["zzz"]
        assert "unknown iso code(s) excluded: zzz" in err
        members = [iso for v in payload["families"].values() for iso in v]
        assert sorted(members) == ["qaa", "qba", "qbb", "qca"]

    def test_csv_format(self, capsys):
        code, out, _ = run_main(["families", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "iso"]
        assert len(rows) == 1 + 97

    def test_iso_list_with_bom(self, tmp_path, capsys):
        listing = tmp_path / "langs.txt"
        listing.write_bytes("\ufeffeng\nfra\n".encode("utf-8"))
        code, out, err = run_main(["families", "--dataset", str(listing)], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["unknown"] == []
        assert sorted(iso for v in payload["families"].values() for iso in v) == ["eng", "fra"]

    def test_iso_list_invalid_utf8_names_file(self, tmp_path, capsys):
        listing = tmp_path / "langs.txt"
        listing.write_bytes(b"eng\n\xff\n")
        code, out, err = run_main(["families", "--dataset", str(listing)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {listing} is not valid UTF-8: "), err


_PROFILE = ["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"]
_PER_BIN = ["bin", "dataset", "reference", "min", "max"]
_MORPH = ["--dataset", "{f}/corpus_ds", "--reference", "{f}/corpus_ref"]
_SYN = ["--dataset", "{f}/syn_dataset.csv", "--reference", "{f}/syn_reference.csv"]

#: name -> (argv without --format, "{f}" standing for the fixtures directory;
#: CSV header; the JSON payload's rows in CSV order)
_FORMAT_CASES = {
    "profile": (
        ["profile", "--dataset", "{f}/corpus_ds", "--registry", "{f}/registry.csv"],
        _PROFILE,
        lambda p: [[r[k] for k in _PROFILE] for r in p["profiles"]],
    ),
    "score_morph": (
        ["score", "--level", "morph", *_MORPH, "--registry", "{f}/registry.csv"],
        _PER_BIN,
        lambda p: [[r[k] for k in _PER_BIN] for r in p["jmm"]["per_bin"]],
    ),
    "score_syn_103": (
        ["score", "--level", "syn", *_SYN],
        _PER_BIN,
        lambda p: [[r[k] for k in _PER_BIN] for r in p["jmm"]["per_bin"]],
    ),
    "score_syn_206": (
        ["score", "--level", "syn", *_SYN, "--syn-dims", "206"],
        _PER_BIN,
        lambda p: [[r[k] for k in _PER_BIN] for r in p["jmm"]["per_bin"]],
    ),
    "cwals": (
        ["cwals"],
        ["iso", "c_wals"],
        lambda p: [[r["iso"], r["c_wals"]] for r in p["c_wals"]],
    ),
    "correlate": (
        ["correlate", "mwl", "c_wals"],
        ["rho", "n"],
        lambda p: [[p["rho"], p["n"]]],
    ),
    "families": (
        ["families"],
        ["family", "iso"],
        lambda p: [[fam, iso] for fam, isos in p["families"].items() for iso in isos]
        + [["", iso] for iso in p["unlabeled"]],
    ),
}


def _format_case_argv(case, fixtures):
    return [arg.format(f=fixtures) for arg in _FORMAT_CASES[case][0]]


class TestFormatsAgree:
    @pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
    def test_csv_rows_equal_json_rows(self, case, fixtures, capsys):
        _, header, json_rows = _FORMAT_CASES[case]
        argv = _format_case_argv(case, fixtures)
        code, out_json, _ = run_main(argv, capsys)
        assert code == 0
        code, out_csv, _ = run_main(argv + ["--format", "csv"], capsys)
        assert code == 0
        table = list(csv.reader(io.StringIO(out_csv)))
        assert table[0] == header
        expected = json_rows(json.loads(out_json))
        assert expected, "a case with no rows compares nothing"
        # each CSV cell read back as the type of its JSON value, so "1.0" and 1.0 agree
        parsed = [
            [type(v)(cell) for cell, v in zip(cells, values, strict=True)]
            for cells, values in zip(table[1:], expected, strict=True)
        ]
        assert parsed == expected

    @pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
    def test_json_carries_schema_version(self, case, fixtures, capsys):
        code, out, _ = run_main(_format_case_argv(case, fixtures), capsys)
        assert code == 0
        assert json.loads(out)["schema_version"] == "1"


class TestSameBitsOnEveryPython:
    @pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
    def test_compensated_builtin_sum_changes_no_output(self, case, fixtures, capsys, monkeypatch):
        """Python 3.12 made built-in sum compensated; bind that sum in every
        divscore module and require the same stdout, so no output depends
        on the Python version."""
        argv = _format_case_argv(case, fixtures)
        code, expected, _ = run_main(argv, capsys)
        assert code == 0
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "divscore":
                monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == expected


#: Corpus files that fail to profile: no lexical tokens, not UTF-8, and
#: a name that is no iso code.
_BAD_FILES = {"bbb.txt": b"... --- ...\n", "ccc.txt": b"\xff\xfe no\n", "Abc.txt": b"ok\n"}


def _scratch_sides(fixtures, tmp_path):
    """Write the sides `_PARALLEL_CASES` name under ``tmp_path``: the
    fixture corpora with `_BAD_FILES` added, an empty directory, a good
    table and a table with a bad cell."""
    for name, source in (("ds_bad", "corpus_ds"), ("ref_bad", "corpus_ref")):
        shutil.copytree(fixtures / source, tmp_path / name)
        for bad, data in _BAD_FILES.items():
            (tmp_path / name / bad).write_bytes(data)
    (tmp_path / "empty").mkdir()
    (tmp_path / "ds.csv").write_text("iso,mwl\neng,4.2\nfin,7.1\n")
    (tmp_path / "bad.csv").write_text("iso,mwl\neng,x\n")


def _morph(dataset, reference, *extra):
    return ["score", "--level", "morph", "--dataset", dataset, "--reference", reference, *extra]


#: name -> argv, "{f}" standing for the fixtures directory and "{t}" for
#: the one `_scratch_sides` writes
_PARALLEL_CASES = {
    "profile": ["profile", "--dataset", "{f}/corpus_ds", "--registry", "{f}/registry.csv"],
    "profile-bad": ["profile", "--dataset", "{t}/ds_bad"],
    "score": _morph("{f}/corpus_ds", "{f}/corpus_ref", "--registry", "{f}/registry.csv"),
    "bad-dataset": _morph("{t}/ds_bad", "{f}/corpus_ref"),
    "bad-reference": _morph("{f}/corpus_ds", "{t}/ref_bad"),
    "bad-both": _morph("{t}/ds_bad", "{t}/ref_bad"),
    "empty-reference": _morph("{t}/ds_bad", "{t}/empty"),
    "table-dataset": _morph("{t}/ds.csv", "{t}/ref_bad"),
    "bad-table-dataset": _morph("{t}/bad.csv", "{f}/corpus_ref"),
}


class TestParallelProfiles:
    """Profiling a command's corpus files in forked workers changes no
    byte of its output, and leaves no process behind."""

    @pytest.mark.parametrize("case", sorted(_PARALLEL_CASES))
    def test_output_equals_sequential(self, case, fixtures, tmp_path, capsys, monkeypatch):
        _scratch_sides(fixtures, tmp_path)
        argv = [arg.format(f=fixtures, t=tmp_path) for arg in _PARALLEL_CASES[case]]
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs = {}
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            forks.clear()
            runs[cpus] = run_main(argv, capsys)
            assert len(forks) == cpus - 1  # every case profiles three files or more
        assert runs[1] == runs[3]
        assert runs[1][0] == (0 if case in ("profile", "score") else 1)

    @pytest.mark.parametrize(
        "where, message",
        [
            ("worker", r"(?s)^profile of qa[a-f]\.txt raised in a worker:\n.*boom in qa[a-f]"),
            ("parent", r"^boom in qa[a-f]$"),
            ("worker-exit", r"^a profile worker ended without results for qa[a-f]\.txt"),
        ],
    )
    def test_unexpected_end_fails_the_command(self, where, message, fixtures, monkeypatch):
        parent, real = os.getpid(), cli.profile

        def failing(corpus, *args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                if where == "worker-exit":
                    os._exit(3)
                raise RuntimeError(f"boom in {corpus.iso}")
            return real(corpus, *args, **kwargs)

        monkeypatch.setattr(cli, "profile", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match=message):
            cli.main(["profile", "--dataset", str(fixtures / "corpus_ds")])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_while_other_threads_run(self, fixtures, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            code, out, _ = run_main(["profile", "--dataset", str(fixtures / "corpus_ds")], capsys)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0 and len(json.loads(out)["profiles"]) == 6

    def test_shares_balance_bytes_largest_first(self, tmp_path):
        files = []
        for name, size in [("aaa", 5), ("bbb", 9), ("ccc", 4), ("ddd", 0), ("eee", 0), ("fff", 4)]:
            files.append(tmp_path / f"{name}.txt")
            files[-1].write_bytes(b"x" * size)
        assert cli._shares(files, 3) == [[1], [0, 3, 4], [2, 5]]
        # equal loads go to the share with the fewest files
        assert cli._shares(files[3:5] + [tmp_path / "missing.txt"], 3) == [[0], [1], [2]]
        # equal sizes are taken in name order, whatever their directory
        (tmp_path / "ref").mkdir()
        (tmp_path / "ref" / "abc.txt").write_bytes(b"x" * 9)
        assert cli._shares([files[1], tmp_path / "ref" / "abc.txt"], 2) == [[1], [0]]


class TestDeterminismAndErrors:
    def test_repeat_runs_identical_in_process(self, fixtures, capsys):
        args = [
            "score",
            "--level",
            "syn",
            "--dataset",
            str(fixtures / "syn_dataset.csv"),
            "--reference",
            str(fixtures / "syn_reference.csv"),
        ]
        _, out1, _ = run_main(args, capsys)
        _, out2, _ = run_main(args, capsys)
        assert out1 == out2

    def test_subprocess_entry_point(self, fixtures):
        code, out, err = run_proc(["correlate", "mwl", "c_wals"])
        assert code == 0
        assert json.loads(out)["n"] == 28
        assert b"rho = " in err

    def test_nonexistent_input_file(self, capsys):
        code, out, err = run_main(["cwals", "--dataset", "/nonexistent/values.csv"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_bad_bin_width(self, fixtures, capsys):
        code, _, err = run_main(
            [
                "score",
                "--level",
                "morph",
                "--dataset",
                str(fixtures / "corpus_ds"),
                "--reference",
                str(fixtures / "corpus_ref"),
                "--bin-width",
                "-2",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err and "--bin-width" in err

    @pytest.mark.parametrize("command", [["cwals"], ["correlate", "mwl", "c_wals"]])
    def test_registry_is_a_usage_error_where_unread(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main([*command, "--registry", "/nonexistent.csv"], capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --registry" in captured.err


_SCORE_SIDES = {
    "morph": ["--dataset", "{f}/corpus_ds", "--reference", "{f}/corpus_ref"],
    "syn": ["--dataset", "{f}/syn_dataset.csv", "--reference", "{f}/syn_reference.csv"],
}


class TestLevelFlags:
    @pytest.mark.parametrize(
        "level, typed, flag",
        [
            ("syn", ["--registry", "{f}/registry.csv"], "--registry"),
            ("syn", ["--bin-width", "0.5"], "--bin-width"),
            ("syn", ["--sample-target", "500"], "--sample-target"),
            ("syn", ["--seed", "3"], "--seed"),
            ("morph", ["--syn-dims", "206"], "--syn-dims"),
            ("morph", ["--drop-incomplete"], "--drop-incomplete"),
            # argparse expands a prefix, so the message names the whole flag
            ("morph", ["--syn", "103"], "--syn-dims"),
            ("syn", ["--bin", "1.0"], "--bin-width"),
        ],
    )
    def test_flag_of_the_other_level_is_a_usage_error(self, level, typed, flag, fixtures, capsys):
        argv = ["score", "--level", level, *_SCORE_SIDES[level], *typed]
        with pytest.raises(SystemExit) as exc:
            run_main([arg.format(f=fixtures) for arg in argv], capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: score --level {level} does not read {flag}\n")

    def test_every_unread_flag_is_named(self, fixtures, capsys):
        argv = ["score", "--level", "syn", *_SCORE_SIDES["syn"], "--seed", "1", "--bin-width", "2"]
        with pytest.raises(SystemExit):
            run_main([arg.format(f=fixtures) for arg in argv], capsys)
        assert capsys.readouterr().err.endswith("does not read --bin-width, --seed\n")

    @pytest.mark.parametrize(
        "level, typed",
        [
            ("morph", ["--registry", "{f}/registry.csv", "--bin-width", "0.5", "--seed", "1"]),
            ("syn", ["--syn-dims", "206", "--drop-incomplete"]),
        ],
    )
    def test_flags_of_the_level_are_read(self, level, typed, fixtures, capsys):
        argv = ["score", "--level", level, *_SCORE_SIDES[level], *typed]
        code, _, _ = run_main([arg.format(f=fixtures) for arg in argv], capsys)
        assert code == 0

    def test_defaults_equal_the_typed_defaults(self, fixtures, capsys):
        """A flag typed with its default value gives the output of leaving it out."""
        morph = ["score", "--level", "morph", *_SCORE_SIDES["morph"]]
        syn = ["score", "--level", "syn", *_SCORE_SIDES["syn"]]
        for plain, typed in (
            (morph, ["--bin-width", "1.0", "--sample-target", "10000", "--seed", "0"]),
            (syn, ["--syn-dims", "103"]),
        ):
            plain = [arg.format(f=fixtures) for arg in plain]
            assert run_main(plain, capsys)[1] == run_main([*plain, *typed], capsys)[1]


#: Run the CLI with only the standard library and the package importable
#: (python -I -S, src first on sys.path), then name on a last stderr line
#: which of the modules only reading text needs were loaded.
#: Modules no command needs at start-up. ``regex`` is loaded by the first
#: tokenizer call and ``fractions`` by an exact bin floor; ``random`` is
#: loaded only to sample a corpus longer than the sample target.
_START_UP_FREE = (
    "regex",
    "importlib.resources",
    "fractions",
    "dataclasses",
    "inspect",
    "typing",
    "random",
)
_STDLIB_ONLY = (
    "import os, sys\n"
    "sys.path[:0] = sys.argv.pop(1).split(os.pathsep)\n"
    "from divscore.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    f"loaded = [m for m in {_START_UP_FREE!r} if m in sys.modules]\n"
    "print('loaded:', *loaded, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class TestImports:
    @pytest.mark.parametrize(
        "argv, may_load",
        [
            (["families"], []),
            (["cwals"], []),
            (["correlate", "mwl", "c_wals"], []),
            (["score", "--level", "syn", *_SCORE_SIDES["syn"]], []),
            # a morph score bins its values, and a value near a bin edge
            # takes the exact decimal floor
            (["score", "--level", "morph", "--dataset", "{t}", "--reference", "{m}"], ["fractions"]),
            # every corpus is shorter than the sample target: nothing to sample
            (["profile", "--dataset", "{f}/corpus_ds"], ["regex"]),
        ],
        ids=["families", "cwals", "correlate", "score-syn", "score-morph-tables", "profile"],
    )
    def test_table_commands_start_without_regex(self, argv, may_load, fixtures, tmp_path):
        """A command runs on the standard library and `regex` alone: it
        writes what a normal run writes, and of the modules in
        `_START_UP_FREE` it imports only those its case names. A command
        that reads no text imports no `regex`, and none imports
        `dataclasses`, `inspect`, `typing` or `random`."""
        table = tmp_path / "side.csv"
        table.write_text("iso,mwl\neng,4.2\nfin,7.1\ntur,6.0\nzho,1.5\n")
        argv = [a.format(f=fixtures, t=table, m=bundled_path("mwl_cwals.csv")) for a in argv]
        # regex is the one third-party package on the path
        (tmp_path / "deps").mkdir()
        (tmp_path / "deps" / "regex").symlink_to(Path(regex.__file__).parent)
        src = str(Path(divscore.__file__).resolve().parents[1])
        path = os.pathsep.join([src, str(tmp_path / "deps")])
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _STDLIB_ONLY, path, *argv],
            capture_output=True,
            check=False,
        )
        code, out, err = run_proc(argv)
        assert (proc.returncode, code) == (0, 0), proc.stderr
        assert proc.stdout == out
        diagnostics, _, loaded = proc.stderr.decode().rpartition("loaded:")
        assert diagnostics == err.decode()
        assert [m for m in loaded.split() if m not in may_load] == []

    def test_cli_loads_no_scipy(self):
        """scipy is only the tests' ranking oracle; no command may pay its import."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import divscore.cli, sys; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "[]\n"

    def test_no_command_imports_numpy(self, fixtures):
        """numpy is only the tests' arithmetic oracle; no command may import it."""
        argvs = [_format_case_argv(case, fixtures) for case in sorted(_FORMAT_CASES)]
        script = (
            "import contextlib, io, sys\n"
            "from divscore.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    assert code == 0, (argv, code, err.getvalue())\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n"
