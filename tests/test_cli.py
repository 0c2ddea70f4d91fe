"""End-to-end command behavior: formats, exit codes, and diagnostics."""
import contextlib
import csv
import gc
import importlib
import io
import itertools
import json
import math
import os
import re
import runpy
import shutil
import string
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
import regex
from hypothesis import example, given
from hypothesis import strategies as st

import divscore
from divscore import cli, model
from divscore.ingest import bundled_path
from oracles import morph_payload, neumaier_sum, syn_payload
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

    def test_invalid_utf8_names_the_position_in_the_file(self, fixtures, tmp_path, capsys):
        # the bad byte is at 18 in the file and at 6 in its distinct chunks
        # joined by line breaks, which the tokenizer decodes first
        p = tmp_path / "abc.txt"
        p.write_bytes(b"ok ok ok ok la la \xff tail\n")
        failed = (
            f"profile failed for abc.txt: corpus {p} is not valid UTF-8: 'utf-8' codec "
            "can't decode byte 0xff in position 18: invalid start byte\n"
        )
        code, out, err = run_main(["profile", "--dataset", str(tmp_path)], capsys)
        assert (code, json.loads(out)["profiles"], err) == (1, [], failed)
        argv = ["score", "--level", "morph", "--dataset", str(tmp_path)]
        code, out, err = run_main(argv + ["--reference", str(fixtures / "corpus_ref")], capsys)
        assert (code, out) == (1, "")
        assert err == failed + (
            f"error: --dataset corpus directory {tmp_path}: profile failed for 1 file(s): "
            "abc.txt; a side is scored whole or not at all\n"
        )

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

    @pytest.mark.parametrize("flag", ["--dataset", "--reference"])
    def test_header_only_table_side_names_flag_and_file(self, flag, tmp_path, capsys):
        empty, table = tmp_path / "empty.csv", tmp_path / "t.csv"
        empty.write_text("iso,mwl\n")
        table.write_text("iso,mwl\naaa,3.2\nbbb,4.5\n")
        sides = {"--dataset": str(table), "--reference": str(table), flag: str(empty)}
        argv = ["score", "--level", "morph", *itertools.chain(*sides.items())]
        code, out, err = run_main(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {flag} table {empty} has no language rows\n"

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
        # nor is the registry read: a missing one is no error
        missing = str(tmp_path / "absent.csv")
        code, out, err = run_main([*tables, "--registry", missing], capsys)
        assert code == 0
        assert "note: both sides are tables, so --registry go unread\n" in err
        assert out == plain
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
        import divscore.diversity

        calls = []
        real = divscore.diversity.feature_side

        def counted(matrix, zeros=False):
            calls.append(matrix.n_languages)
            return real(matrix, zeros)

        monkeypatch.setattr(divscore.diversity, "feature_side", counted)
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

    @pytest.mark.parametrize("flag", ["--dataset", "--reference"])
    def test_all_zero_side_named_before_feature_mismatch(self, fixtures, tmp_path, capsys, flag):
        """A side without weight whose columns are also renamed is named
        alone, by its flag and path, before the feature lists are compared."""
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("iso,s1,sX,s3,s4,s5,s6\nqza,0,0,0,0,0,0\nqzb,0,0,0,0,0,0\n")
        args = self._args(fixtures)
        args[args.index(flag) + 1] = str(zeros)
        code, out, err = run_main(args, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {flag} {zeros}: syntactic weights need positive total weight\n"


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
        holey = "qqb," + ",".join(["?"] + [str(s.final_min) for s in specs[1:]])
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

    def test_spec_file_of_25_chapters_names_the_file(self, tmp_path, capsys):
        text = bundled_path("morph_feature_specs.csv").read_text(encoding="utf-8")
        spec_path = tmp_path / "specs.csv"
        spec_path.write_text("".join(text.splitlines(keepends=True)[:-1]), encoding="utf-8")
        code, out, err = run_main(["cwals", "--specs", str(spec_path)], capsys)
        assert code == 1 and out == ""
        reason = "must list exactly 26 chapters, got 25"
        assert err == f"error: morphology spec file {spec_path} {reason}\n"


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
        """The header error shows the header, so it lists every column.
        One table is read for both columns, so the error names both."""
        code, _, err = run_main(["correlate", "mwl", "nope"], capsys)
        assert code == 1
        table = bundled_path("mwl_cwals.csv")
        assert err == (
            f"error: table {table} header must be 'iso' first, with the column(s) mwl, nope, "
            "got iso,name,mwl,c_wals\n"
        )

    def test_one_table_is_read_once(self, capsys, monkeypatch):
        read_bytes, reads = Path.read_bytes, []

        def spy(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        code, out, _ = run_main(["correlate", "mwl", "c_wals"], capsys)
        assert code == 0 and json.loads(out)["n"] == 28
        assert reads == ["mwl_cwals.csv"]

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

    @pytest.mark.parametrize("flag", ["--dataset", "--reference"])
    def test_header_only_table_names_flag_and_file(self, flag, tmp_path, capsys):
        """Checked before the overlap, so the error names the empty side."""
        empty, table = tmp_path / "empty.csv", tmp_path / "t.csv"
        empty.write_text("iso,x,y\n")
        table.write_text("iso,x,y\naaa,1,2\nbbb,2,3\n")
        sides = {"--dataset": str(table), "--reference": str(table), flag: str(empty)}
        code, out, err = run_main(["correlate", "x", "y", *itertools.chain(*sides.items())], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {flag} table {empty} has no language rows\n"

    def test_header_only_single_table_names_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("iso,mwl,c_wals\n")
        code, out, err = run_main(["correlate", "mwl", "c_wals", "--dataset", str(empty)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --dataset table {empty} has no language rows\n"

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


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Tuple(tuple):
    pass


#: Every JSON scalar: str of any code point (lone surrogates too), int of
#: any size, every float (signed zeros, subnormals, NaN, the infinities),
#: bool and None.
_JSON_SCALARS = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300),
    st.floats(),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner),
    max_leaves=40,
)


class TestJsonWriter:
    """``cli._json_text`` writes what ``json.dumps(indent=2,
    sort_keys=True)`` writes, byte for byte."""

    @pytest.mark.thorough
    @given(_JSON_VALUES)
    @example({})
    @example([])
    @example(())
    @example({"": {}, "b": [[], ()], "a": [{}]})
    @example(["\U0001f600", "\ud83d", '"', "\\", "\x00\x1f\x7f\n\t", "\u2028 é ✓"])
    @example([2**64, -(2**64) - 1, 10**100, 0, -1])
    @example([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1.5, -2.5e300])
    @example([float("nan"), float("inf"), float("-inf")])
    @example({"t": True, "f": False, "n": None, "i": 1, "x": 1.0})
    @example({"b": {"d": [1, {"e": None}]}, "a": [True, "z"]})
    # a subclass of a scalar type renders as that type, and a tuple's as a list
    @example([_Str("s"), _Int(7), _Float("nan"), _Float(0.1), _Tuple((1, "x"))])
    def test_matches_json_dumps_property(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "obj",
        [
            {1, 2},
            b"bytes",
            1j,
            # repr(object()) holds a memory address, so the id is given
            pytest.param(object(), id="object()"),
            {"a": [1, frozenset()]},
        ],
        ids=repr,
    )
    def test_other_types_are_a_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(obj)


#: The functions that build what only ``score --format json`` prints, by
#: the module the CLI calls them through.
_JSON_ONLY = (
    ("analysis", "attach_gap"),
    ("diversity", "ti_morph"),
    ("diversity", "ti_syn"),
)


class TestScoreBuildsOnlyWhatItPrints:
    @staticmethod
    def _sides(level, single, fixtures, tmp_path):
        if not single:
            return [a.format(f=fixtures) for a in _SCORE_SIDES[level]]
        one = tmp_path / "one.csv"
        if level == "morph":
            one.write_text("iso,mwl\neng,4.2\n")
            return ["--dataset", str(one), "--reference", str(bundled_path("mwl_cwals.csv"))]
        one.write_text("iso,s1,s2,s3,s4,s5,s6\nqda,1,0,1,0,1,0\n")
        return ["--dataset", str(one), "--reference", f"{fixtures}/syn_reference.csv"]

    @pytest.mark.parametrize("single", [False, True], ids=["sides", "single-language"])
    @pytest.mark.parametrize("fmt", ["csv", "svg", "json"])
    @pytest.mark.parametrize("level", ["morph", "syn"])
    def test_gap_and_ti_only_for_json(self, level, fmt, single, fixtures, tmp_path, capsys):
        """csv and svg print the per-bin table alone, so they call none of
        `_JSON_ONLY`; json calls what its level needs. Every format writes
        the stdout and stderr of a run with the functions unspied."""
        argv = ["score", "--level", level, *self._sides(level, single, fixtures, tmp_path)]
        argv += ["--format", fmt]
        unspied = run_main(argv, capsys)
        calls = []

        def spy(name, fn):
            def spied(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return spied

        with pytest.MonkeyPatch.context() as mp:
            for module, name in _JSON_ONLY:
                module = getattr(cli, module)
                mp.setattr(module, name, spy(name, getattr(module, name)))
            assert run_main(argv, capsys) == unspied
        assert unspied[0] == 0
        # stderr does not depend on the format, the TI note included
        assert unspied[2] == run_main([*argv[:-1], "json"], capsys)[2]
        assert (f"ti_{level} skipped for a single-language side" in unspied[2]) == single
        if fmt != "json":
            assert calls == []
        else:
            # a single-language side gets no TI value, the other side one
            ti = ["ti_morph" if level == "morph" else "ti_syn"] * (1 if single else 2)
            assert sorted(calls) == sorted(["attach_gap", *ti])

    @pytest.mark.parametrize("fmt", ["csv", "svg", "json"])
    @pytest.mark.parametrize("level", ["morph", "syn"])
    def test_one_report_and_one_table(self, level, fmt, fixtures, tmp_path, capsys, monkeypatch):
        """A score builds one report and, in it, one per-bin table, which
        every part of the output reads: json's gap block and table, svg's
        bars, labels and title."""
        reports, rows = [], []

        def spy(built, new):
            def spied(cls, *args, **kwargs):
                built.append(new(cls, *args, **kwargs))
                return built[-1]

            return staticmethod(spied)

        for cls, built in ((model.DiversityReport, reports), (model.BinOverlap, rows)):
            monkeypatch.setattr(cls, "__new__", spy(built, cls.__new__))
        argv = ["score", "--level", level, *self._sides(level, False, fixtures, tmp_path)]
        assert run_main([*argv, "--format", fmt], capsys)[0] == 0
        built = list(rows)  # before a read of the table could build more
        assert len(reports) == 1
        assert built == list(reports[0].per_bin)


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
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
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
            ("worker-exit-second", r"^a profile worker ended without results for qa[a-f]\.txt"),
        ],
    )
    def test_unexpected_end_fails_the_command(self, where, message, fixtures, tmp_path, monkeypatch):
        parent, real, exits, done = os.getpid(), cli.textstats.profile, tmp_path / "exits", []
        failed = tmp_path / "failed"  # made by the process that fails its file

        def failing(corpus, *args, **kwargs):
            in_worker = os.getpid() != parent
            if where == "parent" and in_worker:
                # the workers could take every file while this process still
                # forks: each waits, at most 20 s, until this process failed
                deadline = time.monotonic() + 20
                while not failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
            if where == ("worker" if in_worker else "parent"):
                failed.touch()
                raise RuntimeError(f"boom in {corpus.iso}")
            if in_worker and (where == "worker-exit" or where == "worker-exit-second" and done):
                with open(exits, "a", encoding="utf-8") as fh:
                    fh.write(f"{corpus.iso}.txt\n")
                os._exit(3)
            if not in_worker and where == "worker-exit-second":
                time.sleep(0.05)  # so that each worker takes a second file
            done.append(corpus.iso)  # this process's own list, after the fork
            return real(corpus, *args, **kwargs)

        monkeypatch.setattr(cli.textstats, "profile", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
        with pytest.raises(RuntimeError, match=message) as raised:
            cli.main(["profile", "--dataset", str(fixtures / "corpus_ds")])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if where.startswith("worker-exit"):
            # a worker that ends loses only the file it held: the message
            # names exactly the files at which a worker ended
            named = str(raised.value).split(" for ", 1)[1].split(", ")
            assert named == sorted(exits.read_text().split())

    def test_no_fork_while_other_threads_run(self, fixtures, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
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

    @pytest.mark.parametrize("case", ["profile", "score"])
    def test_fixture_corpora_profiled_without_forking(self, case, fixtures, capsys, monkeypatch):
        # a few KB per file: below FORK_MIN_BYTES per worker, whatever the CPU count
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for the fixture corpora"))
        for cpus in (2, 3, 64):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code, _, _ = run_main([arg.format(f=fixtures) for arg in _PARALLEL_CASES[case]], capsys)
            assert code == 0

    def test_files_handed_out_largest_first(self, tmp_path, monkeypatch):
        files = []
        for name, size in [("aaa", 5), ("bbb", 9), ("ccc", 4), ("ddd", 0), ("eee", 0), ("fff", 4)]:
            files.append(tmp_path / f"{name}.txt")
            files[-1].write_bytes(b"x" * size)
        (tmp_path / "ref").mkdir()
        (tmp_path / "ref" / "abc.txt").write_bytes(b"x" * 9)
        files += [tmp_path / "ref" / "abc.txt", tmp_path / "missing.txt"]
        written, write = {}, os.write
        monkeypatch.setattr(os, "write", lambda fd, b: written.setdefault(fd, []).append(b) or write(fd, b))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
        args = cli.build_parser().parse_args(["profile", "--dataset", str(tmp_path)])
        results = cli._profile_files(files, {}, args)
        assert [isinstance(r, str) for r in results] == [False] * 3 + [True] * 2 + [False, False, True]
        (records,) = [b"".join(chunks) for chunks in written.values()]  # one task pipe
        order = [int.from_bytes(records[k : k + 4], sys.byteorder) for k in range(0, len(records), 4)]
        # largest first; equal sizes in name order, whatever their directory;
        # the missing file counts as 0 bytes
        assert [files[i].name for i in order] == [
            "abc.txt", "bbb.txt", "aaa.txt", "ccc.txt", "fff.txt", "ddd.txt", "eee.txt", "missing.txt"
        ]

    def test_slow_file_does_not_hold_back_the_others(self, fixtures, tmp_path, capsys, monkeypatch):
        argv = ["profile", "--dataset", str(fixtures / "corpus_ref")]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        sequential = run_main(argv, capsys)
        files = sorted((fixtures / "corpus_ref").glob("*.txt"))
        slow = max(files, key=lambda f: f.stat().st_size).stem
        log, real = tmp_path / "taken.log", cli.textstats.profile

        def logged(corpus, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:  # one appending write: whole lines
                fh.write(f"{os.getpid()} {corpus.iso}\n")
            if corpus.iso == slow:  # wait until every other file is taken, at most 20 s
                deadline = time.monotonic() + 20
                while len(log.read_text().splitlines()) < len(files) and time.monotonic() < deadline:
                    time.sleep(0.005)
            return real(corpus, *args, **kwargs)

        monkeypatch.setattr(cli.textstats, "profile", logged)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
        assert run_main(argv, capsys) == sequential
        taken = [line.split() for line in log.read_text().splitlines()]
        assert sorted(iso for _, iso in taken) == sorted(f.stem for f in files)  # each once
        (slow_pid,) = [pid for pid, iso in taken if iso == slow]
        assert [iso for pid, iso in taken if pid == slow_pid] == [slow]

    def test_batch_larger_than_the_task_pipe(self, tmp_path, capsys, monkeypatch):
        # aaa-zzz: 17,576 records of 4 bytes, more than a 64 KiB pipe holds,
        # and more results than a worker's result pipe holds
        names = ["".join(t) for t in itertools.product(string.ascii_lowercase, repeat=3)]
        for k, name in enumerate(names):
            (tmp_path / f"{name}.txt").write_text("" if k % 2 else f"{name} ab abc\n")
        argv = ["profile", "--dataset", str(tmp_path)]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        sequential = run_main(argv, capsys)
        log, real = tmp_path / "taken.log", cli.load_corpus  # not a corpus: no .txt

        def logged(path, iso):
            with open(log, "a", encoding="utf-8") as fh:  # one appending write: whole lines
                fh.write(f"{os.getpid()} {iso}\n")
            return real(path, iso)

        monkeypatch.setattr(cli, "load_corpus", logged)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "FORK_MIN_BYTES", 1)
        assert run_main(argv, capsys) == sequential
        taken = [line.split() for line in log.read_text().splitlines()]
        assert sorted(iso for _, iso in taken) == names  # each file profiled once
        assert sequential[0] == 1 and len(json.loads(sequential[1])["profiles"]) == len(names) // 2
        # this process collects the workers' results after each of its own
        # files, so no worker stops on a full result pipe and leaves the
        # rest of the batch to this process
        assert sum(pid == str(os.getpid()) for pid, _ in taken) < len(names) * 2 // 3


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


def _languages(n):
    """The first ``n`` iso codes of aaa, aab, ..., zzz."""
    codes = itertools.product(string.ascii_lowercase, repeat=3)
    return ["".join(code) for code in itertools.islice(codes, n)]


def _sized_inputs(root, n_languages, n_files):
    """Write one input of each kind under ``root``: a table of ``iso`` and
    two number columns and a 12-feature binary matrix of ``n_languages``
    rows, and corpus directories of ``n_files`` good and bad files."""
    root.mkdir()
    isos = _languages(n_languages)
    rows = [f"{iso},{2 + k % 997 / 100},{k % 13}" for k, iso in enumerate(isos)]
    (root / "table.csv").write_text("\n".join(["iso,mwl,c_wals", *rows, ""]))
    rows = [",".join([iso, *(str(k >> j & 1) for j in range(12))]) for k, iso in enumerate(isos, 1)]
    header = ",".join(["iso", *(f"f{j}" for j in range(12))])
    (root / "matrix.csv").write_text("\n".join([header, *rows, ""]))
    for name, text in (("good", "{iso} ab abc abcd\n"), ("bad", "... --- ...\n")):
        (root / name).mkdir()
        for iso in _languages(n_files):
            (root / name / f"{iso}.txt").write_text(text.format(iso=iso))


_SIZED_SYN = [
    "score", "--level", "syn", "--dataset", "{r}/matrix.csv", "--reference", "{r}/matrix.csv"
]

#: name -> argv, "{r}" standing for a directory `_sized_inputs` wrote
_GARBAGE_CASES = {
    "score-morph-tables": _morph("{r}/table.csv", "{r}/table.csv", "--bin-width", "0.1"),
    "score-morph-svg": _morph("{r}/table.csv", "{r}/table.csv", "--format", "svg"),
    "score-syn": [*_SIZED_SYN, "--syn-dims", "206"],
    "score-syn-csv": [*_SIZED_SYN, "--format", "csv"],
    "correlate": ["correlate", "mwl", "c_wals", "--dataset", "{r}/table.csv"],
    "profile": ["profile", "--dataset", "{r}/good"],
    "score-corpora": _morph("{r}/good", "{r}/good"),
    "profile-failed": ["profile", "--dataset", "{r}/bad"],
    "score-corpora-failed": _morph("{r}/bad", "{r}/good"),
}


class TestCollector:
    @pytest.mark.parametrize("case", sorted(_GARBAGE_CASES))
    def test_cyclic_garbage_does_not_grow_with_the_input(self, case, tmp_path, capsys):
        """What the program entry `cli.run` relies on to leave the cyclic
        collector off: a command leaves as many cyclic objects for
        ``gc.collect`` to find after 2,000 languages or 20 corpus files as
        after 20 languages or 2 files. ``main`` leaves the collector as it
        found it, off here."""
        argvs = []
        for name, languages, files in (("small", 20, 2), ("large", 2000, 20)):
            _sized_inputs(tmp_path / name, languages, files)
            argvs.append([a.format(r=tmp_path / name) for a in _GARBAGE_CASES[case]])
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        gc.disable()
        try:
            codes, found = [], []
            for argv in [argvs[0], *argvs]:  # the first call is a warm-up
                gc.collect()
                codes.append(cli.main(argv))
                capsys.readouterr()
                found.append(gc.collect())
            assert (gc.isenabled(), gc.get_freeze_count()) == (False, frozen)
        finally:
            if enabled:
                gc.enable()
        assert codes == [1 if case.endswith("failed") else 0] * 3
        assert found[1] == found[2], f"{found[1]} cyclic objects at the small input"

    @pytest.mark.parametrize("argv, code", [(["correlate", "mwl", "c_wals"], 0), (["nope"], 2)])
    def test_run_exits_with_the_heap_frozen_after_main_returns(self, argv, code, monkeypatch):
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        monkeypatch.setattr(sys, "argv", ["divscore", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert (exc.value.code, gc.isenabled()) == (code, False)
            # a usage error leaves main by an exception, so nothing is frozen
            assert (gc.get_freeze_count() > frozen) == (code == 0)
        finally:
            gc.unfreeze()
            if enabled:
                gc.enable()


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


#: Command lines that end in help or a usage error.
_USAGE_CASES = {
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in cli._DISPATCH},
    "no-command": [],
    "unknown-command": ["frobnicate", "--dataset", "x"],
    "missing-option": ["profile"],
    "missing-options": ["score", "--level", "morph", "--dataset", "x"],
    "unknown-option": ["families", "--bogus"],
    "bad-value": ["score", "--level", "morph", "--dataset", "x", "--reference", "y", "--seed", "s"],
    "bad-choice": ["cwals", "--format", "svg"],
    "level-flag": ["score", "--level", "syn", "--dataset", "x", "--reference", "y", "--seed", "1"],
}


class TestChosenParser:
    """``main`` builds the options of the command it runs alone, with the
    help and the usage errors of the full parser."""

    @pytest.mark.parametrize("argv", list(_USAGE_CASES.values()), ids=list(_USAGE_CASES))
    def test_same_output_as_the_full_parser(self, argv, capsys, monkeypatch):
        def outcome():
            with pytest.raises(SystemExit) as exc:
                cli.main(list(argv))
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        chosen = outcome()
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=(): build_parser())
        assert outcome() == chosen
        assert chosen[0] == (0 if "--help" in argv else 2)

    def test_only_the_chosen_command_gets_its_options(self):
        """Every command is added; the others take no option, not even
        ``--format``, which all of them have in the full parser."""
        argv = ["families", "--format", "csv"]
        assert cli.build_parser(argv).parse_known_args(argv)[1] == []
        assert cli.build_parser().parse_known_args(argv)[1] == []
        for chosen in cli._DISPATCH:
            parser = cli.build_parser([chosen])
            for other in sorted(set(cli._DISPATCH) - {chosen}):
                assert parser.parse_known_args([other, *argv[1:]])[1] == argv[1:]


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
    "json",
)
#: Runs the CLI with the path given first on sys.path, then names on the
#: last two stderr lines the modules of `_START_UP_FREE` it imported and
#: the divscore submodules it executed; a lazily loaded module that nothing
#: read is still a ``LazyLoader`` placeholder, not a plain module.
_STDLIB_ONLY = (
    "import os, sys, types\n"
    "sys.path[:0] = sys.argv.pop(1).split(os.pathsep)\n"
    "from divscore.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    f"loaded = [m for m in {_START_UP_FREE!r} if m in sys.modules]\n"
    "executed = sorted(\n"
    "    n for n, m in sys.modules.items()\n"
    "    if n.startswith('divscore.') and type(m) is types.ModuleType\n"
    ")\n"
    "print('loaded:', *loaded, file=sys.stderr)\n"
    "print('executed:', *executed, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class TestRegistryColumns:
    """Commands read a registry's family and script_scale by name: the
    order of its columns and the text of the others do not matter."""

    @staticmethod
    def _permuted(fixtures, tmp_path):
        """The fixture registry with its columns after iso reordered and
        every endangerment set to a value outside any fixed list."""
        with open(fixtures / "registry.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        columns = ("iso", "script_scale", "endangerment", "name", "family")
        order = [header.index(c) for c in columns]
        for row in rows:
            row[header.index("endangerment")] = "doomed"
        path = tmp_path / "registry.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            table = [[row[j] for j in order] for row in [header, *rows]]
            csv.writer(fh, lineterminator="\n").writerows(table)
        return path

    def test_score_morph_matches_golden_bytes(self, fixtures, tmp_path, capsys):
        registry = ["--registry", str(self._permuted(fixtures, tmp_path))]
        argv = _morph(f"{fixtures}/corpus_ds", f"{fixtures}/corpus_ref", *registry)
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == (fixtures / "golden" / "score_morph.json").read_text(encoding="utf-8")

    def test_families_prints_the_same(self, fixtures, tmp_path, capsys):
        listing = tmp_path / "langs.txt"
        listing.write_text("qaa\nqba\nqbb\nqca\nqcl\nqaa\nzzz\n")
        permuted = self._permuted(fixtures, tmp_path)
        argv = ["families", "--dataset", str(listing), "--registry"]
        for fmt in ("json", "csv"):
            fixture = run_main([*argv, str(fixtures / "registry.csv"), "--format", fmt], capsys)
            assert fixture[0] == 0
            assert run_main([*argv, str(permuted), "--format", fmt], capsys) == fixture


#: (module, function) of each function the benchmark's tracer wraps by
#: name, read from its probe list.
_BENCH_PROBES = [
    (module, function)
    for module, function, _ in runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "bench" / "trace_child.py")
    )["PROBES"]
]
#: Probes whose function no longer exists, so their per-layer metric
#: reads 0; each is a FOUND line in CHANGES.md.
_VANISHED_PROBES = {
    ("diversity", "align_bins"): "CHANGES.md:81, diversity.align_s reads 0",
    ("ingest", "load_profile_table"): "CHANGES.md:124, ingest.load_profile_table_s reads 0",
}


@pytest.mark.parametrize(
    "module, function",
    [
        pytest.param(
            *probe,
            id=".".join(probe),
            marks=[pytest.mark.xfail(strict=True, reason=_VANISHED_PROBES[probe])]
            if probe in _VANISHED_PROBES
            else [],
        )
        for probe in _BENCH_PROBES
    ],
)
def test_bench_probe_names_a_function(module, function):
    """A probe whose function was renamed or deleted is skipped by the
    tracer without a word and zeroes its per-layer metric, so each name
    must resolve in the package."""
    assert callable(getattr(importlib.import_module(f"divscore.{module}"), function, None))


#: One case per kind of command: (argv, the modules of `_START_UP_FREE` it
#: may import, the divscore modules it executes beside cli, ingest and model).
_START_UP_CASES = {
    "families": (["families"], [], []),
    "families-csv": (["families", "--format", "csv"], [], []),
    "cwals": (["cwals"], [], ["grammar"]),
    "cwals-csv": (["cwals", "--format", "csv"], [], ["grammar"]),
    "correlate": (["correlate", "mwl", "c_wals"], [], ["analysis"]),
    "score-syn": (["score", "--level", "syn", *_SCORE_SIDES["syn"]], [], ["analysis", "diversity"]),
    # a morph score bins its values, and a value near a bin edge takes
    # the exact decimal floor
    "score-morph-tables": (
        ["score", "--level", "morph", "--dataset", "{t}", "--reference", "{m}"],
        ["fractions"],
        ["analysis", "diversity"],
    ),
    # every corpus is shorter than the sample target: nothing to sample
    "profile": (["profile", "--dataset", "{f}/corpus_ds"], ["regex"], ["textstats"]),
}


def _run_stdlib_only(argv, fixtures, tmp_path):
    """Run `_STDLIB_ONLY` under ``python -I -S -B`` with the package and
    `regex`, the one third-party package, alone on the path. Returns the
    formatted argv, the process, its diagnostics, the `_START_UP_FREE`
    modules it imported and the divscore submodules it executed."""
    table = tmp_path / "side.csv"
    table.write_text("iso,mwl\neng,4.2\nfin,7.1\ntur,6.0\nzho,1.5\n")
    argv = [a.format(f=fixtures, t=table, m=bundled_path("mwl_cwals.csv")) for a in argv]
    (tmp_path / "deps").mkdir()
    (tmp_path / "deps" / "regex").symlink_to(Path(regex.__file__).parent)
    src = str(Path(divscore.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(tmp_path / "deps")])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _STDLIB_ONLY, path, *argv],
        capture_output=True,
        check=False,
    )
    diagnostics, _, tail = proc.stderr.decode().rpartition("loaded:")
    loaded, _, executed = tail.partition("executed:")
    return argv, proc, diagnostics, loaded.split(), executed.split()


class TestImports:
    @pytest.mark.parametrize(
        "argv, may_load",
        [case[:2] for case in _START_UP_CASES.values()],
        ids=list(_START_UP_CASES),
    )
    def test_table_commands_start_without_regex(self, argv, may_load, fixtures, tmp_path):
        """A command runs on the standard library and `regex` alone: it
        writes what a normal run writes, and of the modules in
        `_START_UP_FREE` it imports only those its case names. A command
        that reads no text imports no `regex`, and none imports
        `dataclasses`, `inspect`, `typing`, `random` or `json` (the JSON
        writer uses only the C module `_json`)."""
        argv, proc, diagnostics, loaded, _ = _run_stdlib_only(argv, fixtures, tmp_path)
        code, out, err = run_proc(argv)
        assert (proc.returncode, code) == (0, 0), proc.stderr
        assert proc.stdout == out
        assert diagnostics == err.decode()
        assert [m for m in loaded if m not in may_load] == []

    @pytest.mark.parametrize(
        "argv, executes",
        [case[::2] for case in _START_UP_CASES.values()],
        ids=list(_START_UP_CASES),
    )
    def test_command_executes_only_the_modules_it_reads(self, argv, executes, fixtures, tmp_path):
        """Of the lazily loaded submodules (analysis, diversity, grammar,
        textstats) a command executes only those it calls into; the rest
        stay registered and unrun, so their source is never compiled."""
        _, proc, _, _, executed = _run_stdlib_only(argv, fixtures, tmp_path)
        assert proc.returncode == 0, proc.stderr
        expected = ["cli", "ingest", "model", *executes]
        assert executed == sorted(f"divscore.{m}" for m in expected)

    def test_lazy_modules_import_as_usual(self):
        """After ``import divscore.cli``, an import of a lazily loaded
        submodule, by either spelling, gives the module the CLI calls,
        bound on the package and usable."""
        script = (
            "import divscore.cli\n"
            "import divscore.textstats\n"
            "from divscore import diversity\n"
            "assert divscore.textstats is divscore.cli.textstats\n"
            "assert diversity is divscore.cli.diversity\n"
            "print(divscore.textstats.tokenize('ab cd'), diversity.bin_index(2.5, 1.0))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=False
        )
        assert (proc.returncode, proc.stdout) == (0, "('ab', 'cd') 2\n"), proc.stderr

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


def _run_redirected(argv):
    """Run the CLI in-process with its streams redirected, which, unlike
    the function-scoped capsys, works inside a Hypothesis test; returns
    (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _morph_tables(draw):
    """A bin width of 0.1, 0.5 or 1.0 and two per-language tables of 1-12
    languages each, iso codes in drawn order, whose mwl values are any
    float in [-2, 12], a bin edge k * width or a float beside one."""
    width = draw(st.sampled_from([0.1, 0.5, 1.0]))
    edge = st.integers(-20, 120).map(lambda k: float(Fraction(repr(width)) * k))
    mwl = st.one_of(
        st.floats(-2.0, 12.0),
        edge,
        edge.map(lambda e: math.nextafter(e, math.inf)),
        edge.map(lambda e: math.nextafter(e, -math.inf)),
    )
    isos = st.lists(st.sampled_from(_languages(40)), min_size=1, max_size=12, unique=True)
    iso_d, iso_r = draw(isos), draw(isos)
    mwl_d = draw(st.lists(mwl, min_size=len(iso_d), max_size=len(iso_d)))
    mwl_r = draw(st.lists(mwl, min_size=len(iso_r), max_size=len(iso_r)))
    return width, iso_d, mwl_d, iso_r, mwl_r


@st.composite
def _syn_matrices(draw):
    """1-6 features and two 0/1 matrices of 1-9 languages each, as rows;
    the reference's iso codes in shuffled order."""
    n_features = draw(st.integers(1, 6))
    features = [f"s{j}" for j in range(1, n_features + 1)]
    row = st.lists(st.integers(0, 1), min_size=n_features, max_size=n_features)
    rows_d = draw(st.lists(row, min_size=1, max_size=9))
    rows_r = draw(st.lists(row, min_size=1, max_size=9))
    isos_r = draw(st.permutations(_languages(len(rows_r))))
    return features, rows_d, isos_r, rows_r


class TestScoreMatchesReference:
    """``score`` prints what the stdlib reference computes, over drawn
    per-language tables and 0/1 matrices: its JSON equals
    ``oracles.morph_payload`` or ``oracles.syn_payload``, and its CSV rows
    the reference's per-bin rows."""

    @staticmethod
    def _write(directory, name, header, isos, rows):
        """A CSV table of ``header`` with one line per iso code and row."""
        path = Path(directory) / name
        lines = [",".join(map(str, [iso, *row])) for iso, row in zip(isos, rows)]
        path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def _check(argv, expected):
        code, out, err = _run_redirected(argv)
        assert code == 0, err
        assert json.loads(out) == expected
        single = min(expected["dataset_n"], expected["reference_n"]) < 2
        assert (f"ti_{expected['level']} skipped for a single-language side" in err) == single
        code, out, err = _run_redirected([*argv, "--format", "csv"])
        assert code == 0, err
        fields = ["bin", "dataset", "reference", "min", "max"]
        table = list(csv.reader(io.StringIO(out)))
        rows = [[row[f] for f in fields] for row in expected["jmm"]["per_bin"]]
        assert table[0] == fields
        assert [[label, *map(float, weights)] for label, *weights in table[1:]] == rows

    @pytest.mark.thorough
    @given(case=_morph_tables())
    @example(case=(1.0, ["aaa"], [2.5], ["aab", "aac"], [1.5, 2.5]))  # one language: null ti
    @example(  # 5 vs 8 languages: scaled float weights sum to 31/49 one ulp low
        case=(
            1.0,
            _languages(5),
            [3.5, 1.5, 0.5, 1.5, 3.5],
            _languages(8)[::-1],
            [3.5, 1.5, 3.5, 1.5, 0.5, 3.5, 2.5, 3.5],
        )
    )
    @example(  # seven reference languages in one deficit bin, in reverse iso order
        case=(1.0, ["aaa"], [2.5], _languages(7)[::-1], [1.5] * 7)
    )
    @example(  # 0.3 / 0.1 is 2.9999999999999996, but 0.3 lies in bin 3 and the float below in 2
        case=(0.1, ["aaa", "aab"], [0.3, 0.7], ["aac", "aad", "aae"], [0.3, 0.2, 0.3 - 2**-54])
    )
    def test_morph_property(self, case):
        width, iso_d, mwl_d, iso_r, mwl_r = case
        with tempfile.TemporaryDirectory() as tmp:
            ds = self._write(tmp, "ds.csv", ["iso", "mwl"], iso_d, zip(mwl_d))
            ref = self._write(tmp, "ref.csv", ["iso", "mwl"], iso_r, zip(mwl_r))
            argv = ["score", "--level", "morph", "--dataset", ds, "--reference", ref]
            argv += ["--bin-width", repr(width)]
            self._check(argv, morph_payload(mwl_d, mwl_r, iso_r, width))

    @pytest.mark.thorough
    @given(case=_syn_matrices())
    @example(  # an all-zero dataset: no score at 103 dimensions, one at 206
        case=(["s1", "s2"], [[0, 0], [0, 0], [0, 0]], ["aab", "aaa"], [[1, 0], [0, 1]])
    )
    def test_syn_property(self, case):
        features, rows_d, isos_r, rows_r = case
        iso_d = _languages(len(rows_d))
        with tempfile.TemporaryDirectory() as tmp:
            ds = self._write(tmp, "ds.csv", ["iso", *features], iso_d, rows_d)
            ref = self._write(tmp, "ref.csv", ["iso", *features], isos_r, rows_r)
            for dims in (103, 206):
                argv = ["score", "--level", "syn", "--dataset", ds, "--reference", ref]
                argv += ["--syn-dims", str(dims)]
                expected = syn_payload(features, rows_d, rows_r, isos_r, dims)
                if expected is None:
                    code, out, err = _run_redirected(argv)
                    assert code == 1 and out == "" and "need positive total weight" in err
                else:
                    self._check(argv, expected)
