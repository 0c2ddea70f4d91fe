"""The acceptance gate.

One group of tests per shipped guarantee; the terminal summary prints a
PASS/FAIL line per criterion (see conftest). Each test pins the
tolerance and the budget it must hold at.

1. published-table correlation     rho = 0.69 +/- 0.01, < 1 s
2. bundled complexity values       all 28 within +/- 0.005, < 1 s
3. randomized brute-force match    >= 1000 instances at 1e-12, toy = 1/3, < 10 s
4. overlap score properties        identity, symmetry, range, duplication, coarsening
5. evenness index properties       balanced/constant/flip; split values
6. subsampling rank stability      rho(MWL@500, MWL@full) >= 0.9 on >= 10 languages
7. grapheme counting               two-cluster Han token; NFC == decomposed
8. end-to-end determinism          byte-identical reruns; sums reproduce the score
9. score matrix schema             four scores x N datasets + stated limits
"""
import ast
import csv
import json
import random
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divscore.diversity import bin_measurements, ti_morph, ti_syn
from divscore.ingest import bundled_path, load_corpus
from divscore.model import FeatureMatrix
from divscore.analysis import spearman
from divscore.textstats import (
    grapheme_length,
    mean_word_length,
    profile,
    sample_contiguous,
    tokenize,
)
from oracles import bent, brute_jmm, morph_payload
from support import jmm, run_main, run_proc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

measurements = st.lists(
    st.floats(min_value=-3.0, max_value=6.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


# criterion 1 ---------------------------------------------------------------

def test_c01_published_table_correlation(capsys):
    start = time.perf_counter()
    code, out, _ = run_main(["correlate", "mwl", "c_wals"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 28
    assert payload["rho"] == pytest.approx(0.69, abs=0.01)
    assert elapsed < 1.0


# criterion 2 ---------------------------------------------------------------

def test_c02_bundled_complexity_values(capsys):
    with open(bundled_path("mwl_cwals.csv"), newline="") as fh:
        published = {row["iso"]: float(row["c_wals"]) for row in csv.DictReader(fh)}
    assert len(published) == 28

    start = time.perf_counter()
    code, out, _ = run_main(["cwals"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    recomputed = {r["iso"]: r["c_wals"] for r in json.loads(out)["c_wals"]}

    assert sorted(recomputed) == sorted(published)
    for iso, value in published.items():
        assert recomputed[iso] == pytest.approx(value, abs=0.005), iso
    assert recomputed["tur"] == pytest.approx(0.76, abs=0.005)
    assert recomputed["vie"] == pytest.approx(0.21, abs=0.005)
    assert recomputed["swh"] == pytest.approx(0.71, abs=0.005)
    assert elapsed < 1.0


# criterion 3 ---------------------------------------------------------------

def test_c03_randomized_brute_force_equivalence():
    start = time.perf_counter()

    # hand-derived toy case: c = 1.5 on {3.2, 4.1}, min-sum 1.5 over
    # max-sum 4.5
    assert jmm([2.5, 3.5, 3.7], [3.2, 4.1], 1.0).value == 1 / 3
    assert brute_jmm([2.5, 3.5, 3.7], [3.2, 4.1], 1.0) == 1 / 3

    rng = random.Random(13)
    instances = 0
    for _ in range(1000):
        lo, hi = rng.choice([(0.0, 6.0), (-3.0, 3.0)])
        a = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 10))]
        b = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 10))]
        got = jmm(a, b, 1.0).value
        want = brute_jmm(a, b, 1.0)
        assert abs(got - want) <= 1e-12, (a, b)
        instances += 1
    assert instances >= 1000
    assert time.perf_counter() - start < 10.0


# criterion 4 ---------------------------------------------------------------

@given(values=measurements, width=st.sampled_from([0.5, 1.0, 2.5]))
@settings(max_examples=150)
def test_c04_identity(values, width):
    assert jmm(values, values, width).value == 1.0


@given(a=measurements, b=measurements, width=st.sampled_from([0.5, 1.0]))
@settings(max_examples=150)
def test_c04_symmetry(a, b, width):
    assert jmm(a, b, width).value == jmm(b, a, width).value


@given(a=measurements, b=measurements, width=st.sampled_from([0.5, 1.0]))
@settings(max_examples=150)
def test_c04_range(a, b, width):
    assert 0.0 <= jmm(a, b, width).value <= 1.0


@given(a=measurements, b=measurements, k=st.sampled_from([2, 3, 5]))
@settings(max_examples=150)
def test_c04_duplication_invariance(a, b, k):
    base = jmm(a, b, 1.0).value
    assert jmm(a * k, b, 1.0).value == pytest.approx(base, abs=1e-12)
    assert jmm(a, b * k, 1.0).value == pytest.approx(base, abs=1e-12)


@given(a=measurements, b=measurements)
@example(a=[-1.0], b=[-5e-324])
@settings(max_examples=150)
def test_c04_bin_coarsening_monotonicity(a, b):
    assert jmm(a, b, 2.0).value >= jmm(a, b, 1.0).value - 1e-12


# criterion 5 ---------------------------------------------------------------

def _binary_matrix(rows):
    isos = ["q" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26) for i in range(len(rows))]
    features = [f"s{j}" for j in range(1, len(rows[0]) + 1)]
    return FeatureMatrix(isos, features, rows)


def test_c05_ti_syn_balanced_matrix():
    m = _binary_matrix([[1, 0, 1], [0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert ti_syn(m) == 1.0


def test_c05_ti_syn_constant_matrix():
    m = _binary_matrix([[1, 0, 1], [1, 0, 1], [1, 0, 1]])
    assert ti_syn(m) == 0.0


@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=150)
def test_c05_ti_syn_flip_symmetry(rows):
    m = _binary_matrix(rows)
    flipped = _binary_matrix([[1 - v for v in row] for row in rows])
    assert abs(ti_syn(m) - ti_syn(flipped)) <= 1e-12


def test_c05_ti_morph_even_two_bin_split():
    assert ti_morph(bin_measurements([0.25, 0.75, 1.25, 1.75], 1.0)) == 1.0


def test_c05_ti_morph_three_one_split():
    # formula oracle: both occupied bins have entropy h(3/4)
    expected = bent(0.75)
    assert expected == pytest.approx(0.811278, abs=1e-6)
    bins = bin_measurements([0.1, 0.4, 0.8, 1.5], 1.0)
    assert ti_morph(bins) == pytest.approx(0.811278, abs=1e-6)
    assert ti_morph(bins) == pytest.approx(expected, abs=1e-12)


# criterion 6 ---------------------------------------------------------------

def test_c06_subsampling_rank_stability(fixtures):
    files = sorted((fixtures / "corpus_stability").glob("*.txt"))
    assert len(files) >= 10

    small, full = [], []
    for f in files:
        toks = tokenize(load_corpus(f, f.stem).text)
        assert len(toks) >= 2000, f.name
        window, _ = sample_contiguous(toks, 500, seed=0)
        small.append(mean_word_length(Counter(window)))
        full.append(mean_word_length(Counter(toks)))
    assert spearman(small, full) >= 0.9


# criterion 7 ---------------------------------------------------------------

def test_c07_han_token_counts_two_clusters():
    seq = tokenize("我們")
    assert len(seq) == 1
    assert grapheme_length(seq[0]) == 2
    # and in running text the pair still stays one two-cluster token
    in_context = tokenize("今天 我們 出發")
    assert [grapheme_length(t) for t in in_context] == [2, 2, 2]


def test_c07_normalization_forms_count_identically(fixtures):
    nfc = profile(load_corpus(fixtures / "corpus_nfc" / "qna.txt", "qna"))
    nfd = profile(load_corpus(fixtures / "corpus_nfd" / "qna.txt", "qna"))
    raw_nfc = (fixtures / "corpus_nfc" / "qna.txt").read_bytes()
    raw_nfd = (fixtures / "corpus_nfd" / "qna.txt").read_bytes()
    assert raw_nfc != raw_nfd  # the fixture pair really differs on disk
    assert nfc == nfd


# criterion 8 ---------------------------------------------------------------

def test_c08_end_to_end_determinism(fixtures):
    args = [
        "score",
        "--level",
        "morph",
        "--dataset",
        str(fixtures / "corpus_ds"),
        "--reference",
        str(fixtures / "corpus_ref"),
        "--registry",
        str(fixtures / "registry.csv"),
        "--seed",
        "0",
    ]
    code1, out1, _ = run_proc(args)
    code2, out2, _ = run_proc(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical JSON

    payload = json.loads(out1)
    rows = payload["jmm"]["per_bin"]
    num = sum(r["min"] for r in rows)
    den = sum(r["max"] for r in rows)
    assert abs(payload["jmm"]["value"] - num / den) <= 1e-12


# criterion 9 ---------------------------------------------------------------

SCORE_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "reference", "scores"],
    "properties": {
        "schema_version": {"const": "1"},
        "reference": {
            "type": "object",
            "required": ["morph", "syn"],
            "properties": {"morph": {"type": "string"}, "syn": {"type": "string"}},
        },
        "scores": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["dataset", "jmm_morph", "jmm_syn", "ti_morph", "ti_syn"],
                "properties": {
                    "dataset": {"type": "string", "minLength": 1},
                    "jmm_morph": {"type": "number", "minimum": 0, "maximum": 1},
                    "jmm_syn": {"type": "number", "minimum": 0, "maximum": 1},
                    "ti_morph": {"type": "number", "minimum": 0, "maximum": 1},
                    "ti_syn": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
    },
}


def _score_row(name, morph_args, syn_args, capsys):
    code, out, _ = run_main(["score", "--level", "morph", *morph_args], capsys)
    assert code == 0
    morph = json.loads(out)
    code, out, _ = run_main(["score", "--level", "syn", *syn_args], capsys)
    assert code == 0
    syn = json.loads(out)
    return {
        "dataset": name,
        "jmm_morph": morph["jmm"]["value"],
        "ti_morph": morph["ti"]["dataset"],
        "jmm_syn": syn["jmm"]["value"],
        "ti_syn": syn["ti"]["dataset"],
    }


def test_c09_stated_limits_in_readme():
    text = README.read_text(encoding="utf-8").lower()
    assert "not reproducible" in text
    assert "external" in text


def test_c09_score_matrix_schema(fixtures, capsys):
    registry = ["--registry", str(fixtures / "registry.csv")]
    ref_morph = ["--reference", str(fixtures / "corpus_ref")]
    ref_syn = ["--reference", str(fixtures / "syn_reference.csv")]

    rows = [
        _score_row(
            "fixture-a",
            ["--dataset", str(fixtures / "corpus_ds"), *ref_morph, *registry],
            ["--dataset", str(fixtures / "syn_dataset.csv"), *ref_syn],
            capsys,
        ),
        _score_row(
            "fixture-b",
            ["--dataset", str(fixtures / "corpus_stability"), *ref_morph, *registry],
            ["--dataset", str(fixtures / "syn_missing.csv"), *ref_syn, "--drop-incomplete"],
            capsys,
        ),
    ]
    matrix = {
        "schema_version": "1",
        "reference": {"morph": "corpus_ref", "syn": "syn_reference.csv"},
        "scores": rows,
    }
    jsonschema.validate(matrix, SCORE_MATRIX_SCHEMA)
    assert len(rows) == 2
    for row in rows:
        for score in ("jmm_morph", "jmm_syn", "ti_morph", "ti_syn"):
            assert 0.0 <= row[score] <= 1.0


# the paper's finding in the bundled data ------------------------------------

def test_bundled_mbert_languages_miss_the_longest_words(tmp_path, capsys):
    """The bundled analogue of the paper's finding that (poly)synthetic
    languages are missing: the 17 languages of the 28-language table that
    the bundled mBERT list covers, scored against all 28 at width 1. The
    command prints what the stdlib reference computes."""
    with open(bundled_path("mwl_cwals.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    mbert_text = bundled_path("mbert_languages.txt").read_text(encoding="utf-8")
    mbert = {line.split("#", 1)[0].strip() for line in mbert_text.splitlines()}
    covered = [row for row in rows if row["iso"] in mbert]
    assert len(rows) == 28 and len(covered) == 17

    expected = morph_payload(
        [float(row["mwl"]) for row in covered],
        [float(row["mwl"]) for row in rows],
        [row["iso"] for row in rows],
        1.0,
    )
    assert expected["jmm"]["value"] == 0.75
    deficit = {d["bin"]: d["examples"] for d in expected["jmm"]["gap"]["deficit"]}
    assert deficit == {"bin7": ["abk", "apu"], "bin8": ["ckt", "qvi"]}

    dataset = tmp_path / "mbert_covered.csv"
    with open(dataset, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(covered)
    code, out, _ = run_main(
        [
            "score",
            "--level",
            "morph",
            "--dataset",
            str(dataset),
            "--reference",
            str(bundled_path("mwl_cwals.csv")),
            "--bin-width",
            "1",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize("path", ["tests/oracles.py", "tools/make_golden_report.py"])
def test_reference_imports_nothing_from_divscore(path):
    """The reference and the golden tool it writes check the package, so
    neither may read anything from it."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "divscore"], imported
