#!/usr/bin/env python3
"""Recompute what six commands print and write it as the golden files
the tests compare against: the morph-level score over the bundled
mini-fixture, the syn-level score over the syntactic fixture matrices
with 103 and with 206 dimensions, the complexity scores of the bundled
morphology matrix, the correlation of the bundled table's `mwl` and
`c_wals` columns, and the family count of the bundled language list.

The score payloads are those of the stdlib reference in
`tests/oracles.py`, computed without the package; this tool reads their
inputs. A mean word length is len() over the str.split() tokens of a
fixture corpus times the registry's script scale, valid only on the
fixture corpora, whose alphabet (single-code-point letters, single
spaces) makes this agree with full Unicode segmentation. The complexity
score is the exact_sum mean of each chapter's value min-max normalized
over its final range; the correlation is Pearson's r of average ranks,
in numpy.corrcoef's steps over exact Fractions. Regenerate after any
change to the fixtures, to the bundled data or to a command's JSON
envelope:

    python3 tools/make_golden_report.py
"""
import csv
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracles import exact_sum, morph_payload, syn_payload  # noqa: E402

FIX = ROOT / "tests" / "fixtures"
DATA = ROOT / "src" / "divscore" / "data"
BIN_WIDTH = 1.0
TARGET = 10000
SEED = 0


def read_scales(path):
    scales = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            scales[row["iso"]] = float(row["script_scale"]) if row["script_scale"] else 1.0
    return scales


def mwl_of(path, scale):
    tokens = path.read_text(encoding="utf-8").split()
    n = len(tokens)
    if n > TARGET:
        off = random.Random(SEED).randint(0, n - TARGET)
        tokens = tokens[off : off + TARGET]
    return sum(len(t) for t in tokens) / len(tokens) * scale


def mwls(dirname, scales):
    return {f.stem: mwl_of(f, scales[f.stem]) for f in sorted((FIX / dirname).glob("*.txt"))}


def cwals_payload():
    with open(DATA / "morph_feature_specs.csv", newline="", encoding="utf-8") as fh:
        specs = [(r["chapter"], int(r["final_min"]), int(r["final_max"])) for r in csv.DictReader(fh)]
    rows = []
    with open(DATA / "morph_values.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            norm = [0.0 if lo == hi else (int(row[ch]) - lo) / (hi - lo) for ch, lo, hi in specs]
            rows.append({"iso": row["iso"], "c_wals": exact_sum(norm) / len(specs)})
    return {"schema_version": "1", "c_wals": sorted(rows, key=lambda r: r["iso"])}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def average_ranks(values):
    """1-based ranks; tied values share the mean of the ranks they span."""
    return [
        sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
        for v in values
    ]


def correlate_payload():
    rows = read_rows(DATA / "mwl_cwals.csv")
    n = len(rows)
    mean = Fraction(n + 1, 2)
    dx = [Fraction(r) - mean for r in average_ranks([float(row["mwl"]) for row in rows])]
    dy = [Fraction(r) - mean for r in average_ranks([float(row["c_wals"]) for row in rows])]
    f = 1 / (n - 1)
    cov = float(sum(a * b for a, b in zip(dx, dy))) * f
    sx = math.sqrt(float(sum(a * a for a in dx)) * f)
    sy = math.sqrt(float(sum(b * b for b in dy)) * f)
    rho = max(-1.0, min(1.0, cov / sx / sy))
    return {"schema_version": "1", "rho": rho, "n": n, "x": "mwl", "y": "c_wals", "excluded": []}


def families_payload():
    family = {row["iso"]: row["family"] for row in read_rows(DATA / "registry.csv")}
    isos = []
    for line in (DATA / "mbert_languages.txt").read_text(encoding="utf-8").splitlines():
        iso = line.split("#", 1)[0].strip()
        if iso and iso not in isos:
            isos.append(iso)
    families = {}
    for iso in isos:
        if family.get(iso):
            families.setdefault(family[iso], []).append(iso)
    return {
        "schema_version": "1",
        "family_count": len(families),
        "families": {fam: sorted(members) for fam, members in sorted(families.items())},
        "unlabeled": sorted(iso for iso in isos if iso in family and not family[iso]),
        "unknown": sorted(iso for iso in isos if iso not in family),
    }


def read_matrix(path):
    """A 0/1 feature table's features, iso codes and rows of ints."""
    rows = read_rows(path)
    features = [f for f in rows[0] if f != "iso"]
    return features, [row["iso"] for row in rows], [[int(row[f]) for f in features] for row in rows]


def write(name, payload):
    out = FIX / "golden" / name
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden report written to {out}")


def main():
    scales = read_scales(FIX / "registry.csv")
    ds = mwls("corpus_ds", scales)
    ref = mwls("corpus_ref", scales)
    morph = morph_payload(list(ds.values()), list(ref.values()), list(ref), BIN_WIDTH, TARGET, SEED)
    write("score_morph.json", morph)
    write("cwals.json", cwals_payload())
    write("correlate.json", correlate_payload())
    write("families.json", families_payload())
    features, _, rows_d = read_matrix(FIX / "syn_dataset.csv")
    _, isos_r, rows_r = read_matrix(FIX / "syn_reference.csv")
    write("score_syn.json", syn_payload(features, rows_d, rows_r, isos_r, 103))
    write("score_syn_206.json", syn_payload(features, rows_d, rows_r, isos_r, 206))


if __name__ == "__main__":
    main()
