#!/usr/bin/env python3
"""Recompute the morph-level score over the bundled mini-fixture and
the complexity scores of the bundled morphology matrix, and write them
as the golden files the tests compare against.

Deliberately independent of the package: tokenization is str.split(),
word length is len(), and the binning, size scaling, min/max sums, gap
table, and entropy index are spelled out inline. That is only valid on
the fixture corpora, whose restricted alphabet (single-code-point
letters, single spaces) makes the simple operations agree with full
Unicode segmentation. Bins follow the package's documented rule, an
exact decimal floor, computed here with fractions.Fraction. The
complexity score is the in-order mean of each chapter's value min-max
normalized over its final range, read with csv.DictReader from the
bundled spec and value files. Regenerate after any change to the
fixtures, to the bundled data or to a command's JSON envelope:

    python3 tools/make_golden_report.py
"""
import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
    return {
        f.stem: mwl_of(f, scales[f.stem]) for f in sorted((FIX / dirname).glob("*.txt"))
    }


def exact_bin(v):
    """Bin k with k*BIN_WIDTH <= v < (k+1)*BIN_WIDTH, reading both as the
    decimals they print as."""
    return math.floor(Fraction(repr(v)) / Fraction(repr(BIN_WIDTH)))


def bent(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def ti(values):
    bins = {}
    for v in values:
        k = exact_bin(v)
        bins[k] = bins.get(k, 0) + 1
    ents = [bent(count / len(values)) for _, count in sorted(bins.items())]
    return sum(ents) / len(ents)


def cwals_payload():
    with open(DATA / "morph_feature_specs.csv", newline="", encoding="utf-8") as fh:
        specs = [(r["chapter"], int(r["final_min"]), int(r["final_max"])) for r in csv.DictReader(fh)]
    rows = []
    with open(DATA / "morph_values.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            total = 0.0
            for chapter, lo, hi in specs:
                total += 0.0 if lo == hi else (int(row[chapter]) - lo) / (hi - lo)
            rows.append({"iso": row["iso"], "c_wals": total / len(specs)})
    return {"schema_version": "1", "c_wals": sorted(rows, key=lambda r: r["iso"])}


def write(name, payload):
    out = FIX / "golden" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden report written to {out}")


def main():
    scales = read_scales(FIX / "registry.csv")
    ds = mwls("corpus_ds", scales)
    ref = mwls("corpus_ref", scales)

    bins_d, bins_r, members = {}, {}, {}
    for iso, m in ds.items():
        k = exact_bin(m)
        bins_d[k] = bins_d.get(k, 0) + 1
    for iso, m in ref.items():
        k = exact_bin(m)
        bins_r[k] = bins_r.get(k, 0) + 1
        members.setdefault(f"bin{k}", []).append(iso)

    c = max(len(ds), len(ref)) / min(len(ds), len(ref))
    if len(ds) < len(ref):
        bins_d = {k: v * c for k, v in bins_d.items()}
    elif len(ref) < len(ds):
        bins_r = {k: v * c for k, v in bins_r.items()}

    per_bin, surplus, deficit = [], [], []
    num = den = 0.0
    for k in sorted(set(bins_d) | set(bins_r)):
        wd = float(bins_d.get(k, 0.0))
        wr = float(bins_r.get(k, 0.0))
        num += min(wd, wr)
        den += max(wd, wr)
        label = f"bin{k}"
        per_bin.append(
            {"bin": label, "dataset": wd, "reference": wr, "min": min(wd, wr), "max": max(wd, wr)}
        )
        if wd > wr:
            surplus.append({"bin": label, "excess": wd - wr})
        elif wd < wr:
            deficit.append(
                {"bin": label, "shortfall": wr - wd, "examples": sorted(members.get(label, []))[:5]}
            )

    payload = {
        "schema_version": "1",
        "level": "morph",
        "bin_width": BIN_WIDTH,
        "sample_target": TARGET,
        "seed": SEED,
        "dataset_n": len(ds),
        "reference_n": len(ref),
        "normalization_c": c,
        "jmm": {
            "score_name": "jmm_morph",
            "value": num / den,
            "normalization_c": c,
            "per_bin": per_bin,
            "gap": {"surplus": surplus, "deficit": deficit},
        },
        "ti": {
            "score_name": "ti_morph",
            "dataset": ti(list(ds.values())),
            "reference": ti(list(ref.values())),
            "bin_universe": "occupied",
        },
    }
    write("score_morph.json", payload)
    write("cwals.json", cwals_payload())


if __name__ == "__main__":
    main()
