#!/usr/bin/env python3
"""Recompute what six commands print and write it as the golden files
the tests compare against: the morph-level score over the bundled
mini-fixture, the syn-level score over the syntactic fixture matrices
with 103 and with 206 dimensions, the complexity scores of the bundled morphology matrix, the correlation
of the bundled table's `mwl` and `c_wals` columns, and the family count
of the bundled language list.

Deliberately independent of the package: tokenization is str.split(),
word length is len(), and the binning, size scaling, min/max sums, gap
table, and entropy index are spelled out inline. That is only valid on
the fixture corpora, whose restricted alphabet (single-code-point
letters, single spaces) makes the simple operations agree with full
Unicode segmentation. Bins follow the package's documented rule, an
exact decimal floor, computed here with fractions.Fraction. A minmax
score is the exact ratio of the counts, the smaller side's scaled by
the exact fraction c, rounded to a float once. Every float sum is
exact_sum: the exact sum of the terms as Fractions, rounded to a float
once, so no summation order enters. The complexity score is the
mean of each chapter's value min-max normalized over its final range,
read with csv.DictReader from the bundled spec and value files. The
correlation is Pearson's r of average ranks, computed in
numpy.corrcoef's steps over exact Fractions.
Regenerate after any change to the fixtures, to the bundled data or to
a command's JSON envelope:

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


def exact_sum(xs):
    """The float nearest the exact sum of the floats xs."""
    return float(sum(map(Fraction, xs)))


def minmax_value(counts_d, counts_r, n_d, n_r):
    """sum(min) / sum(max) over aligned int counts of n_d and n_r
    languages, the smaller side's times the exact max(n) / min(n), as the
    float nearest the exact ratio."""
    c = Fraction(max(n_d, n_r), min(n_d, n_r))
    scale_d, scale_r = (c, 1) if n_d < n_r else (1, c)
    pairs = [(a * scale_d, b * scale_r) for a, b in zip(counts_d, counts_r)]
    return float(sum(min(p) for p in pairs) / sum(max(p) for p in pairs))


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
    ents = [bent(count / len(values)) for count in bins.values()]
    return exact_sum(ents) / len(ents)


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


def score_syn_payload(syn_dims):
    """103 dimensions: one row per feature, counting its 1s. 206: rows
    <feature>=1 and <feature>=0 per feature, counting each value."""
    ds = read_rows(FIX / "syn_dataset.csv")
    ref = read_rows(FIX / "syn_reference.csv")
    features = [f for f in ds[0] if f != "iso"]
    values = (1, 0) if syn_dims == 206 else (1,)
    rows = [(f"{f}={v}" if syn_dims == 206 else f, f, v) for f in features for v in values]

    def counts(side):
        return [sum(1 for row in side if int(row[f]) == v) for _, f, v in rows]

    counts_d, counts_r = counts(ds), counts(ref)
    value = minmax_value(counts_d, counts_r, len(ds), len(ref))
    counts_d, counts_r = [float(w) for w in counts_d], [float(w) for w in counts_r]
    c = max(len(ds), len(ref)) / min(len(ds), len(ref))
    if len(ds) < len(ref):
        counts_d = [w * c for w in counts_d]
    elif len(ref) < len(ds):
        counts_r = [w * c for w in counts_r]

    per_bin, surplus, deficit = [], [], []
    for (label, f, v), wd, wr in zip(rows, counts_d, counts_r):
        per_bin.append({"bin": label, "dataset": wd, "reference": wr, "min": min(wd, wr), "max": max(wd, wr)})
        if wd > wr:
            surplus.append({"bin": label, "excess": wd - wr})
        elif wd < wr:
            examples = sorted(row["iso"] for row in ref if int(row[f]) == v)[:5]
            deficit.append({"bin": label, "shortfall": wr - wd, "examples": examples})

    def ti_syn(rows):
        ents = [bent(sum(int(row[f]) for row in rows) / len(rows)) for f in features]
        return exact_sum(ents) / len(ents)

    return {
        "schema_version": "1",
        "level": "syn",
        "syn_dims": syn_dims,
        "dataset_n": len(ds),
        "reference_n": len(ref),
        "normalization_c": c,
        "jmm": {
            "score_name": "jmm_syn",
            "value": value,
            "normalization_c": c,
            "per_bin": per_bin,
            "gap": {"surplus": surplus, "deficit": deficit},
        },
        "ti": {"score_name": "ti_syn", "dataset": ti_syn(ds), "reference": ti_syn(ref)},
    }


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

    axis = sorted(set(bins_d) | set(bins_r))
    value = minmax_value(
        [bins_d.get(k, 0) for k in axis], [bins_r.get(k, 0) for k in axis], len(ds), len(ref)
    )
    c = max(len(ds), len(ref)) / min(len(ds), len(ref))
    if len(ds) < len(ref):
        bins_d = {k: v * c for k, v in bins_d.items()}
    elif len(ref) < len(ds):
        bins_r = {k: v * c for k, v in bins_r.items()}

    per_bin, surplus, deficit = [], [], []
    for k in axis:
        wd = float(bins_d.get(k, 0.0))
        wr = float(bins_r.get(k, 0.0))
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
            "value": value,
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
    write("correlate.json", correlate_payload())
    write("families.json", families_payload())
    write("score_syn.json", score_syn_payload(103))
    write("score_syn_206.json", score_syn_payload(206))


if __name__ == "__main__":
    main()
