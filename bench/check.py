"""Output checks for every benchmark command.

Each check takes the command's stdout and returns a list of problems;
an empty list means the output is correct. The recomputations use the
standard library only and the generator's ground truth, never the
package under test.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter

from gen import CorpusTruth, MatrixTruth

REL_TOL = 1e-12


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _json(out: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(out), []
    except (UnicodeDecodeError, ValueError) as exc:
        return None, [f"stdout is not JSON: {exc}"]


def minmax(a: list[float], b: list[float]) -> float:
    """sum(min)/sum(max) of two aligned weight lists."""
    return sum(map(min, a, b)) / sum(map(max, a, b))


def scaled_pair(a: list[float], b: list[float], n_a: int, n_b: int) -> tuple[list[float], list[float]]:
    """Scale the smaller side's weights by max/min of the set sizes."""
    c = max(n_a, n_b) / min(n_a, n_b)
    if n_a < n_b:
        a = [w * c for w in a]
    elif n_b < n_a:
        b = [w * c for w in b]
    return a, b


def jmm_problems(jmm: dict, expected: float | None = None) -> list[str]:
    """The score must equal sum(min)/sum(max) of the per-bin table the
    command emitted, and each row's min/max must match its two columns."""
    rows = jmm.get("per_bin") or []
    if not rows:
        return ["jmm has no per_bin table"]
    problems = []
    for r in rows:
        if r["min"] != min(r["dataset"], r["reference"]) or r["max"] != max(r["dataset"], r["reference"]):
            problems.append(f"per_bin row {r['bin']} min/max disagree with its columns")
            break
    table = sum(r["min"] for r in rows) / sum(r["max"] for r in rows)
    if not _close(jmm["value"], table):
        problems.append(f"jmm.value {jmm['value']!r} != sum(min)/sum(max) {table!r}")
    if expected is not None and not _close(jmm["value"], expected):
        problems.append(f"jmm.value {jmm['value']!r} != recomputed {expected!r}")
    return problems


def _morph_bins(values: list[float], width: float) -> Counter:
    return Counter(math.floor(v / width) for v in values)


def morph_expected(mwl_d: list[float], mwl_r: list[float], width: float) -> float:
    """jmm_morph from ground-truth measurements, over occupied bins only
    (empty bins add 0 to both sums)."""
    bd, br = _morph_bins(mwl_d, width), _morph_bins(mwl_r, width)
    keys = sorted(set(bd) | set(br))
    a, b = scaled_pair([bd[k] for k in keys], [br[k] for k in keys], len(mwl_d), len(mwl_r))
    return minmax(a, b)


def check_profile(out: bytes, truths: dict[str, CorpusTruth], target: int, seed: int) -> list[str]:
    payload, problems = _json(out)
    if payload is None:
        return problems
    got = {p["iso"]: p for p in payload.get("profiles", [])}
    if sorted(got) != sorted(truths):
        return [f"profiled languages {sorted(got)} != generated {sorted(truths)}"]
    for iso, truth in truths.items():
        want = truth.expected_profile(target, seed)
        for key in ("offset", "token_count", "mwl"):
            if got[iso][key] != want[key]:
                problems.append(f"{iso}: {key} {got[iso][key]!r} != ground truth {want[key]!r}")
    return problems


def check_score_morph(
    out: bytes,
    n_d: int,
    n_r: int,
    width: float,
    truth_d: list[float] | None = None,
    truth_r: list[float] | None = None,
) -> list[str]:
    """``truth_d``/``truth_r`` are ground-truth mean word lengths, when the
    generator knows them (corpus inputs)."""
    payload, problems = _json(out)
    if payload is None:
        return problems
    if (payload.get("dataset_n"), payload.get("reference_n")) != (n_d, n_r):
        problems.append(f"dataset_n/reference_n {payload.get('dataset_n')}/{payload.get('reference_n')} != {n_d}/{n_r}")
    # every language adds weight 1 to its side, and scaling brings the
    # smaller side up to the larger side's size
    for side in ("dataset", "reference"):
        total = sum(r[side] for r in payload["jmm"].get("per_bin") or [])
        if not _close(total, max(n_d, n_r), 1e-9):
            problems.append(f"{side} column totals {total!r}, expected {max(n_d, n_r)}")
    expected = morph_expected(truth_d, truth_r, width) if truth_d is not None else None
    return problems + jmm_problems(payload["jmm"], expected)


_TITLE = re.compile(r"<title>(\w+) = ([^<]+)</title>")


def check_score_svg(out: bytes, json_out: bytes) -> list[str]:
    """The SVG title must carry the exact score of the JSON report made
    from the same inputs."""
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [f"svg is not UTF-8: {exc}"]
    m = _TITLE.search(text)
    if not text.startswith("<?xml") or not text.rstrip().endswith("</svg>") or m is None:
        return ["stdout is not a complete SVG with a score title"]
    payload, problems = _json(json_out)
    if payload is None:
        return ["no JSON report to compare the SVG with"]
    if float(m.group(2)) != payload["jmm"]["value"]:
        problems.append(f"svg score {m.group(2)} != json score {payload['jmm']['value']!r}")
    return problems


def syn_expected(d: MatrixTruth, r: MatrixTruth, count_zeros: bool) -> float:
    wd, wr = list(map(float, d.ones)), list(map(float, r.ones))
    if count_zeros:
        wd += [d.n - x for x in d.ones]
        wr += [r.n - x for x in r.ones]
    wd, wr = scaled_pair(wd, wr, d.n, r.n)
    return minmax(wd, wr)


def check_score_syn(out: bytes, d: MatrixTruth, r: MatrixTruth, count_zeros: bool) -> list[str]:
    payload, problems = _json(out)
    if payload is None:
        return problems
    dims = len(d.features) * (2 if count_zeros else 1)
    if len(payload["jmm"].get("per_bin") or []) != dims:
        problems.append(f"per_bin has {len(payload['jmm'].get('per_bin') or [])} rows, expected {dims}")
    return problems + jmm_problems(payload["jmm"], syn_expected(d, r, count_zeros))


def check_cwals(out: bytes, rows: dict[str, list[int]], ranges: list[tuple[str, int, int]]) -> list[str]:
    payload, problems = _json(out)
    if payload is None:
        return problems
    got = {x["iso"]: x["c_wals"] for x in payload.get("c_wals", [])}
    if sorted(got) != sorted(rows):
        return [f"c_wals languages {sorted(got)} != generated {sorted(rows)}"]
    for iso, values in rows.items():
        norm = [0.0 if hi == lo else (v - lo) / (hi - lo) for v, (_, lo, hi) in zip(values, ranges)]
        want = sum(norm) / len(norm)
        if not _close(got[iso], want):
            problems.append(f"{iso}: c_wals {got[iso]!r} != recomputed {want!r}")
    return problems


def _avg_ranks(xs: list[float]) -> list[float]:
    order = sorted(range(len(xs)), key=xs.__getitem__)
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    rx, ry = _avg_ranks(xs), _avg_ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))


def check_correlate(out: bytes, table: dict[str, tuple[float, float]]) -> list[str]:
    payload, problems = _json(out)
    if payload is None:
        return problems
    isos = sorted(table)
    want = spearman([table[i][0] for i in isos], [table[i][1] for i in isos])
    if payload.get("n") != len(isos):
        problems.append(f"n {payload.get('n')} != {len(isos)}")
    if not _close(payload.get("rho", math.nan), want, 1e-9):
        problems.append(f"rho {payload.get('rho')!r} != recomputed {want!r}")
    return problems


def check_families(out: bytes, iso_list: list[str], families: dict[str, str | None]) -> list[str]:
    payload, problems = _json(out)
    if payload is None:
        return problems
    known = [i for i in dict.fromkeys(iso_list) if i in families]
    want_count = len({families[i] for i in known if families[i]})
    want_unknown = sorted(i for i in set(iso_list) if i not in families)
    if payload.get("family_count") != want_count:
        problems.append(f"family_count {payload.get('family_count')} != {want_count}")
    if payload.get("unknown") != want_unknown:
        problems.append(f"unknown {payload.get('unknown')} != {want_unknown}")
    return problems
