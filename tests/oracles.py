"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions using only
the standard library: Counter histograms, exact decimal floor binning,
exact sums of Fractions rounded once, textbook entropy formulas, and a
hand-written CSV parser. The tokenizer oracle also uses `regex`, for
grapheme clusters and Unicode properties. Nothing imports divscore.

This is the one reference for what ``score`` prints: ``jmm_block``
builds the J_mm block, its per-bin rows and its gap rows from two sides'
int counts, ``ti`` a side's entropy index, and ``morph_payload`` and
``syn_payload`` the whole JSON object of each level. The tests compare
the package with them, and ``tools/make_golden_report.py`` writes the
score goldens from them.
"""
import math
from collections import Counter
from fractions import Fraction

import regex


def exact_sum(xs):
    """The float nearest the exact sum of the floats xs: no summation
    order enters."""
    return float(sum(map(Fraction, xs)))


def exact_bin(v, width):
    """Bin k with k*width <= v < (k+1)*width, reading v and width as the
    decimals they print as."""
    return math.floor(Fraction(repr(v)) / Fraction(repr(width)))


def bent(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def ti(counts, n):
    """Mean binary entropy of the shares t / n, one per row count t of a
    side of n languages: the exact_sum of bent, divided by the row count.
    None below two languages, where a score prints null."""
    if n < 2:
        return None
    ents = [bent(t / n) for t in counts]
    return exact_sum(ents) / len(ents)


def gap_examples(isos):
    """The languages a deficit row names: the first five in iso order."""
    return sorted(isos)[:5]


def jmm_block(score_name, labels, counts_d, counts_r, n_d, n_r, members):
    """The ``jmm`` block a score prints, from the int counts of two sides
    of n_d and n_r languages over the same rows, labelled ``labels``.

    The smaller side's counts are multiplied by c = max(n) / min(n): by
    the exact fraction for the value, whose exact ratio sum(min) /
    sum(max) is rounded to a float once, and by the float c for the
    per-bin rows. A row where the dataset weighs more is a surplus row,
    one where it weighs less a deficit row, whose examples are the
    gap_examples of the row's reference isos, ``members``.
    """
    c = Fraction(max(n_d, n_r), min(n_d, n_r))
    scale_d, scale_r = (c, 1) if n_d < n_r else (1, c)
    pairs = [(a * scale_d, b * scale_r) for a, b in zip(counts_d, counts_r)]
    per_bin, surplus, deficit = [], [], []
    for label, a, b, isos in zip(labels, counts_d, counts_r, members):
        wd, wr = a * float(scale_d), b * float(scale_r)
        per_bin.append(
            {"bin": label, "dataset": wd, "reference": wr, "min": min(wd, wr), "max": max(wd, wr)}
        )
        if wd > wr:
            surplus.append({"bin": label, "excess": wd - wr})
        elif wd < wr:
            deficit.append({"bin": label, "shortfall": wr - wd, "examples": gap_examples(isos)})
    return {
        "score_name": score_name,
        "value": float(sum(map(min, pairs)) / sum(map(max, pairs))),
        "normalization_c": float(c),
        "per_bin": per_bin,
        "gap": {"surplus": surplus, "deficit": deficit},
    }


def bin_members(isos, values, width):
    """Each exact_bin the values occupy, with the languages ``isos`` whose
    value falls in it."""
    members = {}
    for iso, v in zip(isos, values):
        members.setdefault(exact_bin(v, width), []).append(iso)
    return members


def morph_payload(values_d, values_r, isos_r, width, sample_target=10000, seed=0):
    """What ``score --level morph`` prints for two sides' mean word
    lengths, the reference's of the languages ``isos_r``, at bin width
    ``width``. The rows are the bins either side occupies (bin_members),
    in order, and each side's TI runs over the bins it occupies itself."""
    members_d = bin_members(range(len(values_d)), values_d, width)
    members_r = bin_members(isos_r, values_r, width)
    keys = sorted(members_d.keys() | members_r.keys())
    counts_d, counts_r = [[len(m.get(k, ())) for k in keys] for m in (members_d, members_r)]
    n_d, n_r = len(values_d), len(values_r)
    labels, members = [f"bin{k}" for k in keys], [members_r.get(k, []) for k in keys]
    jmm = jmm_block("jmm_morph", labels, counts_d, counts_r, n_d, n_r, members)
    return {
        "schema_version": "1",
        "level": "morph",
        "bin_width": width,
        "sample_target": sample_target,
        "seed": seed,
        "dataset_n": n_d,
        "reference_n": n_r,
        "normalization_c": jmm["normalization_c"],
        "jmm": jmm,
        "ti": {
            "score_name": "ti_morph",
            "dataset": ti(map(len, members_d.values()), n_d),
            "reference": ti(map(len, members_r.values()), n_r),
            "bin_universe": "occupied",
        },
    }


def syn_members(features, isos, rows, syn_dims):
    """The rows of a syn score over a 0/1 matrix, given as rows of the
    languages ``isos``: each row's label, in order, with the languages it
    counts. At 103 dimensions there is one row per feature, labelled with
    it and counting the languages with value 1; at 206 two,
    "<feature>=1" and "<feature>=0", counting each value."""
    values = (1, 0) if syn_dims == 206 else (1,)
    return {
        (f"{f}={v}" if syn_dims == 206 else f): [i for i, row in zip(isos, rows) if row[j] == v]
        for j, f in enumerate(features)
        for v in values
    }


def syn_payload(features, rows_d, rows_r, isos_r, syn_dims):
    """What ``score --level syn --syn-dims <syn_dims>`` prints for two 0/1
    matrices over ``features``, given as rows, the reference's those of
    the languages ``isos_r``; None where the command fails because a side
    has no 1 to count. The rows are syn_members'; each side's TI runs
    over the features, from the count of 1s in each.
    """
    members_d = syn_members(features, range(len(rows_d)), rows_d, syn_dims)
    members_r = syn_members(features, isos_r, rows_r, syn_dims)
    counts_d, counts_r = [list(map(len, m.values())) for m in (members_d, members_r)]
    if not any(counts_d) or not any(counts_r):
        return None
    n_d, n_r = len(rows_d), len(rows_r)
    jmm = jmm_block("jmm_syn", list(members_r), counts_d, counts_r, n_d, n_r, members_r.values())
    ones_d, ones_r = [[sum(col) for col in zip(*side)] for side in (rows_d, rows_r)]
    return {
        "schema_version": "1",
        "level": "syn",
        "syn_dims": syn_dims,
        "dataset_n": n_d,
        "reference_n": n_r,
        "normalization_c": jmm["normalization_c"],
        "jmm": jmm,
        "ti": {"score_name": "ti_syn", "dataset": ti(ones_d, n_d), "reference": ti(ones_r, n_r)},
    }


def brute_jmm(dataset, reference, width):
    """J_mm of two measurement lists: morph_payload's value. This and the
    three reads below number a side's languages, since only the gap
    examples, which none of them returns, read iso codes."""
    return morph_payload(dataset, reference, range(len(reference)), width)["jmm"]["value"]


def brute_jmm_syn(features, rows_d, rows_r, count_zeros):
    """syn_payload's jmm block at 206 dimensions with count_zeros, else
    at 103, or None where a side has no positive weight to compare."""
    payload = syn_payload(features, rows_d, rows_r, range(len(rows_r)), 206 if count_zeros else 103)
    return payload and payload["jmm"]


def brute_ti_morph(values, width):
    """Mean binary entropy of bin occupancy over occupied bins."""
    return morph_payload(values, values, range(len(values)), width)["ti"]["dataset"]


def brute_ti_syn(rows):
    """Mean binary entropy over columns of a 0/1 matrix given as rows."""
    features = [f"s{j}" for j in range(len(rows[0]))]
    return syn_payload(features, rows, rows, range(len(rows)), 206)["ti"]["dataset"]


def brute_entropy(tokens):
    """Shannon entropy in bits of a token list's empirical distribution."""
    counts = Counter(tokens)
    n = len(tokens)
    return -exact_sum((c / n) * math.log2(c / n) for c in counts.values())


def neumaier_sum(iterable, start=0):
    """Built-in sum as CPython computes it from 3.12 on: integers add
    exactly; from the first float on, the running total is a float with
    Neumaier's compensation term, added back at the end."""
    total, comp, floating = start, 0.0, isinstance(start, float)
    for x in iterable:
        if not floating and isinstance(x, int):
            total += x
            continue
        if not floating:
            total, floating = float(total), True
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if floating and comp and math.isfinite(comp) else total


GRAPHEME = regex.compile(r"\X")
ALNUM = regex.compile(r"[\p{L}\p{M}\p{Nd}]")
DIGIT = regex.compile(r"\p{Nd}")
MID_LETTER = frozenset(":··՟״‧︓﹕：")
MID_NUMERIC = frozenset(",;;٫٬﹐﹔，；")
MID_BOTH = frozenset("'.’․﹒＇．")


def brute_tokenize(text):
    """Tokens of text, one grapheme cluster at a time.

    A cluster is word material if it holds a letter, mark or decimal
    digit, and numeric if its first code point is a decimal digit. A
    token is a run of word clusters, extended across one single-code-point
    punctuation cluster when the word clusters on both sides are of the
    kind it joins: letter connectors join two non-numeric clusters,
    numeric connectors two numeric ones, and the "both" set two of equal
    kind.

    The scan is an explicit loop on purpose: the package writes the same
    rule as one pattern over per-cluster class letters
    (`textstats._tokenize_clusters`), so this is a second formulation
    of it, not a copy.
    """
    clusters = GRAPHEME.findall(text)
    memo = {}
    for c in clusters:
        if c in memo:
            continue
        if c.isspace():
            memo[c] = ("ws", False)
        elif ALNUM.search(c):
            memo[c] = ("word", DIGIT.match(c) is not None)
        else:
            memo[c] = ("punct", False)
    classes = [memo[c] for c in clusters]
    tokens = []
    n = len(clusters)
    i = 0
    while i < n:
        if classes[i][0] != "word":
            i += 1
            continue
        parts = [clusters[i]]
        j = i
        while True:
            nxt = j + 1
            if nxt < n and classes[nxt][0] == "word":
                parts.append(clusters[nxt])
                j = nxt
                continue
            if nxt + 1 < n and classes[nxt][0] == "punct" and classes[nxt + 1][0] == "word":
                conn = clusters[nxt]
                prev_num = classes[j][1]
                next_num = classes[nxt + 1][1]
                joins = len(conn) == 1 and (
                    (conn in MID_LETTER and not prev_num and not next_num)
                    or (conn in MID_NUMERIC and prev_num and next_num)
                    or (conn in MID_BOTH and prev_num == next_num)
                )
                if joins:
                    parts.append(conn)
                    parts.append(clusters[nxt + 1])
                    j = nxt + 1
                    continue
            break
        tokens.append("".join(parts))
        i = j + 1
    return tokens


def read_csv_table(raw):
    """Header and rows of a CSV file's bytes, parsed by hand.

    UTF-8, with an optional leading BOM. Commas separate cells. A cell
    that opens with a double quote runs to the next lone double quote,
    and "" inside it stands for one quote. A record ends at CR LF, LF or
    CR outside quotes. Cells are stripped of surrounding whitespace, and
    records whose cells are all blank are dropped.
    """
    text = raw.decode("utf-8")
    if text.startswith("\ufeff"):
        text = text[1:]
    records, cells, cell = [], [], ""
    in_quotes, i = False, 0
    while i < len(text):
        ch = text[i]
        if in_quotes and ch == '"' and text[i + 1 : i + 2] == '"':
            cell += '"'
            i += 1
        elif ch == '"' and (in_quotes or cell == ""):
            in_quotes = not in_quotes
        elif in_quotes or ch not in ",\r\n":
            cell += ch
        elif ch == ",":
            cells.append(cell)
            cell = ""
        else:
            records.append(cells + [cell])
            cells, cell = [], ""
            if text[i : i + 2] == "\r\n":
                i += 1
        i += 1
    if cells or cell:
        records.append(cells + [cell])
    stripped = [[c.strip() for c in r] for r in records]
    kept = [r for r in stripped if any(r)]
    return kept[0], kept[1:]
