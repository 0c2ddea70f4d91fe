"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions using only
the standard library: Counter histograms, exact decimal floor binning,
exact sums of Fractions rounded once, textbook entropy formulas, and a
hand-written CSV parser. The tokenizer oracle also uses `regex`, for
grapheme clusters and Unicode properties. Nothing imports divscore.
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


def brute_jmm(dataset, reference, width):
    """Minmax Jaccard of two measurement lists, from first principles.

    Bin each side with exact_bin(v, width), multiply every count of the
    smaller side by the exact fraction max(n, m) / min(n, m), then sum
    min and max over the union of occupied bins and round their exact
    ratio to a float once. Bins where one side is absent contribute 0 to
    the min sum and the other side's weight to the max sum, so the union
    (not a contiguous range) is enough here.
    """
    bins_d = Counter(exact_bin(v, width) for v in dataset)
    bins_r = Counter(exact_bin(v, width) for v in reference)
    n, m = len(dataset), len(reference)
    c = Fraction(max(n, m), min(n, m))
    wd = {k: v * (c if n < m else 1) for k, v in bins_d.items()}
    wr = {k: v * (c if m < n else 1) for k, v in bins_r.items()}
    pairs = [(wd.get(k, 0), wr.get(k, 0)) for k in set(wd) | set(wr)]
    return float(sum(min(p) for p in pairs) / sum(max(p) for p in pairs))


def brute_jmm_syn(features, rows_d, rows_r, count_zeros):
    """Minmax Jaccard of two 0/1 matrices given as rows, with its table.

    One row per feature, labelled with the feature and counting the
    languages with value 1; with count_zeros two rows per feature,
    "<feature>=1" and "<feature>=0", counting each value. Every count of
    the smaller side is multiplied by max(n, m) / min(n, m): as a float
    in the table, as an exact fraction in the score, whose exact ratio is
    rounded once. Returns (value, [(label, dataset, reference, min,
    max), ...]), or None when a side has no positive weight to compare.
    """

    def counts(rows):
        table = []
        for j, f in enumerate(features):
            ones = sum(row[j] for row in rows)
            if count_zeros:
                table += [(f + "=1", ones), (f + "=0", len(rows) - ones)]
            else:
                table.append((f, ones))
        return table

    counts_d, counts_r = counts(rows_d), counts(rows_r)
    if sum(n for _, n in counts_d) == 0 or sum(n for _, n in counts_r) == 0:
        return None
    n, m = len(rows_d), len(rows_r)
    c = max(n, m) / min(n, m)
    exact_c = Fraction(max(n, m), min(n, m))
    table, lo, hi = [], 0, 0
    for (label, a), (_, b) in zip(counts_d, counts_r):
        ea, eb = a * (exact_c if n < m else 1), b * (exact_c if m < n else 1)
        lo, hi = lo + min(ea, eb), hi + max(ea, eb)
        a, b = float(a) * (c if n < m else 1.0), float(b) * (c if m < n else 1.0)
        table.append((label, a, b, min(a, b), max(a, b)))
    return float(lo / hi), table


def bent(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def brute_ti_morph(values, width):
    """Mean binary entropy of bin occupancy over occupied bins."""
    bins = Counter(exact_bin(v, width) for v in values)
    ents = [bent(n / len(values)) for n in bins.values()]
    return exact_sum(ents) / len(ents)


def brute_ti_syn(rows):
    """Mean binary entropy over columns of a 0/1 matrix given as rows."""
    n = len(rows)
    width = len(rows[0])
    ents = []
    for j in range(width):
        ones = sum(row[j] for row in rows)
        ents.append(bent(ones / n))
    return exact_sum(ents) / len(ents)


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
