"""File loading: language registry, feature matrices, corpora.

All readers take explicit paths and return validated domain objects.
Text is decoded strictly (invalid UTF-8 is an error, never replaced) and
returned as decoded; ``textstats.tokenize`` is the one place that
NFC-normalizes it. Every CSV table, the morphology spec file included,
is read by ``_read_table``, which holds the header, row and error
rules; each loader adds only its header rule and its parse of one row.
A feature matrix row parses each of its distinct cells once, and
``load_feature_matrix`` is the one place that checks a matrix's cells,
so ``FeatureMatrix`` itself checks nothing. The iso list reader follows
the table rules for its encoding (strict UTF-8, optional BOM). Bundled
default data files ship under ``divscore/data``.
"""
from __future__ import annotations

import csv
import math
from collections import namedtuple
from pathlib import Path

from .model import (
    ISO_CODE_RE,
    FeatureMatrix,
    LanguageRecord,
    LanguageSet,
    _require,
)

REGISTRY_COLUMNS = ["iso", "name", "family", "endangerment", "script_scale"]


class CorpusSource(namedtuple("CorpusSource", "iso path text")):
    """One language's raw text and where it came from."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CorpusSource:
        self = super().__new__(cls, *args, **kwargs)
        _require(
            bool(ISO_CODE_RE.match(self.iso)),
            f"iso must be exactly three ASCII lowercase letters, got {self.iso!r}",
        )
        return self


def bundled_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    return Path(__file__).parent / "data" / name


def _read_table(path, what: str, expect: str, header_ok, parse_row) -> tuple[list[str], list]:
    """Read a CSV table: the one place every table rule lives.

    The file is decoded strictly as UTF-8; a leading BOM is dropped. All
    cells are stripped. The header must name every column, name none
    twice and pass ``header_ok``, which returns False (the error then
    says the header must be ``expect``) or raises its own error. Blank
    rows are skipped; every other row has one cell per header name and
    becomes ``parse_row(header, cells)``. The first column keys the rows:
    no key appears twice, and a column named ``iso`` holds iso codes.
    A row error reads ``<what> <path> row <n>: <reason>``.

    Returns the header and the parsed rows in file order.
    """
    path = Path(path)
    parsed = []
    first_row: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if not any(header):
                raise ValueError(f"{what} {path} has no header row")
            if "" in header:
                raise ValueError(
                    f"{what} {path} header has an empty column name at column "
                    f"{header.index('') + 1}"
                )
            repeated = sorted({h for h in header if header.count(h) > 1})
            if repeated:
                raise ValueError(f"{what} {path} header repeats column(s): {', '.join(repeated)}")
            if not header_ok(header):
                raise ValueError(f"{what} {path} header must be {expect}, got {','.join(header)}")
            iso_keyed = header[0] == "iso"
            for lineno, row in enumerate(reader, start=2):
                # str.split and str.strip share one whitespace test, so a
                # row that joins to one split piece has no cell to strip
                joined = "".join(row)
                cells = row if joined.split() == [joined] else list(map(str.strip, row))
                if not any(cells):
                    continue
                try:
                    if len(cells) != len(header):
                        raise ValueError(f"expected {len(header)} columns, got {len(cells)}")
                    key = cells[0]
                    if iso_keyed and not ISO_CODE_RE.match(key):
                        raise ValueError(f"malformed iso code {key!r}")
                    if key in first_row:
                        raise ValueError(
                            f"duplicate {header[0]} {key!r}, first at row {first_row[key]}"
                        )
                    first_row[key] = lineno
                    parsed.append(parse_row(header, cells))
                except ValueError as exc:
                    raise ValueError(f"{what} {path} row {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{what} {path} row {reader.line_num}: {exc}") from None
    return header, parsed


def _number(parse, cell: str):
    """``parse(cell)``, or None where the cell does not parse."""
    try:
        return parse(cell)
    except ValueError:
        return None


def load_registry(path) -> LanguageSet:
    """Read a language registry CSV into a LanguageSet.

    The header is a prefix of ``iso,name,family,endangerment,script_scale``
    of at least ``iso,name``. Blank optional fields take the defaults (no
    family, no endangerment status, script_scale 1.0).
    """

    def parse(header, row):
        iso, name, family, endangerment, scale = row + [""] * (len(REGISTRY_COLUMNS) - len(row))
        try:
            script_scale = float(scale) if scale else 1.0
        except ValueError:
            raise ValueError(f"script_scale must be a number, got {scale!r}") from None
        return LanguageRecord(iso, name, family or None, endangerment or None, script_scale)

    _, records = _read_table(
        path,
        "registry",
        f"a prefix of {','.join(REGISTRY_COLUMNS)} with at least iso,name",
        lambda h: len(h) >= 2 and h == REGISTRY_COLUMNS[: len(h)],
        parse,
    )
    return LanguageSet(records)


def load_feature_matrix(
    path,
    drop_incomplete: bool = False,
    specs=None,
) -> tuple[FeatureMatrix, list[str]]:
    """Read a feature table CSV into a FeatureMatrix: the one place that
    checks a matrix's rules.

    Format: first column ``iso``, remaining columns feature identifiers,
    cells integers (as ``int()`` reads them) or the missing marker ``?``.
    Rows containing ``?`` are an error unless ``drop_incomplete`` is set,
    in which case they are dropped and their iso codes returned.

    Without ``specs`` the matrix is binary: every cell is 0 or 1. With
    ``specs`` (the MorphFeatureSpecs of a morphological matrix, such as
    a MorphSpecSet) the columns must cover exactly the spec chapters,
    and every cell must lie inside its feature's declared final range,
    which starts at 0 or above. A cell error names the file, the row, the
    language and the feature of the first bad cell in column order.

    Returns
    -------
    (FeatureMatrix, list of str)
        The matrix over complete rows, and the iso codes of dropped rows
        (empty unless ``drop_incomplete`` removed any).
    """
    path = Path(path)
    by_chapter = {s.chapter: s for s in specs} if specs is not None else None

    def header_ok(header):
        if len(header) < 2 or header[0] != "iso":
            return False
        if by_chapter is not None:
            features = header[1:]
            unknown = [f for f in features if f not in by_chapter]
            if unknown:
                raise ValueError(
                    f"feature matrix {path} has columns not in the feature specs: "
                    f"{', '.join(unknown)}"
                )
            absent = [c for c in by_chapter if c not in features]
            if absent:
                raise ValueError(
                    f"feature matrix {path} is missing spec chapters: {', '.join(sorted(absent))}"
                )
        return True

    def parse(header, row):
        """(iso, int values or None, the features whose cell is '?')."""
        iso, cells = row[0], row[1:]
        distinct = set(cells)
        if "?" in distinct:
            return iso, None, [f for f, cell in zip(header[1:], cells) if cell == "?"]
        try:
            value = dict(zip(distinct, map(int, distinct)))
        except ValueError:
            f, cell = next((f, c) for f, c in zip(header[1:], cells) if _number(int, c) is None)
            raise ValueError(
                f"value for ({iso}, {f}) must be an integer or '?', got {cell!r}"
            ) from None

        def first(bad):
            """(feature, value) of the first cell in column order whose value is bad."""
            return next((f, value[c]) for f, c in zip(header[1:], cells) if bad(value[c]))

        values = tuple(map(value.__getitem__, cells))
        if by_chapter is None:
            if not {0, 1}.issuperset(value.values()):
                f, v = first(lambda v: v not in (0, 1))
                raise ValueError(f"binary feature ({iso}, {f}) must be 0 or 1, got {v}")
        else:
            for f, v in zip(header[1:], values):
                spec = by_chapter[f]
                if not spec.final_min <= v <= spec.final_max:
                    raise ValueError(
                        f"value {v} for ({iso}, {f}) lies outside the final range "
                        f"[{spec.final_min}, {spec.final_max}]"
                    )
        return iso, values, []

    header, parsed = _read_table(
        path,
        "feature matrix",
        "'iso' followed by feature identifiers",
        header_ok,
        parse,
    )
    rows = [(iso, values) for iso, values, _ in parsed if values is not None]
    dropped = [iso for iso, values, _ in parsed if values is None]

    if dropped and not drop_incomplete:
        listing = ", ".join(f"({iso}, {f})" for iso, _, holes in parsed for f in holes)
        raise ValueError(
            f"feature matrix {path} has missing values at {listing}; rerun with "
            f"--drop-incomplete to skip those rows"
        )
    if not rows:
        raise ValueError(f"feature matrix {path} has no complete language rows")

    languages, values = zip(*rows)
    return FeatureMatrix(languages, header[1:], values), dropped


def load_corpus(path, iso: str) -> CorpusSource:
    """Read one language's plain-text corpus.

    Decodes strictly as UTF-8 (invalid bytes raise, nothing is replaced).
    No other processing: the text keeps its normalization form, and
    ``textstats.tokenize`` normalizes it to NFC.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw:
        raise ValueError(f"empty corpus: {path}")
    try:
        text = raw.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise ValueError(f"corpus {path} is not valid UTF-8: {exc}") from None
    return CorpusSource(iso=iso, path=str(path), text=text)


def family_breakdown(languages: LanguageSet) -> tuple[dict[str, list[str]], list[str]]:
    """Family -> sorted member iso codes, plus sorted unlabeled members."""
    families: dict[str, list[str]] = {}
    unlabeled: list[str] = []
    for rec in languages:
        if rec.family:
            families.setdefault(rec.family, []).append(rec.iso)
        else:
            unlabeled.append(rec.iso)
    return (
        {fam: sorted(members) for fam, members in sorted(families.items())},
        sorted(unlabeled),
    )


def load_numeric_table(path, columns) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Read the per-language number columns ``columns`` of a CSV table.

    The header starts with ``iso`` and names every requested column;
    other columns, such as a name column, are not read. Every requested
    cell is a finite number. Returns the requested column names and a
    mapping iso -> {column: value}.
    """
    columns = list(columns)

    def parse(header, row):
        values = {}
        for name in columns:
            cell = row[header.index(name)]
            value = _number(float, cell)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {cell!r}")
            values[name] = value
        return row[0], values

    _, rows = _read_table(
        path,
        "table",
        f"'iso' first, with the column(s) {', '.join(columns)}",
        lambda h: h[0] == "iso" and all(name in h for name in columns),
        parse,
    )
    return columns, dict(rows)


def load_iso_list(path) -> list[str]:
    """Read a plain list of iso codes, one per line; '#' starts a comment.

    Decoded as the tables are: strict UTF-8, a leading BOM dropped.
    """
    path = Path(path)
    codes = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                token = line.split("#", 1)[0].strip()
                if not token:
                    continue
                if not ISO_CODE_RE.match(token):
                    raise ValueError(f"{path} line {lineno}: malformed iso code {token!r}")
                codes.append(token)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not valid UTF-8: {exc}") from None
    return codes
