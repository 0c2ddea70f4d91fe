"""File loading: language registry, feature matrices, corpora.

All readers take explicit paths and return validated domain objects.
A corpus is returned as the file's bytes, undecoded:
``textstats.tokenize`` is the one place that decodes it (strictly, so
invalid UTF-8 is an error, never replaced) and NFC-normalizes it. Every
CSV table, the morphology spec file included, is read by
``_read_table``, which holds the header, row and error rules; each
loader adds only its header rule and its parse of one row, which reads
only the cells a command uses: a registry's ``family`` and
``script_scale``, a numeric table's requested columns (one tuple of
values per row, no dict), a spec file's chapter and final range.
A *plain* table (no quote, no whitespace but one line break ending each
line) of a feature matrix or numeric table is read whole, its columns
parsed at once; a plain table that breaks a rule there, every plain
registry and spec file, and every other table go through the row loop,
the one place a row error is phrased. A feature matrix row becomes one
``bytes`` object, in one ``translate`` where its cells are one digit
each. ``load_feature_matrix`` is the one place that checks a matrix's
cells, so ``FeatureMatrix`` itself checks nothing. The iso list reader
follows the table rules for its encoding (strict UTF-8, optional BOM).
Bundled default data files ship under ``divscore/data``.
"""
from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from .model import ISO_CODE_RE, ISO_COLUMN_RE, FeatureMatrix, LanguageRecord, _require_iso

#: ``bytes.translate`` table from the ASCII digits 0-9 to the bytes 0-9.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))

#: The characters at the even offsets of a plain table's line after its
#: iso code and comma: each cell, if each is one character.
_DIGITS_AFTER_ISO = itemgetter(slice(4, None, 2))


class CorpusSource(namedtuple("CorpusSource", "iso text")):
    """One language's iso code and raw text: ``text`` holds the corpus
    file's bytes, undecoded (``textstats.tokenize`` takes str or bytes)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CorpusSource:
        self = super().__new__(cls, *args, **kwargs)
        _require_iso(self.iso)
        return self


def bundled_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    return Path(__file__).parent / "data" / name


def _plain_lines(text: str) -> list[str] | None:
    r"""The lines of ``text`` if it is a plain table, else None.

    A plain table has no ``"``, no NUL (which ``csv.reader`` rejects
    before Python 3.11) and no line longer than
    ``csv.field_size_limit()``, and no whitespace but one line end, ``\n``
    or ``\r\n``, ending each line: so no lone ``\r``, no blank line and
    no cell to strip. Its ``csv.reader`` rows are exactly its lines split
    at commas.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split()
    breaks = text.count("\n")
    # "\n".join(lines), with or without a final "\n", rebuilds the text
    # when its only whitespace is "\n" and there is one fewer of them than
    # lines, or as many where the text ends in one
    if (
        lines
        and len(text) - breaks == sum(map(len, lines))
        and breaks == len(lines) - 1 + text.endswith("\n")
        and max(map(len, lines)) <= csv.field_size_limit()
    ):
        return lines
    return None


def _split(lines, maxsplit: int = -1):
    """The cells of each line of a plain table; past ``maxsplit`` commas
    the rest of the line is one cell."""
    return map(str.split, lines, repeat(","), repeat(maxsplit))


def _plain_rows(header: list[str], lines: list[str], parse_plain) -> list | None:
    """A plain table's data lines parsed at once, or None where a row
    rule or the parse fails: the row rules of ``_read_table`` over whole
    columns, then ``parse_plain(header, lines)``. Raises nothing."""
    keys = [key for key, _, _ in map(str.partition, lines, repeat(","))]
    if (
        set(map(str.count, lines, repeat(","))) != {len(header) - 1}
        or not all(keys)  # so no row is blank: all commas
        or len(set(keys)) < len(keys)
        or (header[0] == "iso" and not ISO_COLUMN_RE.fullmatch("\n".join(keys)))
    ):
        return None
    try:
        return parse_plain(header, lines)
    except ValueError:
        return None


def _read_table(
    path, what: str, expect: str, header_ok, parse_row, parse_plain=None
) -> tuple[list[str], list]:
    """Read a CSV table: the one place every table rule lives.

    The file is read once and decoded strictly as UTF-8; a leading BOM
    is dropped. All cells are stripped. The header must name every
    column, name none twice and pass ``header_ok``, which returns False
    (the error then says the header must be ``expect``) or raises its
    own error. Blank rows are skipped; every other row has one cell per
    header name and becomes ``parse_row(header, cells)``. The first
    column keys the rows: no key appears twice, and a column named
    ``iso`` holds iso codes. A row error reads ``<what> <path> row <n>: <reason>``.

    A plain table (see ``_plain_lines``) with data rows is first read
    whole by ``_plain_rows`` when the loader gives ``parse_plain``, which
    parses whole columns; it must return what ``parse_row`` returns for
    each row, or raise ``ValueError``. A plain table that breaks a rule
    there, and a plain table of a loader without ``parse_plain``, is read
    by the row loop from its lines split at commas, and every other table
    by the row loop over ``csv.reader`` of the file's bytes, decoded
    again a buffer at a time: the loop is the one place a row error is
    phrased.

    Returns the header and the parsed rows in file order.
    """
    path = Path(path)
    parsed = []
    first_row: dict[str, int] = {}
    try:
        raw = path.read_bytes()
        lines = _plain_lines(raw.decode("utf-8-sig"))
        # a plain table's rows are its lines split at commas; any other
        # table's are csv.reader's over the bytes, decoded a buffer at a
        # time with only \n, \r and \r\n ending a line (an io.StringIO of
        # the text would hold it at 4 bytes a character)
        if lines is None:
            reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), "utf-8-sig", newline=""))
        else:
            reader = _split(lines)
        del raw
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
        if lines is not None and parse_plain is not None:
            rows = _plain_rows(header, lines[1:], parse_plain)
            if rows is not None:
                return header, rows
        for lineno, row in enumerate(reader, start=2):
            cells = list(map(str.strip, row))
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


def load_registry(path) -> dict[str, LanguageRecord]:
    """Read a language registry CSV: iso -> LanguageRecord, in file order.

    The header starts with ``iso``. Of the other columns only ``family``
    and ``script_scale`` are read, wherever they stand; a blank or absent
    cell takes the default (no family, script_scale 1.0). Every other
    column, such as ``name`` or ``endangerment``, is ignored.
    """
    where: list[int | None] = []  # the family and script_scale columns, if present

    def header_ok(header):
        if header[0] != "iso":
            return False
        where.extend(header.index(c) if c in header else None for c in ("family", "script_scale"))
        return True

    def parse(header, row):
        family, scale = ("" if j is None else row[j] for j in where)
        script_scale = _number(float, scale) if scale else 1.0
        if script_scale is None:
            raise ValueError(f"script_scale must be a number, got {scale!r}")
        return LanguageRecord(row[0], family or None, script_scale)

    _, records = _read_table(path, "registry", "'iso' first", header_ok, parse)
    return {rec.iso: rec for rec in records}


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
    ``specs`` (the MorphFeatureSpecs of a morphological matrix, as
    ``grammar.load_morph_specs`` returns them) the columns must cover
    exactly the spec chapters, and every cell must lie inside its
    feature's declared final range, which lies in 0-255. A cell error names the file, the row, the
    language and the feature of the first bad cell in column order.

    Each row is kept as ``bytes``, one byte per cell. A plain table
    whose cells are all one ASCII digit is read whole: one ``translate``
    turns every cell into its byte, deleting the 0 and 1 bytes checks it
    as binary (or each column's min and max its spec range), and each row
    is a slice of that one buffer. Any other table goes row by row
    through the row loop, which phrases every error: a row of one-digit
    cells is translated in one call and checked the same way; any other
    row (``?``, ``01``, ``+1``, non-ASCII digits, bad cells) reads each
    of its distinct cells with ``int()``. All give the same values, and
    the errors come first in row order, then in column order.

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
        """(iso, the row's cells as bytes or None, the features whose cell is '?')."""
        iso, cells = row[0], row[1:]
        # Joined by single spaces, n cells make 2n - 1 characters with a
        # digit at every even position only if each cell is one digit: the
        # n - 1 spaces then fill the odd positions.
        joined = " ".join(cells)
        digits = joined[::2].encode() if joined.isascii() else b""
        if len(joined) == 2 * len(cells) - 1 and digits.isdigit():
            values = digits.translate(_DIGIT_VALUES)
            binary = not values.translate(None, b"\0\1")
        else:
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
            values = tuple(map(value.__getitem__, cells))
            binary = {0, 1}.issuperset(value.values())
        if by_chapter is None:
            if not binary:
                f, v = next((f, v) for f, v in zip(header[1:], values) if v not in (0, 1))
                raise ValueError(f"binary feature ({iso}, {f}) must be 0 or 1, got {v}")
        else:
            for f, v in zip(header[1:], values):
                spec = by_chapter[f]
                if not spec.final_min <= v <= spec.final_max:
                    raise ValueError(
                        f"value {v} for ({iso}, {f}) lies outside the final range "
                        f"[{spec.final_min}, {spec.final_max}]"
                    )
        return iso, bytes(values), []

    def parse_plain(header, lines):
        """Every row at once, if every cell is one ASCII digit inside the
        matrix's range."""
        m = len(header) - 1
        # A line holds m commas (a table rule), so where it is 2m + 3
        # characters long with a digit at every even offset after the iso
        # code and its comma, the other m - 1 commas fill the odd offsets.
        if set(map(len, lines)) != {2 * m + 3}:
            raise ValueError("a cell is not one character")
        digits = "".join(map(_DIGITS_AFTER_ISO, lines)).encode()
        if not digits.isdigit():
            raise ValueError("a cell is not one ASCII digit")
        values = digits.translate(_DIGIT_VALUES)
        if by_chapter is None:
            if values.translate(None, b"\0\1"):
                raise ValueError("a cell is not 0 or 1")
        else:
            for j, f in enumerate(header[1:]):
                column, spec = values[j::m], by_chapter[f]
                if min(column) < spec.final_min or max(column) > spec.final_max:
                    raise ValueError(f"a cell of {f} lies outside its final range")
        starts = range(0, len(values), m)
        return [(line[:3], values[i : i + m], ()) for i, line in zip(starts, lines)]

    header, parsed = _read_table(
        path,
        "feature matrix",
        "'iso' followed by feature identifiers",
        header_ok,
        parse,
        parse_plain,
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
    """Read one language's plain-text corpus: its bytes, which must not
    be empty.

    Nothing is decoded here. ``textstats.tokenize`` decodes the text
    strictly as UTF-8, where an invalid byte raises ``UnicodeDecodeError``
    at its position in the file, and normalizes it to NFC.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw:
        raise ValueError(f"empty corpus: {path}")
    return CorpusSource(iso, raw)


def family_breakdown(records: Iterable[LanguageRecord]) -> tuple[dict[str, list[str]], list[str]]:
    """Family -> sorted member iso codes, plus sorted unlabeled members."""
    families: dict[str, list[str]] = {}
    unlabeled: list[str] = []
    for rec in records:
        if rec.family:
            families.setdefault(rec.family, []).append(rec.iso)
        else:
            unlabeled.append(rec.iso)
    return (
        {fam: sorted(members) for fam, members in sorted(families.items())},
        sorted(unlabeled),
    )


def load_numeric_table(path, columns) -> tuple[list[str], dict[str, tuple[float, ...]]]:
    """Read the per-language number columns ``columns`` of a CSV table.

    The header starts with ``iso`` and names every requested column;
    other columns, such as a name column, are not read. Every requested
    cell is a finite number. Returns the requested column names and a
    mapping iso -> tuple of that row's values in ``columns`` order, one
    entry per row in file order.
    """
    columns = list(columns)
    where: list[tuple[str, int]] = []  # (column, its index in the header)

    def header_ok(header):
        if header[0] != "iso" or not all(name in header for name in columns):
            return False
        where.extend(zip(columns, map(header.index, columns)))
        return True

    def parse(header, row):
        values = []
        for name, j in where:
            cell = row[j]
            value = _number(float, cell)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {cell!r}")
            values.append(value)
        return row[0], tuple(values)

    def parse_plain(header, lines):
        """Every row at once: each requested column is read with ``float``
        and checked finite as a whole. Cells past the last requested
        column stay unsplit."""
        table = list(zip(*_split(lines, max((j for _, j in where), default=0) + 1)))
        values = [list(map(float, table[j])) for _, j in where]
        if not all(all(map(math.isfinite, column)) for column in values):
            raise ValueError("a cell is not finite")
        rows = zip(*values) if values else repeat((), len(lines))  # no column requested
        return list(zip(table[0], rows))

    _, rows = _read_table(
        path,
        "table",
        f"'iso' first, with the column(s) {', '.join(columns)}",
        header_ok,
        parse,
        parse_plain,
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
