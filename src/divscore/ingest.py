"""File loading: language registry, feature matrices, corpora.

All readers take explicit paths and return validated domain objects.
Text is decoded strictly (invalid UTF-8 is an error, never replaced) and
NFC-normalized once here, so downstream grapheme counting sees canonical
forms. Bundled default data files ship under ``divscore/data``.
"""
from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (
    ISO_CODE_RE,
    FeatureMatrix,
    LanguageRecord,
    LanguageSet,
    TextProfile,
    _require,
)

REGISTRY_COLUMNS = ["iso", "name", "family", "endangerment", "script_scale"]


@dataclass(frozen=True)
class CorpusSource:
    """One language's raw text and where it came from."""

    iso: str
    path: str
    text: str

    def __post_init__(self) -> None:
        _require(
            bool(ISO_CODE_RE.match(self.iso)),
            f"iso must be exactly three ASCII lowercase letters, got {self.iso!r}",
        )


def bundled_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    return Path(str(resources.files("divscore").joinpath("data", name)))


def load_registry(path) -> LanguageSet:
    """Read a language registry CSV into a LanguageSet.

    The header must be ``iso,name,family,endangerment,script_scale``;
    the last three columns are optional but must appear in that order
    when present. Blank optional fields take the defaults (no family, no
    endangerment status, script_scale 1.0).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"registry {path} is empty")
        header = [h.strip() for h in header]
        if len(header) < 2 or header != REGISTRY_COLUMNS[: len(header)]:
            raise ValueError(
                f"registry {path} header must be a prefix of "
                f"{','.join(REGISTRY_COLUMNS)} with at least iso,name; got {','.join(header)}"
            )
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            row = [c.strip() for c in row] + [""] * (len(REGISTRY_COLUMNS) - len(row))
            iso = row[0]
            if not ISO_CODE_RE.match(iso):
                raise ValueError(f"registry row {lineno}: malformed iso code {iso!r}")
            try:
                scale = float(row[4]) if row[4] else 1.0
            except ValueError:
                raise ValueError(
                    f"registry row {lineno}: script_scale must be a number, got {row[4]!r}"
                ) from None
            try:
                records.append(
                    LanguageRecord(
                        iso=iso,
                        name=row[1],
                        family=row[2] or None,
                        endangerment=row[3] or None,
                        script_scale=scale,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"registry row {lineno}: {exc}") from None
    return LanguageSet(records)


def load_feature_matrix(
    path,
    kind: str,
    drop_incomplete: bool = False,
    specs=None,
) -> tuple[FeatureMatrix, list[str]]:
    """Read a feature table CSV into a FeatureMatrix.

    Format: first column ``iso``, remaining columns feature identifiers,
    cells integers or the missing marker ``?``. Rows containing ``?`` are
    an error unless ``drop_incomplete`` is set, in which case they are
    dropped and their iso codes returned.

    When ``specs`` (a MorphSpecSet) is given for a morphological matrix,
    the columns must cover exactly the spec chapters and every cell must
    lie inside its feature's declared final range.

    Returns
    -------
    (FeatureMatrix, list of str)
        The matrix over complete rows, and the iso codes of dropped rows
        (empty unless ``drop_incomplete`` removed any).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"feature matrix {path} is empty")
        header = [h.strip() for h in header]
        if not header or header[0] != "iso" or len(header) < 2:
            raise ValueError(
                f"feature matrix {path} header must start with 'iso' followed by "
                f"feature identifiers, got {','.join(header)}"
            )
        features = header[1:]

        rows: list[tuple[str, list[int]]] = []
        dropped: list[str] = []
        missing: list[tuple[str, str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            row = [c.strip() for c in row]
            if len(row) != len(header):
                raise ValueError(
                    f"feature matrix {path} row {lineno}: expected {len(header)} "
                    f"columns, got {len(row)}"
                )
            iso = row[0]
            if not ISO_CODE_RE.match(iso):
                raise ValueError(f"feature matrix {path} row {lineno}: malformed iso code {iso!r}")
            row_missing = [(iso, f) for f, cell in zip(features, row[1:]) if cell == "?"]
            if row_missing:
                missing.extend(row_missing)
                dropped.append(iso)
                continue
            values = []
            for f, cell in zip(features, row[1:]):
                try:
                    v = int(cell)
                except ValueError:
                    raise ValueError(
                        f"feature matrix {path}: value for ({iso}, {f}) must be an "
                        f"integer or '?', got {cell!r}"
                    ) from None
                if kind == "binary_syntactic" and v not in (0, 1):
                    raise ValueError(
                        f"feature matrix {path}: binary feature ({iso}, {f}) must be "
                        f"0 or 1, got {v}"
                    )
                values.append(v)
            rows.append((iso, values))

    if missing and not drop_incomplete:
        listing = ", ".join(f"({i}, {f})" for i, f in missing)
        raise ValueError(
            f"feature matrix {path} has missing values at {listing}; rerun with "
            f"--drop-incomplete to skip those rows"
        )
    if not rows:
        raise ValueError(f"feature matrix {path} has no complete language rows")

    if specs is not None:
        by_chapter = {s.chapter: s for s in specs.specs}
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
        for iso, values in rows:
            for f, v in zip(features, values):
                s = by_chapter[f]
                if not (s.final_min <= v <= s.final_max):
                    raise ValueError(
                        f"feature matrix {path}: value {v} for ({iso}, {f}) lies outside "
                        f"the final range [{s.final_min}, {s.final_max}]"
                    )

    matrix = FeatureMatrix(
        languages=[iso for iso, _ in rows],
        features=features,
        values=np.array([vals for _, vals in rows], dtype=np.int64),
        kind=kind,
    )
    return matrix, dropped


def load_corpus(path, iso: str) -> CorpusSource:
    """Read one language's plain-text corpus.

    Decodes strictly as UTF-8 (invalid bytes raise, nothing is replaced)
    and applies Unicode NFC normalization. No other processing.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw:
        raise ValueError(f"empty corpus: {path}")
    try:
        text = raw.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise ValueError(f"corpus {path} is not valid UTF-8: {exc}") from None
    return CorpusSource(iso=iso, path=str(path), text=unicodedata.normalize("NFC", text))


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


PROFILE_COLUMNS = ["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"]


def load_profile_table(path) -> list[TextProfile]:
    """Read a precomputed profile table CSV.

    Header must be ``iso,mwl,ttr,entropy,token_count,offset,seed`` (the
    format the profile command writes), so large references can be
    profiled once and scored many times without re-tokenizing.
    """
    path = Path(path)
    profiles = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != PROFILE_COLUMNS:
            raise ValueError(
                f"profile table {path} header must be {','.join(PROFILE_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(PROFILE_COLUMNS):
                raise ValueError(
                    f"profile table {path} row {lineno}: expected "
                    f"{len(PROFILE_COLUMNS)} columns, got {len(row)}"
                )
            row = [c.strip() for c in row]
            try:
                profiles.append(
                    TextProfile(
                        iso=row[0],
                        mean_word_length=float(row[1]),
                        ttr=float(row[2]),
                        unigram_entropy=float(row[3]),
                        token_count=int(row[4]),
                        sample_offset=int(row[5]),
                        seed=int(row[6]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"profile table {path} row {lineno}: {exc}") from None
    seen: set[str] = set()
    for p in profiles:
        if p.iso in seen:
            raise ValueError(f"profile table {path}: duplicate iso code {p.iso!r}")
        seen.add(p.iso)
    return profiles


def load_numeric_table(path) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Read a CSV of per-language numeric columns keyed by iso.

    First column must be ``iso``; non-numeric columns (for example a
    display-name column) are skipped. Returns the numeric column names
    and a mapping iso -> {column: value}.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "iso":
            raise ValueError(f"table {path} must have an 'iso' first column")
        header = [h.strip() for h in header]
        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"table {path} row {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            row = [c.strip() for c in row]
            if not ISO_CODE_RE.match(row[0]):
                raise ValueError(f"table {path} row {lineno}: malformed iso code {row[0]!r}")
            raw_rows.append(row)

    numeric_cols = []
    for j, col in enumerate(header[1:], start=1):
        try:
            for row in raw_rows:
                float(row[j])
        except ValueError:
            continue
        numeric_cols.append(col)
    table: dict[str, dict[str, float]] = {}
    for row in raw_rows:
        iso = row[0]
        if iso in table:
            raise ValueError(f"table {path}: duplicate iso code {iso!r}")
        table[iso] = {
            col: float(row[header.index(col)]) for col in numeric_cols
        }
    return numeric_cols, table


def load_iso_list(path) -> list[str]:
    """Read a plain list of iso codes, one per line; '#' starts a comment."""
    path = Path(path)
    codes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.split("#", 1)[0].strip()
            if not token:
                continue
            if not ISO_CODE_RE.match(token):
                raise ValueError(f"{path} line {lineno}: malformed iso code {token!r}")
            codes.append(token)
    return codes
