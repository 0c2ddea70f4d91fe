"""Command-line interface.

Subcommands: profile, score, cwals, correlate, families. ``build_parser``
holds every option and default; commands read the parsed namespace
directly, after ``main`` rejects a score option the chosen level does
not read (``LEVEL_FLAGS``) and checks the two numeric flags argparse
cannot (``--bin-width``, ``--sample-target``). Every command writes its output
through one emitter, ``_emit``: a JSON object stamped with
``schema_version``, or the same rows as CSV (``score --format csv|svg``
renders the per-bin table through ``serialize_report``). Diagnostics go
to standard error, printed by the commands themselves. Every command is
deterministic given identical inputs, flags, and seed; rows are sorted
by iso code.

Exit code 0 means success, 1 any error, 2 a usage error from argparse.
A corpus directory is profiled by one loop for both commands: it tries
every file and reports each failure as ``profile failed for <file>:
<reason>``. ``profile`` then emits the good rows and exits 1; ``score``
emits nothing and exits 1, naming the directory and every failed file,
because a score over a silent subset of a side would be wrong.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from .analysis import attach_gap, csv_text, serialize_report, spearman
from .diversity import (
    bin_members,
    feature_members,
    jmm_score,
    jmm_syn,
    syntactic_weights,
    ti_morph,
    ti_syn,
)
from .grammar import c_wals_table, load_morph_specs
from .ingest import (
    bundled_path,
    family_breakdown,
    load_corpus,
    load_feature_matrix,
    load_iso_list,
    load_numeric_table,
    load_registry,
)
from .model import ISO_CODE_RE, LanguageRecord, LanguageSet, TextProfile, _require
from .textstats import profile

SCHEMA_VERSION = "1"
#: The profile command's output header: one column per TextProfile field, in field order.
PROFILE_COLUMNS = ["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"]

#: The score options only one level reads; the other level rejects them.
LEVEL_FLAGS = {
    "morph": ("--bin-width", "--sample-target", "--seed", "--registry"),
    "syn": ("--syn-dims", "--drop-incomplete"),
}


class _Given(argparse.Action):
    """Store an option's value (``const`` for a flag that takes none) and
    add the option to ``given``, the options typed on the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.option_strings[0]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divscore",
        description=(
            "Score the linguistic diversity of a multilingual data set against a "
            "reference sample."
        ),
    )
    parser.set_defaults(given=frozenset())
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, formats=("json", "csv")):
        sp.add_argument("--format", choices=list(formats), default="json", help="output format")

    def registry(sp):
        sp.add_argument("--registry", action=_Given, default=None, help="language registry CSV")

    def sampling(sp):
        sp.add_argument(
            "--sample-target", action=_Given, type=int, default=10000, help="tokens per sample"
        )
        sp.add_argument("--seed", action=_Given, type=int, default=0, help="sampling RNG seed")

    drop = "drop rows with '?' cells"

    p = sub.add_parser("profile", help="per-language text statistics over a corpus directory")
    p.add_argument("--dataset", required=True, help="corpus directory of <iso>.txt files")
    sampling(p)
    common(p)
    registry(p)

    levels = " ".join(f"Only --level {lv} reads {', '.join(f)}." for lv, f in LEVEL_FLAGS.items())
    score = "diversity scores of a dataset against a reference"
    p = sub.add_parser("score", help=score, epilog=levels)
    p.add_argument("--level", choices=list(LEVEL_FLAGS), required=True)
    p.add_argument(
        "--dataset",
        required=True,
        help="corpus directory or per-language table with an mwl column (morph); "
        "binary feature matrix CSV (syn)",
    )
    p.add_argument("--reference", required=True, help="same formats as --dataset")
    p.add_argument(
        "--bin-width", action=_Given, type=float, default=1.0, help="measurement bin width"
    )
    sampling(p)
    p.add_argument(
        "--syn-dims",
        action=_Given,
        type=int,
        choices=[103, 206],
        default=103,
        help="one weight dimension per feature (103) or per feature value (206)",
    )
    p.add_argument(
        "--drop-incomplete", action=_Given, nargs=0, const=True, default=False, help=drop
    )
    common(p, formats=("json", "csv", "svg"))
    registry(p)

    p = sub.add_parser("cwals", help="per-language morphological complexity scores")
    p.add_argument("--dataset", default=None, help="morphology values CSV (default: bundled)")
    p.add_argument("--specs", default=None, help="feature spec CSV (default: bundled)")
    p.add_argument("--drop-incomplete", action="store_true", help=drop)
    common(p)

    p = sub.add_parser("correlate", help="Spearman correlation of two per-language columns")
    p.add_argument("x_column", help="column name in the dataset table")
    p.add_argument("y_column", help="column name in the reference table (or same table)")
    p.add_argument("--dataset", default=None, help="per-language table CSV (default: bundled)")
    p.add_argument("--reference", default=None, help="second table to join by iso (optional)")
    common(p)

    p = sub.add_parser("families", help="distinct language families in a language list")
    p.add_argument("--dataset", default=None, help="iso list file (default: bundled)")
    common(p)
    registry(p)

    return parser


def _emit(
    args: argparse.Namespace, payload: dict, header: Sequence = (), rows: Iterable = ()
) -> None:
    """Write a command's output: ``payload`` as one JSON object stamped
    with ``schema_version``, or ``header`` and ``rows`` as CSV, as
    ``--format`` asks."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(csv_text(header, rows))


def _registry_or_none(args: argparse.Namespace) -> LanguageSet | None:
    return load_registry(args.registry) if args.registry else None


def _record_for(iso: str, registry: LanguageSet | None) -> LanguageRecord:
    if registry is not None and iso in registry:
        return registry.get(iso)
    return LanguageRecord(iso=iso, name=iso)


def _profile_corpus(
    directory: Path, registry: LanguageSet | None, args: argparse.Namespace
) -> tuple[list[TextProfile], list[str]]:
    """Profile every ``<iso>.txt`` file of a corpus directory in name order.

    Every file is tried. Each failure is reported on stderr as ``profile
    failed for <file>: <reason>``; returns the good profiles and the
    names of the failed files.
    """
    files = sorted(directory.glob("*.txt"))
    _require(bool(files), f"no <iso>.txt corpus files in {directory}")
    profiles, failed = [], []
    for f in files:
        iso = f.stem
        try:
            _require(
                bool(ISO_CODE_RE.match(iso)),
                f"corpus file name must be <iso>.txt with a three-letter code, got {f.name}",
            )
            profiles.append(
                profile(
                    load_corpus(f, iso),
                    _record_for(iso, registry),
                    target=args.sample_target,
                    seed=args.seed,
                )
            )
        except (ValueError, OSError) as exc:
            failed.append(f.name)
            print(f"profile failed for {f.name}: {exc}", file=sys.stderr)
    return profiles, failed


def cmd_profile(args: argparse.Namespace) -> int:
    dirp = Path(args.dataset)
    _require(dirp.is_dir(), f"--dataset must be a corpus directory, got {args.dataset!r}")
    profiles, failed = _profile_corpus(dirp, _registry_or_none(args), args)
    rows = [tuple(p) for p in profiles]
    _emit(args, {"profiles": [dict(zip(PROFILE_COLUMNS, r)) for r in rows]}, PROFILE_COLUMNS, rows)
    return 1 if failed else 0


def _morph_side(
    path_arg: str, flag: str, registry: LanguageSet | None, args: argparse.Namespace
) -> tuple[list[str], list[float]]:
    """One side's iso codes and mean word lengths. A corpus directory is
    profiled, and scored whole or not at all; any other path is read as
    a per-language table with an ``mwl`` column."""
    path = Path(path_arg)
    if not path.is_dir():
        _, table = load_numeric_table(path, ["mwl"])
        return list(table), [row["mwl"] for row in table.values()]
    profiles, failed = _profile_corpus(path, registry, args)
    _require(
        not failed,
        f"{flag} corpus directory {path}: profile failed for {len(failed)} "
        f"file(s): {', '.join(failed)}; a side is scored whole or not at all",
    )
    return [p.iso for p in profiles], [p.mean_word_length for p in profiles]


def _score_morph(args: argparse.Namespace) -> dict:
    unread = [f for f in ("--sample-target", "--seed", "--registry") if f in args.given]
    if unread and not any(Path(side).is_dir() for side in (args.dataset, args.reference)):
        print(f"note: both sides are tables, so {', '.join(unread)} go unread", file=sys.stderr)
    registry = _registry_or_none(args)
    _, mwl_d = _morph_side(args.dataset, "--dataset", registry, args)
    iso_r, mwl_r = _morph_side(args.reference, "--reference", registry, args)

    report = jmm_score(mwl_d, mwl_r, args.bin_width)
    report = attach_gap(report, bin_members(iso_r, mwl_r, args.bin_width))

    ti_d = ti_morph(mwl_d, args.bin_width) if len(mwl_d) >= 2 else None
    ti_r = ti_morph(mwl_r, args.bin_width) if len(mwl_r) >= 2 else None
    if ti_d is None or ti_r is None:
        print("ti_morph skipped for a single-language side", file=sys.stderr)
    return {
        "level": "morph",
        "bin_width": args.bin_width,
        "sample_target": args.sample_target,
        "seed": args.seed,
        "dataset_n": len(mwl_d),
        "reference_n": len(mwl_r),
        "jmm": report,
        "ti": {
            "score_name": "ti_morph",
            "dataset": ti_d,
            "reference": ti_r,
            "bin_universe": "occupied",
        },
    }


def _score_syn(args: argparse.Namespace) -> dict:
    count_zeros = args.syn_dims == 206
    mats, weights = [], []
    for side, path in (("dataset", args.dataset), ("reference", args.reference)):
        mat, dropped = load_feature_matrix(path, drop_incomplete=args.drop_incomplete)
        if dropped:
            print(f"{len(dropped)} {side} row(s) dropped: {', '.join(dropped)}", file=sys.stderr)
        try:
            weights.append(syntactic_weights(mat, count_zeros))
        except ValueError as exc:
            raise ValueError(f"--{side} {path}: {exc}") from None
        mats.append(mat)
    mat_d, mat_r = mats

    try:
        report = jmm_syn(mat_d, mat_r, *weights)
    except ValueError as exc:
        paths = f"--dataset {args.dataset} and --reference {args.reference}"
        raise ValueError(f"{paths}: {exc}") from None
    report = attach_gap(report, feature_members(mat_r, count_zeros))

    ti_d = ti_syn(mat_d) if mat_d.n_languages >= 2 else None
    ti_r = ti_syn(mat_r) if mat_r.n_languages >= 2 else None
    if ti_d is None or ti_r is None:
        print("ti_syn skipped for a single-language side", file=sys.stderr)
    return {
        "level": "syn",
        "syn_dims": args.syn_dims,
        "dataset_n": mat_d.n_languages,
        "reference_n": mat_r.n_languages,
        "jmm": report,
        "ti": {"score_name": "ti_syn", "dataset": ti_d, "reference": ti_r},
    }


def cmd_score(args: argparse.Namespace) -> int:
    result = _score_morph(args) if args.level == "morph" else _score_syn(args)
    report = result["jmm"]
    print(f"normalization scalar c = {report.normalization_c!r}", file=sys.stderr)
    if args.format == "json":
        _emit(args, {**result, "normalization_c": report.normalization_c, "jmm": report.to_dict()})
    else:
        sys.stdout.write(serialize_report(report, args.format).decode("utf-8"))
    return 0


def cmd_cwals(args: argparse.Namespace) -> int:
    specs = load_morph_specs(args.specs)
    data = args.dataset if args.dataset else bundled_path("morph_values.csv")
    matrix, dropped = load_feature_matrix(data, drop_incomplete=args.drop_incomplete, specs=specs)
    if dropped:
        print(f"{len(dropped)} row(s) dropped: {', '.join(dropped)}", file=sys.stderr)
    rows = c_wals_table(matrix, specs)
    for s in specs:
        if s.final_min == s.final_max:
            print(
                f"chapter {s.chapter} has a degenerate final range [{s.final_min}, "
                f"{s.final_max}]; normalized value defined as 0",
                file=sys.stderr,
            )
    header = ["iso", "c_wals"]
    _emit(args, {"c_wals": [dict(zip(header, r)) for r in rows]}, header, rows)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    x_col, y_col = args.x_column, args.y_column
    x_path = args.dataset or bundled_path("mwl_cwals.csv")
    _, table_x = load_numeric_table(x_path, [x_col])
    _, table_y = load_numeric_table(args.reference or x_path, [y_col])
    shared = sorted(set(table_x) & set(table_y))
    excluded = sorted(set(table_x).symmetric_difference(table_y))
    if not shared:
        raise ValueError("no overlapping languages between the two tables")
    if excluded:
        print(
            f"{len(excluded)} language(s) present in only one table, excluded: "
            f"{', '.join(excluded)}",
            file=sys.stderr,
        )
    rho = spearman(
        [table_x[iso][x_col] for iso in shared],
        [table_y[iso][y_col] for iso in shared],
    )
    n = len(shared)
    print(f"rho = {rho:.4f} over n = {n} languages", file=sys.stderr)
    _emit(
        args,
        {"rho": rho, "n": n, "x": x_col, "y": y_col, "excluded": excluded},
        ["rho", "n"],
        [[rho, n]],
    )
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    registry = load_registry(args.registry if args.registry else bundled_path("registry.csv"))
    isos = load_iso_list(args.dataset if args.dataset else bundled_path("mbert_languages.txt"))
    records = [registry.get(iso) for iso in dict.fromkeys(isos) if iso in registry]
    unknown = sorted({iso for iso in isos if iso not in registry})
    if unknown:
        print(f"unknown iso code(s) excluded: {', '.join(unknown)}", file=sys.stderr)

    families, unlabeled = family_breakdown(LanguageSet(records))
    if unlabeled:
        print(
            f"{len(unlabeled)} language(s) excluded from family count (no family label): "
            f"{', '.join(unlabeled)}",
            file=sys.stderr,
        )
    print(f"{len(families)} distinct families over {len(records)} languages", file=sys.stderr)
    _emit(
        args,
        {
            "family_count": len(families),
            "families": families,
            "unlabeled": unlabeled,
            "unknown": unknown,
        },
        ["family", "iso"],
        [[family, iso] for family, members in families.items() for iso in members]
        + [["", iso] for iso in unlabeled],
    )
    return 0


_DISPATCH = {
    "profile": cmd_profile,
    "score": cmd_score,
    "cwals": cmd_cwals,
    "correlate": cmd_correlate,
    "families": cmd_families,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = sorted(args.given - set(LEVEL_FLAGS[args.level])) if args.command == "score" else []
    if unread:
        parser.error(f"score --level {args.level} does not read {', '.join(unread)}")
    try:
        if "bin_width" in args:
            _require(
                math.isfinite(args.bin_width) and args.bin_width > 0,
                f"--bin-width must be a positive number, got {args.bin_width}",
            )
        if "sample_target" in args:
            _require(
                args.sample_target >= 1,
                f"--sample-target must be >= 1, got {args.sample_target}",
            )
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
