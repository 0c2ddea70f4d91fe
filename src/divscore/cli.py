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
Every file of a corpus directory is tried, and one loop reports a
directory's results for both commands (``_report_corpus``): each failure
as ``profile failed for <file>: <reason>``. ``profile`` then emits the
good rows and exits 1; ``score`` emits nothing and exits 1, naming the
directory and every failed file, because a score over a silent subset
of a side would be wrong.

The corpus files of a command, both sides' for ``score``, are profiled
in one batch before that loop reports them (``_profile_files``): split
by size over one process per usable CPU, the command's own and forked
workers, which send their results back over pipes. The loop alone
prints and decides the exit code, so output and exit codes do not
depend on the number of CPUs. ``taskset`` or a cgroup cpuset limits
the workers; on one CPU the files are profiled one after another.
"""
from __future__ import annotations

import argparse
import gc
import json
import marshal
import math
import os
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from .analysis import attach_gap, csv_text, serialize_report, spearman
from .diversity import (
    bin_measurements,
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
from .textstats import _patterns, profile

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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _profile_file(
    f: Path, registry: LanguageSet | None, args: argparse.Namespace
) -> TextProfile | str:
    """One ``<iso>.txt`` corpus file's profile, or the reason it failed."""
    iso = f.stem
    try:
        _require(
            bool(ISO_CODE_RE.match(iso)),
            f"corpus file name must be <iso>.txt with a three-letter code, got {f.name}",
        )
        return profile(
            load_corpus(f, iso),
            _record_for(iso, registry),
            target=args.sample_target,
            seed=args.seed,
        )
    except (ValueError, OSError) as exc:
        return str(exc)


def _shares(files: list[Path], n: int) -> list[list[int]]:
    """Split the files' indices into ``n`` shares of about equal bytes:
    the largest file first (name order among equal sizes), each to the
    share with the fewest bytes, then the fewest files, then the lowest
    index."""
    sizes = []
    for f in files:
        try:
            sizes.append(f.stat().st_size)
        except OSError:
            sizes.append(0)  # the profile reports the error
    shares, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(files)), key=lambda i: (-sizes[i], files[i].name)):
        k = min(range(n), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += sizes[i]
    return shares


def _run_worker(
    write_fd: int, files: list[Path], registry: LanguageSet | None, args: argparse.Namespace
):
    """Profile ``files`` in a forked worker, write the results to the pipe
    and end the process; never returns into the caller.

    Writes ``(results, crash)`` with ``marshal``: each file's profile as a
    plain tuple or its error message, in order, and ``crash``, the name
    and traceback of a file whose profile raised any other exception (no
    file after it is profiled), or None. An interrupt ends the worker
    with status 1 and writes nothing.
    """
    code = 1
    try:
        results, crash = [], None
        for f in files:
            try:
                result = _profile_file(f, registry, args)
            except Exception:
                import traceback

                crash = (f.name, traceback.format_exc())
                break
            results.append(result if isinstance(result, str) else tuple(result))
        with os.fdopen(write_fd, "wb") as pipe:
            marshal.dump((results, crash), pipe)
        code = 0
    finally:
        os._exit(code)


def _profile_files(
    files: list[Path], registry: LanguageSet | None, args: argparse.Namespace
) -> list[TextProfile | str]:
    """Each file's profile or its error message, in file order.

    The files are split into ``min(len(files), usable CPUs)`` shares by
    size (`_shares`). This process profiles the first share while a
    forked worker profiles each other one (`_run_worker`). It runs
    sequentially when that is one share, when ``os.fork`` is missing, or
    when other threads run in the process. Before forking, ``regex`` is
    imported and compiled once for all, and the collector is kept off the
    inherited objects (``gc.freeze``) so their pages stay shared until
    every worker is reaped, which happens before this returns or raises.
    """
    import threading

    n = min(len(files), _usable_cpus())
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_profile_file(f, registry, args) for f in files]
    own, *others = _shares(files, n)
    _patterns()
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    results: list = [None] * len(files)
    workers = []
    try:
        for share in others:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_worker(write_fd, [files[i] for i in share], registry, args)
            os.close(write_fd)
            workers.append((pid, os.fdopen(read_fd, "rb"), share))
        for i in own:
            results[i] = _profile_file(files[i], registry, args)
        for _, pipe, share in workers:
            try:
                done, crash = marshal.loads(pipe.read())
            except (EOFError, ValueError):
                names = ", ".join(files[i].name for i in share)
                raise RuntimeError(f"a profile worker ended without results for {names}") from None
            if crash:
                raise RuntimeError(f"profile of {crash[0]} raised in a worker:\n{crash[1]}")
            for i, result in zip(share, done):
                results[i] = result if isinstance(result, str) else TextProfile(*result)
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.waitpid(pid, 0)
        gc.unfreeze()
    return results


def _profile_corpora(
    directories: list[Path], registry: LanguageSet | None, args: argparse.Namespace
) -> dict[Path, list[tuple[Path, TextProfile | str]]]:
    """Profile the ``<iso>.txt`` files of every corpus directory in one
    batch (`_profile_files`); map each directory to its files, in name
    order, with their results."""
    listed = {d: sorted(d.glob("*.txt")) for d in directories}
    results = iter(_profile_files([f for fs in listed.values() for f in fs], registry, args))
    return {d: [(f, next(results)) for f in fs] for d, fs in listed.items()}


def _report_corpus(
    directory: Path, results: list[tuple[Path, TextProfile | str]]
) -> tuple[list[TextProfile], list[str]]:
    """Report one corpus directory's results in name order: each failure
    on stderr as ``profile failed for <file>: <reason>``. Returns the good
    profiles and the names of the failed files."""
    _require(bool(results), f"no <iso>.txt corpus files in {directory}")
    profiles, failed = [], []
    for f, result in results:
        if isinstance(result, str):
            failed.append(f.name)
            print(f"profile failed for {f.name}: {result}", file=sys.stderr)
        else:
            profiles.append(result)
    return profiles, failed


def cmd_profile(args: argparse.Namespace) -> int:
    dirp = Path(args.dataset)
    _require(dirp.is_dir(), f"--dataset must be a corpus directory, got {args.dataset!r}")
    corpora = _profile_corpora([dirp], _registry_or_none(args), args)
    profiles, failed = _report_corpus(dirp, corpora[dirp])
    rows = [tuple(p) for p in profiles]
    _emit(args, {"profiles": [dict(zip(PROFILE_COLUMNS, r)) for r in rows]}, PROFILE_COLUMNS, rows)
    return 1 if failed else 0


def _morph_side(
    path: Path, flag: str, corpora: dict[Path, list[tuple[Path, TextProfile | str]]]
) -> tuple[list[str], list[float]]:
    """One side's iso codes and mean word lengths. A corpus directory,
    profiled in ``corpora``, is scored whole or not at all; any other path
    is read as a per-language table with an ``mwl`` column."""
    if path not in corpora:
        _, table = load_numeric_table(path, ["mwl"])
        return list(table), [row["mwl"] for row in table.values()]
    profiles, failed = _report_corpus(path, corpora[path])
    _require(
        not failed,
        f"{flag} corpus directory {path}: profile failed for {len(failed)} "
        f"file(s): {', '.join(failed)}; a side is scored whole or not at all",
    )
    return [p.iso for p in profiles], [p.mean_word_length for p in profiles]


def _score_morph(args: argparse.Namespace) -> dict:
    paths = (Path(args.dataset), Path(args.reference))
    dirs = [p for p in paths if p.is_dir()]
    unread = [f for f in ("--sample-target", "--seed", "--registry") if f in args.given]
    if unread and not dirs:
        print(f"note: both sides are tables, so {', '.join(unread)} go unread", file=sys.stderr)
    corpora = _profile_corpora(dirs, _registry_or_none(args), args)
    _, mwl_d = _morph_side(paths[0], "--dataset", corpora)
    iso_r, mwl_r = _morph_side(paths[1], "--reference", corpora)

    bins_d = bin_measurements(mwl_d, args.bin_width)
    bins_r = bin_measurements(mwl_r, args.bin_width)

    report = attach_gap(jmm_score(bins_d, bins_r), bin_members(iso_r, bins_r))
    ti_d = ti_morph(bins_d) if len(bins_d) >= 2 else None
    ti_r = ti_morph(bins_r) if len(bins_r) >= 2 else None
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
