"""Command-line interface.

Subcommands: profile, score, cwals, correlate, families. ``build_parser``
holds every option and default, and gives options only to the subcommand
``argv`` names; commands read the parsed namespace directly, after
``main`` rejects a score option the chosen level does not read
(``LEVEL_FLAGS``) and checks the two numeric flags argparse cannot
(``--bin-width``, ``--sample-target``). Each output format has one
writer. Every command writes its output through one emitter, ``_emit``:
a JSON object stamped with ``schema_version``, written by ``_json_text``
with the same bytes as ``json.dumps(indent=2, sort_keys=True)``, or the
same rows as CSV, written by one ``csv.writer``. ``score`` builds one
report, whose value, scalar and per-bin table are derived once.
``--format csv`` emits that table's rows under ``BinOverlap.COLUMNS``,
like any other command's CSV, and ``--format svg`` renders it through
``analysis.serialize_report``, the one output the emitter does not
write. The gap block (``attach_gap``, the table's surplus and deficit
rows with their example languages) and the TI values are built for
``--format json`` alone, which prints them.
Diagnostics go to standard error, printed by the commands themselves.
Every command is deterministic given identical inputs, flags, and seed;
rows are sorted by iso code.

Exit code 0 means success, 1 any error, 2 a usage error from argparse.
Every file of a corpus directory is tried, and one loop reports a
directory's results for both commands (``_report_corpus``): each failure
as ``profile failed for <file>: <reason>``. ``profile`` then emits the
good rows and exits 1; ``score`` emits nothing and exits 1, naming the
directory and every failed file, because a score over a silent subset
of a side would be wrong.

The corpus files of a command, both sides' for ``score``, are profiled
in one batch first (``_profile_files``), by this process and, for large
batches, forked workers. The loop alone prints and decides the exit
code, so the output does not depend on which process profiled what.

A command compiles and runs only the modules it calls into. ``ingest``
and ``model``, which every command reads, load with this module;
``analysis``, ``diversity``, ``grammar`` and ``textstats`` load on the
first read of one of their names (``_lazy``), so this module calls them
as ``textstats.profile(...)``, never through a from-import. Writing
CSV executes none of them.

The program entry is ``run``, not ``main``: it runs ``main`` with the
cyclic garbage collector off and freezes the heap before the interpreter
tears down. No command makes cyclic garbage that grows with its input
(each leaves a fixed 163-200 cyclic objects, mostly argparse's help
formatters and argument groups), so collections during a command and the
collection over every loaded module at shutdown cost time and free
nothing of weight.
"""
from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import io
import itertools
import marshal
import math
import os
import sys
from _json import encode_basestring_ascii as _quote  # the C helper json.encoder wraps
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from .ingest import (
    bundled_path,
    family_breakdown,
    load_corpus,
    load_feature_matrix,
    load_iso_list,
    load_numeric_table,
    load_registry,
)
from .model import ISO_CODE_RE, BinOverlap, LanguageRecord, TextProfile, _require


def _lazy(name: str):
    """The ``divscore`` submodule ``name``, executed on its first attribute
    read (``importlib.util.LazyLoader``). It is registered in
    ``sys.modules`` and bound on the package at once, as an import binds
    it, so a later import finds this module; one already imported is
    returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


analysis = _lazy("analysis")
diversity = _lazy("diversity")
grammar = _lazy("grammar")
textstats = _lazy("textstats")

SCHEMA_VERSION = "1"
#: The profile command's output header: one column per TextProfile field, in field order.
PROFILE_COLUMNS = ["iso", "mwl", "ttr", "entropy", "token_count", "offset", "seed"]

#: The score options only one level reads; the other level rejects them.
LEVEL_FLAGS = {
    "morph": ("--bin-width", "--sample-target", "--seed", "--registry"),
    "syn": ("--syn-dims", "--drop-incomplete"),
}

#: Fewest corpus bytes per forked profile worker: a fork for less saves less time than it costs.
FORK_MIN_BYTES = 300 * 1024


class _Given(argparse.Action):
    """Store an option's value (``const`` for a flag that takes none) and
    add the option to ``given``, the options typed on the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.option_strings[0]}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of every subcommand. All five are added, so the help and
    each error text are the same whatever ``argv`` is; when ``argv[0]``
    names one, only that one gets its options, since no other is parsed."""
    parser = argparse.ArgumentParser(
        prog="divscore",
        description=(
            "Score the linguistic diversity of a multilingual data set against a "
            "reference sample."
        ),
    )
    parser.set_defaults(given=frozenset())
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    wanted = argv[:1] if argv and argv[0] in _DISPATCH else _DISPATCH

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
    if "profile" in wanted:
        p.add_argument("--dataset", required=True, help="corpus directory of <iso>.txt files")
        sampling(p)
        common(p)
        registry(p)

    levels = " ".join(f"Only --level {lv} reads {', '.join(f)}." for lv, f in LEVEL_FLAGS.items())
    score = "diversity scores of a dataset against a reference"
    p = sub.add_parser("score", help=score, epilog=levels)
    if "score" in wanted:
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
    if "cwals" in wanted:
        p.add_argument("--dataset", default=None, help="morphology values CSV (default: bundled)")
        p.add_argument("--specs", default=None, help="feature spec CSV (default: bundled)")
        p.add_argument("--drop-incomplete", action="store_true", help=drop)
        common(p)

    p = sub.add_parser("correlate", help="Spearman correlation of two per-language columns")
    if "correlate" in wanted:
        p.add_argument("x_column", help="column name in the dataset table")
        p.add_argument("y_column", help="column name in the reference table (or same table)")
        p.add_argument("--dataset", default=None, help="per-language table CSV (default: bundled)")
        p.add_argument("--reference", default=None, help="second table to join by iso (optional)")
        common(p)

    p = sub.add_parser("families", help="distinct language families in a language list")
    if "families" in wanted:
        p.add_argument("--dataset", default=None, help="iso list file (default: bundled)")
        common(p)
        registry(p)

    return parser


#: How each JSON scalar type is rendered, each in C, in the order json.encoder
#: tests them. A float prints as ``float.__repr__``, but for the three words
#: in ``_FLOAT_WORDS``, which no other rendered scalar can equal.
_SCALARS = {
    str: _quote,
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    float: float.__repr__,
}
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _unserializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj, indent: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    byte for byte, for dicts with str keys, lists, tuples, str, int,
    float (NaN and the infinities too), bool and None; any other type is
    a ``TypeError``. Containers are walked here, and every key and scalar
    is rendered in C, where ``json.dumps`` runs in Python once it
    indents. ``indent`` is the line break and indent of ``obj``'s line."""
    render = _SCALARS.get(type(obj))
    if render is None and not isinstance(obj, (list, tuple, dict)):
        # a subclass of a scalar type renders as that type does
        render = next((r for t, r in _SCALARS.items() if isinstance(obj, t)), _unserializable)
    if render is not None:
        text = render(obj)
        return _FLOAT_WORDS.get(text, text)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [_json_text(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _emit(
    args: argparse.Namespace, payload: dict, header: Sequence = (), rows: Iterable = ()
) -> None:
    """Write a command's output: ``payload`` as one JSON object stamped
    with ``schema_version``, in the bytes ``json.dumps(indent=2,
    sort_keys=True)`` would write (``_json_text``), or ``header`` and
    ``rows`` as CSV with ``\n`` line ends, as ``--format`` asks."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        sys.stdout.write(_json_text(payload) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _registry(args: argparse.Namespace) -> dict[str, LanguageRecord]:
    """The ``--registry`` records by iso; without the option, none."""
    return load_registry(args.registry) if args.registry else {}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _profile_file(
    f: Path, registry: dict[str, LanguageRecord], args: argparse.Namespace
) -> TextProfile | str:
    """One ``<iso>.txt`` corpus file's profile, with the language's
    registry ``script_scale`` (1.0 if it has no record), or the reason it
    failed."""
    iso = f.stem
    try:
        _require(
            bool(ISO_CODE_RE.match(iso)),
            f"corpus file name must be <iso>.txt with a three-letter code, got {f.name}",
        )
        rec = registry.get(iso)
        return textstats.profile(
            load_corpus(f, iso),
            rec.script_scale if rec else 1.0,
            target=args.sample_target,
            seed=args.seed,
        )
    except UnicodeDecodeError as exc:  # the tokenizer decodes the file's bytes
        return f"corpus {f} is not valid UTF-8: {exc}"
    except (ValueError, OSError) as exc:
        return str(exc)


def _tasks(fd: int) -> Iterator[int]:
    """The file indices in the task pipe ``fd``, one 4-byte record a read."""
    while record := os.read(fd, 4):
        yield int.from_bytes(record, sys.byteorder)


def _run_worker(
    tasks: int, write_fd: int, files: list[Path], registry: dict, args: argparse.Namespace
):
    """End this forked worker after profiling the files it takes from
    ``tasks``, each result ``marshal``ed down ``write_fd`` as it is done:
    ``(index, profile tuple or error message, None)``, or ``(index, None,
    traceback)`` for any other exception, which ends the worker."""
    try:
        with os.fdopen(write_fd, "wb", buffering=0) as pipe:  # one write(2) a result
            for i in _tasks(tasks):
                try:
                    result = _profile_file(files[i], registry, args)
                except Exception:
                    import traceback

                    marshal.dump((i, None, traceback.format_exc()), pipe)
                    break
                marshal.dump((i, result if isinstance(result, str) else tuple(result), None), pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _profile_files(
    files: list[Path], registry: dict[str, LanguageRecord], args: argparse.Namespace
) -> list[TextProfile | str]:
    """Each file's profile or its error message, in file order.

    Runs in this process and forked workers (`_run_worker`), at most one
    per file, usable CPU and `FORK_MIN_BYTES` after the first, or one
    file after another without ``os.fork`` or beside another thread. A
    task pipe, filled and closed before the forks, holds the indices
    largest file first (then by name; an unreadable size counts as 0).
    Each process takes the next when done with a file, this one after the
    files a full pipe left over. Every worker is reaped before this ends.
    """
    import contextlib
    import threading

    sizes = [0] * len(files)
    for k, f in enumerate(files):
        with contextlib.suppress(OSError):  # the profile reports the error
            sizes[k] = f.stat().st_size
    n = min(len(files), _usable_cpus(), 1 + sum(sizes) // FORK_MIN_BYTES)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_profile_file(f, registry, args) for f in files]
    order = sorted(range(len(files)), key=lambda i: (-sizes[i], files[i].name))
    records = b"".join(i.to_bytes(4, sys.byteorder) for i in order)
    tasks, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    with contextlib.suppress(BlockingIOError):  # writes of 512 bytes go in whole or not at all
        for sent in range(0, len(records) + 512, 512):
            os.write(write_fd, records[sent : sent + 512])
    os.close(write_fd)
    textstats._patterns()  # compiled once for all workers
    sys.stdout.flush()
    sys.stderr.flush()
    results: list = [None] * len(files)
    workers = []
    try:
        for _ in range(n - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_worker(tasks, write_fd, files, registry, args)
            os.close(write_fd)
            os.set_blocking(read_fd, False)
            workers.append((pid, os.fdopen(read_fd, "rb"), bytearray()))
        for i in itertools.chain(order[sent // 4 :], _tasks(tasks)):
            results[i] = _profile_file(files[i], registry, args)
            for _, pipe, received in workers:  # a worker waits while its pipe is full
                received += pipe.raw.read(1 << 20) or b""
        for _, pipe, received in workers:
            os.set_blocking(pipe.fileno(), True)
            stream = io.BytesIO(received + pipe.read())
            while True:
                try:
                    i, result, crash = marshal.load(stream)
                except (EOFError, ValueError):
                    break  # the end of the worker's results, or where it was cut short
                if crash:
                    raise RuntimeError(f"profile of {files[i].name} raised in a worker:\n{crash}")
                results[i] = result if isinstance(result, str) else TextProfile(*result)
    finally:
        os.close(tasks)
        for pid, pipe, _ in workers:
            pipe.close()
            os.waitpid(pid, 0)
    if lost := [f.name for f, result in zip(files, results) if result is None]:
        raise RuntimeError(f"a profile worker ended without results for {', '.join(lost)}")
    return results


def _profile_corpora(
    directories: list[Path], registry: dict[str, LanguageRecord], args: argparse.Namespace
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
    corpora = _profile_corpora([dirp], _registry(args), args)
    profiles, failed = _report_corpus(dirp, corpora[dirp])
    rows = [tuple(p) for p in profiles]
    _emit(args, {"profiles": [dict(zip(PROFILE_COLUMNS, r)) for r in rows]}, PROFILE_COLUMNS, rows)
    return 1 if failed else 0


def _table_side(path, flag: str, *columns: str) -> dict[str, tuple[float, ...]]:
    """The ``columns`` of one side's per-language table, iso -> (value,
    ...); a side with no language rows is an error that names it."""
    _, table = load_numeric_table(path, columns)
    _require(bool(table), f"{flag} table {path} has no language rows")
    return table


def _morph_side(
    path: Path, flag: str, corpora: dict[Path, list[tuple[Path, TextProfile | str]]]
) -> tuple[list[str], list[float]]:
    """One side's iso codes and mean word lengths. A corpus directory,
    profiled in ``corpora``, is scored whole or not at all; any other path
    is read as a per-language table with an ``mwl`` column."""
    if path not in corpora:
        table = _table_side(path, flag, "mwl")
        return list(table), [value for (value,) in table.values()]
    profiles, failed = _report_corpus(path, corpora[path])
    _require(
        not failed,
        f"{flag} corpus directory {path}: profile failed for {len(failed)} "
        f"file(s): {', '.join(failed)}; a side is scored whole or not at all",
    )
    return [p.iso for p in profiles], [p.mean_word_length for p in profiles]


def _score_morph(args: argparse.Namespace) -> tuple:
    """The parts of a morph score that `cmd_score` reads."""
    paths = (Path(args.dataset), Path(args.reference))
    dirs = [p for p in paths if p.is_dir()]
    unread = [f for f in ("--sample-target", "--seed", "--registry") if f in args.given]
    if unread and not dirs:
        print(f"note: both sides are tables, so {', '.join(unread)} go unread", file=sys.stderr)
    corpora = _profile_corpora(dirs, _registry(args), args) if dirs else {}
    _, mwl_d = _morph_side(paths[0], "--dataset", corpora)
    iso_r, mwl_r = _morph_side(paths[1], "--reference", corpora)

    bins = [diversity.bin_measurements(mwl, args.bin_width) for mwl in (mwl_d, mwl_r)]
    fields = {"bin_width": args.bin_width, "sample_target": args.sample_target, "seed": args.seed}
    return diversity.jmm_score(*bins), iso_r, fields, bins


def _score_syn(args: argparse.Namespace) -> tuple:
    """The parts of a syn score that `cmd_score` reads."""
    mats = []
    for side, path in (("dataset", args.dataset), ("reference", args.reference)):
        mat, dropped = load_feature_matrix(path, drop_incomplete=args.drop_incomplete)
        if dropped:
            print(f"{len(dropped)} {side} row(s) dropped: {', '.join(dropped)}", file=sys.stderr)
        mats.append(mat)
    try:
        report = diversity.jmm_syn(*mats, args.syn_dims == 206)
    except ValueError as exc:
        # a side without weight is named alone, differing feature lists by both
        named = getattr(exc, "sides", ("dataset", "reference"))
        where = " and ".join(f"--{side} {getattr(args, side)}" for side in named)
        raise ValueError(f"{where}: {exc}") from None
    return report, mats[1].languages, {"syn_dims": args.syn_dims}, mats


def cmd_score(args: argparse.Namespace) -> int:
    """Score either level. Its function gives the report, the reference's
    isos in the order of its side's languages, its payload fields, and
    what the level's TI function reads of each side."""
    level = _score_morph if args.level == "morph" else _score_syn
    report, isos, fields, ti_inputs = level(args)
    ns = (report.dataset.n, report.reference.n)
    payload = {}
    if args.format == "json":
        ti = getattr(diversity, f"ti_{args.level}")
        jmm = report.to_dict(analysis.attach_gap(report, isos))
        tis = [ti(x) if n >= 2 else None for x, n in zip(ti_inputs, ns)]
        ti_fields = {"score_name": f"ti_{args.level}", "dataset": tis[0], "reference": tis[1]}
        if args.level == "morph":
            ti_fields["bin_universe"] = "occupied"
        payload = {"level": args.level, **fields, "dataset_n": ns[0], "reference_n": ns[1]}
        payload.update(normalization_c=report.normalization_c, jmm=jmm, ti=ti_fields)
    if min(ns) < 2:
        print(f"ti_{args.level} skipped for a single-language side", file=sys.stderr)
    print(f"normalization scalar c = {report.normalization_c!r}", file=sys.stderr)
    if args.format == "svg":
        sys.stdout.write(analysis.serialize_report(report))
    else:
        _emit(args, payload, BinOverlap.COLUMNS, report.per_bin)
    return 0


def cmd_cwals(args: argparse.Namespace) -> int:
    specs = grammar.load_morph_specs(args.specs)
    data = args.dataset if args.dataset else bundled_path("morph_values.csv")
    matrix, dropped = load_feature_matrix(data, drop_incomplete=args.drop_incomplete, specs=specs)
    if dropped:
        print(f"{len(dropped)} row(s) dropped: {', '.join(dropped)}", file=sys.stderr)
    rows = grammar.c_wals_table(matrix, specs)
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
    if args.reference:
        table_x = _table_side(x_path, "--dataset", x_col)
        table_y = _table_side(args.reference, "--reference", y_col)
    else:  # one table holds both columns: read it once
        table_x = table_y = _table_side(x_path, "--dataset", x_col, y_col)
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
    xs, ys = [table_x[iso][0] for iso in shared], [table_y[iso][-1] for iso in shared]
    rho = analysis.spearman(xs, ys)
    n = len(shared)
    print(f"rho = {rho:.4f} over n = {n} languages", file=sys.stderr)
    payload = {"rho": rho, "n": n, "x": x_col, "y": y_col, "excluded": excluded}
    _emit(args, payload, ["rho", "n"], [[rho, n]])
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    registry = load_registry(args.registry if args.registry else bundled_path("registry.csv"))
    isos = load_iso_list(args.dataset if args.dataset else bundled_path("mbert_languages.txt"))
    records = [registry[iso] for iso in dict.fromkeys(isos) if iso in registry]
    unknown = sorted({iso for iso in isos if iso not in registry})
    if unknown:
        print(f"unknown iso code(s) excluded: {', '.join(unknown)}", file=sys.stderr)

    families, unlabeled = family_breakdown(records)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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


def run():
    """The ``divscore`` program: exit with ``main``'s code for ``sys.argv``.

    The cyclic collector is off for the command and the forked workers,
    which inherit that: every command leaves the same 163-200 cyclic
    objects whether its inputs hold 20 or 2,000 languages (checked by
    ``tests/test_cli.py::TestCollector``), so a collection would scan the
    heap and free nothing of weight. Once ``main`` returns, ``gc.freeze``
    moves every tracked object to the permanent generation, so the
    collection the interpreter runs at shutdown skips the modules,
    functions and classes the command loaded. An exception out of
    ``main``, such as argparse's usage error, skips the freeze and
    propagates as before. ``main`` leaves the collector as it finds it,
    for in-process callers."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
