"""The benchmark's workloads: seeded inputs, CLI commands, and checks.

Each workload function writes its inputs under ``root`` from ``seed``
and returns the commands of one iteration, in order. Sizes are fixed per
workload; the seed changes content only, so every seed asks for the same
amount of work.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import check
import gen

# Script mixes and word-length targets by corpus index. The seed never
# changes them, so tokenizer work is the same for every seed.
_MIXES = [
    {"latin": 80, "nfd": 6, "han": 4, "numeric": 5, "apostrophe": 5},
    {"latin": 60, "nfd": 25, "han": 3, "numeric": 6, "apostrophe": 6},
    {"latin": 70, "nfd": 10, "han": 5, "numeric": 10, "apostrophe": 5},
    {"latin": 75, "nfd": 5, "han": 5, "numeric": 5, "apostrophe": 10},
]
# the logographic corpus: mostly Han runs, short written words, and a
# script_scale registry row
_HAN_MIX = {"latin": 20, "nfd": 4, "han": 70, "numeric": 6}
_HAN_MEAN_LEN = 2.0
HAN_SCALE = 2.4

SYN_FEATURES = [f"s{j:03d}" for j in range(1, 104)]
MORPH_SPECS = Path(__file__).resolve().parent.parent / "src" / "divscore" / "data" / "morph_feature_specs.csv"


@dataclass
class Command:
    label: str
    args: list[str]
    input_bytes: int
    # (stdout, stdout of the earlier commands of this iteration by label) -> problems
    check: Callable[[bytes, dict[str, bytes]], list[str]]


def _size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else path.stat().st_size


def _cmd(label: str, args: list, inputs: list[Path], fn) -> Command:
    return Command(label, [str(a) for a in args], sum(map(_size, inputs)), fn)


def _ignore_earlier(fn):
    return lambda out, earlier: fn(out)


def _corpus_side(
    directory: Path, rng: random.Random, isos: list[str], sizes: list[int], lens: list[float], han: int | None
) -> dict[str, gen.CorpusTruth]:
    """Corpora for ``isos``; corpus index ``han`` (if any) is logographic."""
    mixes = [_HAN_MIX if i == han else _MIXES[i % len(_MIXES)] for i in range(len(isos))]
    lens = [_HAN_MEAN_LEN if i == han else m for i, m in enumerate(lens)]
    scales = {isos[han]: HAN_SCALE} if han is not None else {}
    return gen.write_corpora(directory, rng, isos, sizes, lens, mixes, scales)


def _spread(lo: float, hi: float, k: int) -> list[float]:
    return [lo + (hi - lo) * i / max(1, k - 1) for i in range(k)]


def _sizes(lo: int, hi: int, k: int) -> list[int]:
    return [round(v) for v in _spread(lo, hi, k)]


def _registry(path: Path, rng: random.Random, truths: dict[str, gen.CorpusTruth]) -> dict[str, str | None]:
    scales = {iso: t.script_scale for iso, t in truths.items() if t.script_scale != 1.0}
    return gen.write_registry(path, rng, sorted(truths), scales)


def _morph_truth(truths: dict[str, gen.CorpusTruth], target: int, seed: int) -> list[float]:
    return [truths[iso].expected_profile(target, seed)["mwl"] for iso in sorted(truths)]


def _corpus_pair(root: Path, rng: random.Random, n_d: int, n_r: int, sizes_d, sizes_r):
    isos = gen.iso_codes(rng, n_d + n_r)
    rng.shuffle(isos)
    ds = _corpus_side(root / "ds", rng, sorted(isos[:n_d]), sizes_d, _spread(3.5, 6.0, n_d), han=n_d - 1)
    ref = _corpus_side(root / "ref", rng, sorted(isos[n_d:]), sizes_r, _spread(2.5, 8.5, n_r), han=None)
    return ds, ref


def fixture_cli(root: Path, seed: int) -> list[Command]:
    """Every subcommand once, on inputs the size of the test fixtures."""
    rng = random.Random(seed)
    ds, ref = _corpus_pair(root, rng, 6, 10, _sizes(900, 1300, 6), _sizes(1000, 2600, 10))
    registry = root / "registry.csv"
    families = _registry(registry, rng, {**ds, **ref})

    isos = gen.iso_codes(rng, 40)
    syn_d = gen.write_binary_matrix(root / "syn_ds.csv", rng, isos[:10], SYN_FEATURES, [rng.uniform(0.1, 0.9) for _ in SYN_FEATURES])
    syn_r = gen.write_binary_matrix(root / "syn_ref.csv", rng, isos[10:], SYN_FEATURES, [rng.uniform(0.05, 0.95) for _ in SYN_FEATURES])

    with open(MORPH_SPECS, newline="", encoding="utf-8") as fh:
        ranges = [(r["chapter"], int(r["final_min"]), int(r["final_max"])) for r in csv.DictReader(fh)]
    morph_isos = gen.iso_codes(rng, 28)
    morph = gen.write_morph_values(root / "morph.csv", rng, morph_isos, ranges)
    table = gen.write_numeric_table(root / "mwl_cwals.csv", rng, morph_isos)

    known = sorted(families)
    iso_list = rng.sample(known, 12) + rng.sample(known, 3) + ["zzz", "zzy"]
    (root / "isos.txt").write_text("# languages of a proposed sample\n" + "\n".join(iso_list) + "\n", encoding="utf-8")

    dsd, refd = root / "ds", root / "ref"
    return [
        _cmd("profile", ["profile", "--dataset", dsd, "--registry", registry], [dsd, registry],
             _ignore_earlier(partial(check.check_profile, truths=ds, target=10000, seed=0))),
        _cmd("score_morph", ["score", "--level", "morph", "--dataset", dsd, "--reference", refd, "--registry", registry],
             [dsd, refd, registry],
             _ignore_earlier(partial(check.check_score_morph, n_d=6, n_r=10, width=1.0,
                                     truth_d=_morph_truth(ds, 10000, 0), truth_r=_morph_truth(ref, 10000, 0)))),
        _cmd("score_syn", ["score", "--level", "syn", "--dataset", root / "syn_ds.csv", "--reference", root / "syn_ref.csv"],
             [root / "syn_ds.csv", root / "syn_ref.csv"],
             _ignore_earlier(partial(check.check_score_syn, d=syn_d, r=syn_r, count_zeros=False))),
        _cmd("cwals", ["cwals", "--dataset", root / "morph.csv"], [root / "morph.csv", MORPH_SPECS],
             _ignore_earlier(partial(check.check_cwals, rows=morph, ranges=ranges))),
        _cmd("correlate", ["correlate", "mwl", "c_wals", "--dataset", root / "mwl_cwals.csv"], [root / "mwl_cwals.csv"],
             _ignore_earlier(partial(check.check_correlate, table=table))),
        _cmd("families", ["families", "--dataset", root / "isos.txt", "--registry", registry], [root / "isos.txt", registry],
             _ignore_earlier(partial(check.check_families, iso_list=iso_list, families=families))),
    ]


def corpus_window(root: Path, seed: int) -> list[Command]:
    """score --level morph with the default 10k-token window on corpora
    of 60k-90k tokens, so the window is 11-17% of what is tokenized."""
    rng = random.Random(seed)
    n_d, n_r = 2, 3
    ds, ref = _corpus_pair(root, rng, n_d, n_r, _sizes(60000, 90000, n_d), _sizes(60000, 90000, n_r))
    registry = root / "registry.csv"
    _registry(registry, rng, {**ds, **ref})
    args = ["score", "--level", "morph", "--dataset", root / "ds", "--reference", root / "ref", "--registry", registry]
    fn = partial(check.check_score_morph, n_d=n_d, n_r=n_r, width=1.0,
                 truth_d=_morph_truth(ds, 10000, 0), truth_r=_morph_truth(ref, 10000, 0))
    return [_cmd("score_morph", args, [root / "ds", root / "ref", registry], _ignore_earlier(fn))]


def table_scale(root: Path, seed: int) -> list[Command]:
    """Scoring from profile tables and feature matrices, no text: 2,000
    vs 5,000 languages, mean word lengths over about 1-20 at width 0.01."""
    rng = random.Random(seed)
    n_d, n_r = 2000, 5000
    isos = gen.iso_codes(rng, n_d + n_r)
    rng.shuffle(isos)
    isos_d, isos_r = sorted(isos[:n_d]), sorted(isos[n_d:])
    prof_d, prof_r = root / "profiles_ds.csv", root / "profiles_ref.csv"
    gen.write_profile_table(prof_d, rng, isos_d, 1.0, 14.0, skew=2.0)
    gen.write_profile_table(prof_r, rng, isos_r, 1.0, 20.0, skew=1.0)
    syn_d = gen.write_binary_matrix(root / "syn_ds.csv", rng, isos_d, SYN_FEATURES, [rng.uniform(0.1, 0.6) for _ in SYN_FEATURES])
    syn_r = gen.write_binary_matrix(root / "syn_ref.csv", rng, isos_r, SYN_FEATURES, [rng.uniform(0.05, 0.95) for _ in SYN_FEATURES])

    morph = ["score", "--level", "morph", "--dataset", prof_d, "--reference", prof_r, "--bin-width", "0.01"]
    json_check = partial(check.check_score_morph, n_d=n_d, n_r=n_r, width=0.01)
    syn_files = [root / "syn_ds.csv", root / "syn_ref.csv"]
    return [
        _cmd("score_morph_json", morph + ["--format", "json"], [prof_d, prof_r], _ignore_earlier(json_check)),
        _cmd("score_morph_svg", morph + ["--format", "svg"], [prof_d, prof_r],
             lambda out, earlier: check.check_score_svg(out, earlier["score_morph_json"])),
        _cmd("score_syn_206", ["score", "--level", "syn", "--dataset", syn_files[0], "--reference", syn_files[1], "--syn-dims", "206"],
             syn_files, _ignore_earlier(partial(check.check_score_syn, d=syn_d, r=syn_r, count_zeros=True))),
    ]


WORKLOADS = {
    "fixture_cli": fixture_cli,
    "corpus_window": corpus_window,
    "table_scale": table_scale,
}
