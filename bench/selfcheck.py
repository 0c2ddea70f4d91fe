#!/usr/bin/env python3
"""Self-check of the benchmark itself.

1. The generator is byte-deterministic per seed, and the seed matters.
2. BENCHMARK.json names exactly the metrics run.py reports.
3. The checker passes the real CLI's outputs and flags corrupted copies
   of each, and a rerun whose stdout changed counts as a failure.

    python3 bench/selfcheck.py      # exit 0 when every check holds
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def generated(name: str, seed: int, root: Path) -> dict[str, str]:
    root.mkdir(parents=True)
    workloads.WORKLOADS[name](root, seed)
    return digests(root)


def _json_edit(edit):
    def corrupt(out: bytes) -> bytes:
        payload = json.loads(out)
        edit(payload)
        return json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"

    return corrupt


def _nudge_row(p):
    """Change one dataset weight and keep that row's min/max consistent."""
    row = next(r for r in p["jmm"]["per_bin"] if r["dataset"] > 0)
    row["dataset"] += 0.5
    row["min"], row["max"] = min(row["dataset"], row["reference"]), max(row["dataset"], row["reference"])


# label -> corruptions of its stdout that the checker must flag
CORRUPTIONS = {
    "profile": [
        _json_edit(lambda p: p["profiles"][0].update(token_count=p["profiles"][0]["token_count"] - 1)),
        _json_edit(lambda p: p["profiles"][-1].update(offset=p["profiles"][-1]["offset"] + 1)),
        _json_edit(lambda p: p["profiles"][1].update(mwl=p["profiles"][1]["mwl"] * (1 + 1e-9))),
    ],
    "score_morph": [
        _json_edit(lambda p: p["jmm"].update(value=p["jmm"]["value"] + 1e-9)),
        _json_edit(lambda p: p["jmm"]["per_bin"][0].update(min=p["jmm"]["per_bin"][0]["min"] + 1.0)),
        _json_edit(_nudge_row),
    ],
    "score_syn": [
        _json_edit(lambda p: p["jmm"].update(value=p["jmm"]["value"] * (1 - 1e-9))),
        _json_edit(_nudge_row),
    ],
    "cwals": [_json_edit(lambda p: p["c_wals"][0].update(c_wals=p["c_wals"][0]["c_wals"] + 1e-6))],
    "correlate": [_json_edit(lambda p: p.update(rho=p["rho"] - 1e-6))],
    "families": [_json_edit(lambda p: p.update(family_count=p["family_count"] + 1))],
    "score_morph_json": [_json_edit(lambda p: p["jmm"].update(value=p["jmm"]["value"] + 1e-9))],
    "score_morph_svg": [lambda out: out.replace(b"<title>jmm_morph = 0.", b"<title>jmm_morph = 0.0")],
    "score_syn_206": [_json_edit(_nudge_row)],
}


def check_outputs(name: str, workdir: Path) -> list[str]:
    """Run one iteration of ``name`` through the CLI; every output must
    pass, every corruption must fail, and a changed rerun must fail."""
    errors = []
    r = run.Run(name, 3, workdir)
    it = r.iteration()
    if r.failed:
        errors.append(f"{name}: real CLI output flagged: {r.problems}")
    earlier = {label: child.stdout for label, child in it.children.items()}
    for cmd in r.commands:
        out = earlier[cmd.label]
        bad = [out[: len(out) // 2]] + [c(out) for c in CORRUPTIONS[cmd.label]]
        for i, corrupted in enumerate(bad):
            if corrupted == out or not cmd.check(corrupted, earlier):
                errors.append(f"{name}: corruption {i} of {cmd.label} not flagged")
    label = r.commands[0].label
    r.first[label] = r.first[label] + b" "
    failed = r.failed
    r.iteration()
    if r.failed != failed + 1:
        errors.append(f"{name}: a rerun with different stdout was not flagged")
    return errors


def main() -> int:
    errors = []
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            a = generated(name, 7, work / name / "a")
            if a != generated(name, 7, work / name / "b"):
                errors.append(f"{name}: same seed wrote different files")
            if a == generated(name, 8, work / name / "c"):
                errors.append(f"{name}: a different seed wrote identical files")

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != names:
                errors.append(f"BENCHMARK.json {key} {listed} != run.py {names}")
        if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
            errors.append("BENCHMARK.json workloads differ from workloads.py")

        for name in ("fixture_cli", "table_scale"):
            workdir = work / f"run-{name}"
            workdir.mkdir(parents=True)
            errors += check_outputs(name, workdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
