#!/usr/bin/env python3
"""divscore benchmark: seeded workloads run through the real CLI.

Every input is generated from ``--seed`` (see gen.py and workloads.py).
Each workload is a closed loop with one client: this process runs the
workload's commands one at a time as ``PYTHONPATH=src python -m
divscore.cli ...`` subprocesses, and starts the next iteration only after
the previous one ends. Every output is checked against the generator's
ground truth (check.py).

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off. With ``--trace 1`` it runs two untraced iterations, then
traced iterations in which each command runs under trace_child.py, and
reports per-layer metrics plus the tracing overhead. The traced output
must equal the untraced CLI output byte for byte.

    python3 bench/run.py --workload corpus_window --seed 1 --seconds 40 --trace 0
    python3 bench/run.py            # every workload, exits 1 if any check fails

The last stdout line of each workload is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

INVOCATION = "PYTHONPATH=src python -m divscore.cli"
CLI = [sys.executable, "-m", "divscore.cli"]
TRACE_CHILD = [sys.executable, "-X", "importtime", str(HERE / "trace_child.py")]
SETUP = [sys.executable, "-c", "import divscore.cli"]
# A fixed stdlib-only child: interpreter start, three imports and a dict
# loop. It runs before and after every timed child, and its wall time
# tells how fast this host runs a fresh Python process at that moment.
CALIBRATE = [sys.executable, "-c", "import csv, json, re\nd = {}\nfor i in range(100_000):\n    d[i % 977] = d.get(i % 977, 0) + i\n"]
# Wall time of CALIBRATE on the reference host, a quiet 2-vCPU Intel Xeon
# VM with CPython 3.11.7. Time metrics are scaled to this host's speed.
CAL_REF_S = 0.070
SETUP_SAMPLES = 3
MIN_ITERATIONS = 2
COMMAND_TIMEOUT_S = 90

END_TO_END = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "cpu_p50_s": "s",
    "input_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "analysis.import_s": "s",
    "ingest.load_corpus_s": "s",
    "ingest.corpus_bytes": "B",
    "ingest.corpus_mb_per_s": "MB/s",
    "ingest.load_profile_table_s": "s",
    "ingest.load_feature_matrix_s": "s",
    "ingest.load_registry_s": "s",
    "ingest.load_numeric_table_s": "s",
    "ingest.load_iso_list_s": "s",
    "ingest.rows": "count",
    "textstats.tokenize_s": "s",
    "textstats.tokens": "count",
    "textstats.tokens_per_s": "1/s",
    "textstats.tokenize_peak_mb": "MB",
    "textstats.sample_s": "s",
    "textstats.measures_s": "s",
    "textstats.profile_s": "s",
    "textstats.window_ratio": "ratio",
    "diversity.bin_s": "s",
    "diversity.align_s": "s",
    "diversity.jmm_score_s": "s",
    "diversity.jmm_syn_s": "s",
    "diversity.ti_s": "s",
    "diversity.bins_emitted": "count",
    "diversity.bins_occupied": "count",
    "diversity.occupied_ratio": "ratio",
    "analysis.attach_gap_s": "s",
    "analysis.serialize_s": "s",
    "analysis.output_bytes": "B",
    "analysis.spearman_s": "s",
    "grammar.load_morph_specs_s": "s",
    "grammar.c_wals_table_s": "s",
    "model.report_to_dict_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    """One finished subprocess with its own resource usage."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = _env()


def spawn(argv: list[str], workdir: Path) -> Child:
    """Run one subprocess to completion and read its CPU time and max-RSS
    with os.wait4, which reports that child alone. (RUSAGE_CHILDREN keeps
    a running maximum over every child reaped so far.)"""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def calibrated(argvs: list[list[str]], workdir: Path) -> tuple[list[Child], list[float]]:
    """Run ``argvs`` one after another with a CALIBRATE child before,
    between and after them. Return the children and, for each, the
    factor that scales its times to the reference host's speed:
    CAL_REF_S over the mean of the two calibration walls around it."""
    cal = [spawn(CALIBRATE, workdir).wall]
    children = []
    for argv in argvs:
        children.append(spawn(argv, workdir))
        cal.append(spawn(CALIBRATE, workdir).wall)
    return children, [2 * CAL_REF_S / (a + b) for a, b in zip(cal, cal[1:])]


def tail(samples: list[float]) -> float:
    """p90 of ``samples`` by linear interpolation. (The highest percentile
    with ten samples beyond it reaches p90 only from 100 samples on; a run
    makes far fewer iterations, and below 20 that rule falls under the
    median.)"""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


@dataclass
class Iteration:
    wall: float
    cpu: float
    ref_wall: float  # wall and cpu scaled to the reference host's speed
    ref_cpu: float
    rss_mb: float
    children: dict[str, Child]


class Run:
    """One benchmark run of one workload: generated inputs, checks and
    failure counts."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        (workdir / "inputs").mkdir()
        self.commands = workloads.WORKLOADS[name](workdir / "inputs", seed)
        self.input_bytes = sum(c.input_bytes for c in self.commands)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, bytes] = {}

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def iteration(self) -> Iteration:
        done, scales = calibrated([CLI + c.args for c in self.commands], self.workdir)
        children = {c.label: child for c, child in zip(self.commands, done)}
        earlier: dict[str, bytes] = {}
        for cmd in self.commands:
            child = children[cmd.label]
            self.attempted += 1
            if child.code != 0:
                problems = [f"exit {child.code}: {child.stderr.decode(errors='replace')[-300:]}"]
            else:
                problems = cmd.check(child.stdout, earlier)
                if self.first.setdefault(cmd.label, child.stdout) != child.stdout:
                    problems.append("stdout differs from the first iteration's")
            if problems:
                self.fail(cmd.label, problems)
            earlier[cmd.label] = child.stdout
        return Iteration(
            wall=sum(c.wall for c in done),
            cpu=sum(c.cpu for c in done),
            ref_wall=sum(c.wall * k for c, k in zip(done, scales)),
            ref_cpu=sum(c.cpu * k for c, k in zip(done, scales)),
            rss_mb=max(c.rss_mb for c in done),
            children=children,
        )

    def traced_iteration(self, index: int, untraced: Iteration) -> tuple[float, list[dict]]:
        """Run every command under trace_child.py; return the iteration's
        wall time, scaled like ``Iteration.ref_wall``, and the children's
        trace payloads."""
        outs = [self.workdir / f"trace-{k}.json" for k in range(len(self.commands))]
        argvs = [TRACE_CHILD + [str(out), self.name, str(index), cmd.label, "--"] + cmd.args
                 for cmd, out in zip(self.commands, outs)]
        done, scales = calibrated(argvs, self.workdir)
        wall, payloads = 0.0, []
        for cmd, out, child, k in zip(self.commands, outs, done, scales):
            self.attempted += 1
            if child.code != 0:
                self.fail(cmd.label, [f"traced run exit {child.code}: {child.stderr.decode(errors='replace')[-300:]}"])
                continue
            payload = json.loads(out.read_text(encoding="utf-8"))
            payload["analysis_import_s"] = _import_time(child.stderr, "divscore.analysis")
            payloads.append(payload)
            wall += (child.wall - payload["probe_s"]) * k
            if payload["exit"] != 0 or payload["stdout"].encode("utf-8") != untraced.children[cmd.label].stdout:
                self.fail(cmd.label, ["traced output differs from the CLI's output on the same inputs"])
        return wall, payloads


def _import_time(stderr: bytes, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(payloads: list[dict]) -> dict[str, float]:
    """Per-layer totals over one traced iteration (all of its commands)."""
    t: Counter = Counter()
    n: Counter = Counter()
    self_s = 0.0
    for p in payloads:
        spans = p["spans"]
        for s in spans:
            t[s["name"]] += s["end"] - s["start"]
            n.update({k: v for k, v in s["counts"].items() if k != "path"})
        for main in (s for s in spans if s["name"] == "cli.main"):
            inner = sum(s["end"] - s["start"] for s in spans if s["parent"] == main["id"])
            self_s += main["end"] - main["start"] - inner
    return {
        "cli.import_s": t["cli.import"],
        "cli.main_s": t["cli.main"],
        "cli.self_s": self_s,
        "analysis.import_s": sum(p["analysis_import_s"] for p in payloads),
        "ingest.load_corpus_s": t["ingest.load_corpus"],
        "ingest.corpus_bytes": n["bytes"],
        "ingest.corpus_mb_per_s": _ratio(n["bytes"] / 1e6, t["ingest.load_corpus"]),
        "ingest.load_profile_table_s": t["ingest.load_profile_table"],
        "ingest.load_feature_matrix_s": t["ingest.load_feature_matrix"],
        "ingest.load_registry_s": t["ingest.load_registry"],
        "ingest.load_numeric_table_s": t["ingest.load_numeric_table"],
        "ingest.load_iso_list_s": t["ingest.load_iso_list"],
        "ingest.rows": n["rows"],
        "textstats.tokenize_s": t["textstats.tokenize"],
        "textstats.tokens": n["tokens"],
        "textstats.tokens_per_s": _ratio(n["tokens"], t["textstats.tokenize"]),
        "textstats.tokenize_peak_mb": max(p["tokenize_peak_bytes"] for p in payloads) / 2**20,
        "textstats.sample_s": t["textstats.sample_contiguous"],
        "textstats.measures_s": t["textstats.mean_word_length"]
        + t["textstats.type_token_ratio"]
        + t["textstats.unigram_entropy"],
        "textstats.profile_s": t["textstats.profile"],
        "textstats.window_ratio": _ratio(n["window_tokens"], n["tokens"]),
        "diversity.bin_s": t["diversity.bin_measurements"],
        "diversity.align_s": t["diversity.align_bins"],
        "diversity.jmm_score_s": t["diversity.jmm_score"],
        "diversity.jmm_syn_s": t["diversity.jmm_syn"],
        "diversity.ti_s": t["diversity.ti_morph"] + t["diversity.ti_syn"],
        "diversity.bins_emitted": n["bins_emitted"],
        "diversity.bins_occupied": n["bins_occupied"],
        "diversity.occupied_ratio": _ratio(n["bins_occupied"], n["bins_emitted"]),
        "analysis.attach_gap_s": t["analysis.attach_gap"],
        "analysis.serialize_s": t["analysis.serialize_report"],
        "analysis.output_bytes": sum(len(p["stdout"].encode("utf-8")) for p in payloads),
        "analysis.spearman_s": t["analysis.spearman"],
        "grammar.load_morph_specs_s": t["grammar.load_morph_specs"],
        "grammar.c_wals_table_s": t["grammar.c_wals_table"],
        "model.report_to_dict_s": t["model.report_to_dict"],
    }


def _loop(seconds: float, minimum: int, step) -> list:
    """Closed loop: call ``step`` until ``minimum`` results exist and one
    more median-length step would overrun ``seconds``."""
    t0 = perf_counter()
    results, walls = [], []
    while len(results) < minimum or perf_counter() - t0 + statistics.median(walls) <= seconds:
        s0 = perf_counter()
        results.append(step(len(results)))
        walls.append(perf_counter() - s0)
    return results


def _times(setup: list[float], wall: list[float], cpu: list[float], input_bytes: int) -> dict[str, float]:
    wall_p50 = statistics.median(wall)
    return {
        "setup_s": statistics.median(setup),
        "wall_p50_s": wall_p50,
        "wall_tail_s": tail(wall),
        "cpu_p50_s": statistics.median(cpu),
        "input_mb_per_s": input_bytes / 1e6 / wall_p50,
    }


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics. Times are scaled to the reference host's speed;
    the unscaled figures are printed beside them."""
    t0 = perf_counter()
    setups, scales = calibrated([SETUP] * SETUP_SAMPLES, run.workdir)
    iters = _loop(seconds - (perf_counter() - t0), MIN_ITERATIONS, lambda i: run.iteration())
    metrics = _times([c.wall * k for c, k in zip(setups, scales)], [it.ref_wall for it in iters],
                     [it.ref_cpu for it in iters], run.input_bytes)
    metrics["peak_rss_mb"] = statistics.median(it.rss_mb for it in iters)
    unscaled = _times([c.wall for c in setups], [it.wall for it in iters], [it.cpu for it in iters], run.input_bytes)
    print(f"wall_tail_s is p90, by linear interpolation, of n={len(iters)} iterations")
    print(f"host speed during set-up: {statistics.median(scales):.3f} times the reference host's")
    for k, v in unscaled.items():
        print(f"unscaled {k} = {v:.6g} {END_TO_END[k]}")
    return metrics


def measure_traced(run: Run, seconds: float, trace_path: Path) -> dict[str, float]:
    t0 = perf_counter()
    untraced = min((run.iteration() for _ in range(2)), key=lambda it: it.ref_wall)
    traced = _loop(seconds - (perf_counter() - t0), 1, lambda i: run.traced_iteration(i, untraced))
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps([s for _, ps in traced for p in ps for s in p["spans"]]), encoding="utf-8")
    per_iter = [layer_metrics(ps) for _, ps in traced if len(ps) == len(run.commands)]
    if not per_iter:
        return {name: 0.0 for name in PER_LAYER}
    metrics = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - untraced.ref_wall
    return metrics


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "regex"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "invocation": INVOCATION,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(name, seed, workdir)
        spawn(SETUP, workdir)  # compiles bytecode and warms the page cache
        if trace:
            metrics = measure_traced(run, seconds, OUT / f"trace-{name}-seed{seed}.json")
            units = PER_LAYER
        else:
            metrics = measure(run, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {name} seed {seed}: {run.attempted} commands, {run.failed} failed, "
          f"fail_ratio {run.failed / run.attempted:g}, input {run.input_bytes} bytes per iteration")
    for p in run.problems:
        print(f"check failed: {p}")
    for k, unit in units.items():
        print(f"{k} = {metrics[k]:.6g} {unit}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so spawn() kills and reaps its child and
    # run_workload() removes its inputs on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "divscore" / "cli.py").is_file():
        print(f"error: no divscore sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
