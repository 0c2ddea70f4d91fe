"""Traced run of one CLI command in a fresh interpreter.

Times ``import divscore.cli``, then wraps the package's public functions
(wherever a module has bound them) in spans and calls ``cli.main`` with
the command's arguments, capturing its stdout. Each call is timed from
outside, so the program runs unchanged. Spans stay in memory and are
written with the captured stdout to OUT as JSON when the command ends.

    PYTHONPATH=src python -X importtime bench/trace_child.py OUT WORKLOAD ITERATION LABEL -- ARGS...

Run with ``-X importtime`` so the parent can read the cumulative import
time of ``divscore.analysis`` from stderr. The memory probe runs after
the command and reports its own duration, so the parent can leave it out
of the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tracemalloc
from time import perf_counter


class Tracer:
    """Nested spans recorded in memory."""

    def __init__(self, workload: str, iteration: int, command: str) -> None:
        self.tags = {"workload": workload, "iteration": iteration, "command": command}
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **self.tags,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counts"].update(count(result, args))
            return result

        return traced


def _bins(report, args) -> dict:
    rows = report.per_bin or ()
    return {"bins_emitted": len(rows), "bins_occupied": sum(1 for r in rows if r.max_weight > 0)}


# (module, function, counts of one call) in the order the CLI reaches them
PROBES = [
    ("ingest", "load_registry", lambda r, a: {"rows": len(r)}),
    ("ingest", "load_corpus", lambda r, a: {"bytes": os.path.getsize(a[0]), "path": str(a[0])}),
    ("ingest", "load_profile_table", lambda r, a: {"rows": len(r)}),
    ("ingest", "load_feature_matrix", lambda r, a: {"rows": r[0].n_languages}),
    ("ingest", "load_numeric_table", lambda r, a: {"rows": len(r[1])}),
    ("ingest", "load_iso_list", lambda r, a: {"rows": len(r)}),
    ("textstats", "profile", None),
    ("textstats", "tokenize", lambda r, a: {"tokens": len(r)}),
    ("textstats", "sample_contiguous", lambda r, a: {"window_tokens": len(r[0])}),
    ("textstats", "mean_word_length", None),
    ("textstats", "type_token_ratio", None),
    ("textstats", "unigram_entropy", None),
    ("diversity", "bin_measurements", None),
    ("diversity", "align_bins", None),
    ("diversity", "jmm_score", _bins),
    ("diversity", "jmm_syn", None),
    ("diversity", "ti_morph", None),
    ("diversity", "ti_syn", None),
    ("analysis", "attach_gap", None),
    ("analysis", "serialize_report", None),
    ("analysis", "spearman", None),
    ("grammar", "load_morph_specs", None),
    ("grammar", "c_wals_table", None),
]


def install(tracer: Tracer) -> dict:
    """Replace every binding of each probed function in the loaded
    ``divscore`` modules with a traced wrapper; return the originals."""
    modules = [m for n, m in sys.modules.items() if n == "divscore" or n.startswith("divscore.")]
    originals = {}
    for mod_name, fn_name, count in PROBES:
        orig = getattr(sys.modules.get(f"divscore.{mod_name}"), fn_name, None)
        if orig is None:
            continue
        originals[fn_name] = orig
        traced = tracer.wrap(f"{mod_name}.{fn_name}", orig, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, traced)
    report_cls = sys.modules["divscore.model"].DiversityReport
    report_cls.to_dict = tracer.wrap("model.report_to_dict", report_cls.to_dict, None)
    return originals


def tokenize_peak_bytes(originals: dict, spans: list[dict]) -> int:
    """Peak memory traced while tokenizing the largest corpus the command
    loaded, input text excluded. Measured after the timed call."""
    loads = [s for s in spans if s["name"] == "ingest.load_corpus"]
    if not loads or "tokenize" not in originals:
        return 0
    path = max(loads, key=lambda s: s["counts"]["bytes"])["counts"]["path"]
    text = originals["load_corpus"](path, os.path.basename(path)[:-4]).text
    tracemalloc.start()
    try:
        originals["tokenize"](text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    out_path, workload, iteration, label = argv[:4]
    cli_args = argv[argv.index("--") + 1 :]
    tracer = Tracer(workload, int(iteration), label)
    with tracer.span("cli.import"):
        import divscore.cli
    originals = install(tracer)
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        code = divscore.cli.main(cli_args)
    t0 = perf_counter()
    peak = tokenize_peak_bytes(originals, tracer.spans)
    payload = {
        "exit": code,
        "stdout": buf.getvalue(),
        "spans": tracer.spans,
        "tokenize_peak_bytes": peak,
        "probe_s": perf_counter() - t0,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
