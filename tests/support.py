"""Helpers for driving the CLI, scoring measurement lists and comparing
JSON payloads in tests."""
import json
import math
import subprocess
import sys

from divscore.cli import main
from divscore.diversity import bin_measurements, jmm_score
from divscore.model import Side


def run_main(argv, capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(argv):
    """Run the CLI as a subprocess; returns (exit_code, stdout_bytes, stderr_bytes).

    Used where byte-level output identity matters; everything else goes
    through the faster in-process runner.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "divscore.cli", *argv],
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def jmm(a, b, width):
    """jmm_score of two measurement lists, each binned at ``width``."""
    return jmm_score(bin_measurements(a, width), bin_measurements(b, width))


def side(keys, rows):
    """A side over the row ``keys`` whose i-th language counts in the rows
    ``rows[i]`` names: its cells are one 0/1 byte per key, each read as
    the key or as no row, as a binary matrix's 103-row side reads them."""
    cells = [bytes(key in row for key in keys) for row in rows]
    counts = [sum(key in row for row in rows) for key in keys]
    return Side(keys, counts, cells, [(None, key) for key in keys])


def assert_json_close(actual, expected, tol=1e-12, path="$"):
    """Recursively compare parsed JSON; floats within ``tol``, rest exact."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object, got {type(actual).__name__}"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_json_close(actual[key], expected[key], tol, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected array, got {type(actual).__name__}"
        assert len(actual) == len(expected), f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, tol, f"{path}[{i}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), (
            f"{path}: expected number, got {actual!r}"
        )
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=tol), (
            f"{path}: {actual!r} != {expected!r} (tol {tol})"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def load_json(text):
    return json.loads(text)
