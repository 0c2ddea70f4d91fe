"""Shared fixtures and the acceptance-criteria terminal summary."""
import re
from pathlib import Path

import pytest
from hypothesis import settings

# Ten times Hypothesis's default number of examples, for a longer run of
# a chosen property: pytest --hypothesis-profile=thorough <test id>.
# A test whose @settings fixes max_examples keeps its own count.
settings.register_profile("thorough", max_examples=1000)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


# One line per acceptance criterion in the terminal summary, whether the
# run was green or not. Criterion tests are named test_c<NN>_*.
CRITERIA = {
    1: "published-table correlation",
    2: "bundled complexity values",
    3: "randomized brute-force equivalence",
    4: "overlap score properties",
    5: "evenness index properties",
    6: "subsampling rank stability",
    7: "grapheme counting and normalization",
    8: "end-to-end determinism",
    9: "score matrix schema and statement",
}

_CRITERION = re.compile(r"test_acceptance\.py::test_c(?P<num>\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, bool] = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m is None:
                continue
            num = int(m.group("num"))
            outcomes[num] = outcomes.get(num, True) and status == "passed"
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in outcomes:
            verdict = "PASS" if outcomes[num] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"criterion {num} ({CRITERIA[num]}): {verdict}")
