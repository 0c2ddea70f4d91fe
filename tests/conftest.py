"""Shared fixtures and the acceptance-criteria terminal summary."""
import re
from pathlib import Path

import pytest
from hypothesis import is_hypothesis_test, settings

# Ten times Hypothesis's default number of examples, for the longer run of
# the properties marked thorough:
#     pytest -m thorough --hypothesis-profile=thorough
settings.register_profile("thorough", max_examples=1000)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "thorough: a Hypothesis property CI also runs at 1,000 examples"
    )


def pytest_collection_modifyitems(config, items):
    """Fail the run on a thorough test that the profile cannot lengthen:
    one that is not a Hypothesis test, or whose @settings fixes
    max_examples (a count other than the loaded profile's)."""
    wanted = settings.default.max_examples
    bad = []
    for item in items:
        if item.get_closest_marker("thorough") is None:
            continue
        if not is_hypothesis_test(item.obj):
            bad.append(f"{item.nodeid}: not a Hypothesis test")
        elif item.obj._hypothesis_internal_use_settings.max_examples != wanted:
            bad.append(f"{item.nodeid}: @settings fixes max_examples")
    if bad:
        raise pytest.UsageError("thorough tests:\n" + "\n".join(bad))


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
