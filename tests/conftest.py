"""Hypothesis profiles, and one pass/fail line per acceptance criterion after the run.

``tier1``, the default, derandomizes every property test and keeps no
example database, so each run draws the same examples and gives the same
outcome. ``HYPOTHESIS_PROFILE=explore`` draws at random with ten times each
test's own ``max_examples``; pin what it finds with ``@example``.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(_PROFILE)

_acceptance_outcomes: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    if _PROFILE != "explore":
        return
    # the items of a parametrized test share one function: scale it once
    for test in {getattr(item, "function", None) for item in items}:
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:  # a test's own @settings override any profile
            test._hypothesis_internal_use_settings = settings(own, max_examples=10 * own.max_examples)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL':4s}  {name}")
