"""The benchmark's output checks must reject a faulty program.

A short tn3-knapsack round runs through a problem proxy that alters one
returned value, and through one that evaluates a string it has already
evaluated and hands the result back as new. Both runs must be reported as
not correct; the same round without a fault must pass.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SHORT = workloads.Workload(
    "tn3-knapsack",
    "knapsack",
    ({"preset": "TN3", "generations": 20, "n_init": 100, "call_budget": 60_000},),
)


class AlterOneValue(checks.RecordingProblem):
    """Adds 1 to the first value of the second evaluated batch."""

    def __init__(self, problem):
        super().__init__(problem)
        evaluate = self.evaluate

        def altered(x):
            values = np.array(evaluate(x), dtype=np.float64)
            if len(self.batches) == 1:
                values[0] += 1.0
            return values

        self.evaluate = altered


class RepeatOneString(checks.RecordingProblem):
    """Evaluates an already evaluated string in place of the second batch's first row."""

    def evaluate_batch(self, x):
        if len(self.batches) == 1:
            x = np.array(x, dtype=np.int8)
            x[0] = self.batches[0][0]
        return super().evaluate_batch(x)


def run_short(monkeypatch, tmp_path, recorder=None):
    monkeypatch.setitem(workloads.WORKLOADS, "tn3-knapsack", SHORT)
    if recorder is not None:
        monkeypatch.setattr(checks, "RecordingProblem", recorder)
    return workloads.run_workload("tn3-knapsack", seed=3, seconds=0.01, trace=False, work_dir=tmp_path)


def test_unaltered_round_passes(monkeypatch, tmp_path):
    result = run_short(monkeypatch, tmp_path)
    assert result.correct, result.failures
    assert (result.attempted, result.failed) == (1, 0)


@pytest.mark.parametrize(
    "recorder, message",
    [
        (AlterOneValue, "returned values differ from the objective formula"),
        (RepeatOneString, "a string was evaluated twice"),
    ],
)
def test_faulty_round_is_reported(monkeypatch, tmp_path, recorder, message):
    result = run_short(monkeypatch, tmp_path, recorder)
    assert not result.correct
    assert any(message in failure for failure in result.failures), result.failures
