"""Output checks computed apart from the program.

:class:`RecordingProblem` sits between the EDA loop and the problem and
keeps every batch the loop asks to evaluate. After a run, :func:`check_run`
compares the records with what the benchmark recomputes from those batches
using its own objective formulas (``inputs.py``). Each check returns a
message on failure; an empty list means the run is correct.
"""

from __future__ import annotations

import math

import numpy as np
from tneda.experiment import validate_record

TN1_MAX_RELATIVE_ERROR = 0.05  # see README: "Output checks"


class RecordingProblem:
    """Problem proxy that records every string passed to ``evaluate_batch``.

    ``evaluate`` is the wrapped problem's bound ``evaluate_batch``; a traced
    round replaces it with a traced version so recording stays outside the
    span.
    """

    def __init__(self, problem):
        self._problem = problem
        self.evaluate = problem.evaluate_batch
        self.batches: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def evaluate_batch(self, x):
        values = self.evaluate(x)
        self.batches.append(np.array(x, dtype=np.int8))
        self.values.append(np.array(values, dtype=np.float64))
        return values


def recover_order(program_sigma: np.ndarray, input_sigma: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    """The asset order the program chose, read off its reordered covariance.

    Bit i of the program's chain is the input asset whose variance equals
    ``program_sigma[i, i]``; the whole matrix must then match the input
    under that order, or an error message is returned.
    """
    diag = np.diag(input_sigma)
    if np.unique(diag).size != diag.size:
        return None, "input variances are not distinct, asset order is ambiguous"
    order = np.array([np.flatnonzero(diag == v)[0] if np.any(diag == v) else -1 for v in np.diag(program_sigma)])
    if np.any(order < 0) or np.unique(order).size != diag.size:
        return None, "the program's asset order is not a permutation of the input assets"
    if not np.array_equal(program_sigma, input_sigma[np.ix_(order, order)]):
        return None, "the program's covariance is not the input covariance reordered"
    return order, None


def _close(a, b, rtol: float) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))


def check_run(
    records: list[dict],
    recorder: RecordingProblem,
    objective,
    *,
    n_init: int,
    call_budget: int,
    optimum: float | None,
    rtol: float = 0.0,
    kl: bool = False,
    max_relative_error: float | None = None,
) -> list[str]:
    """Check one ``run_single`` result against the recorded evaluations.

    ``objective`` is the benchmark's own formula; ``rtol`` is 0 (exact) for
    integer-valued objectives. ``max_relative_error`` bounds the final gap to
    ``optimum``.
    """
    failures = []
    for record in records:
        try:
            validate_record(record)
        except ValueError as exc:
            failures.append(f"generation {record.get('generation')}: invalid record: {exc}")
    if not records or not recorder.batches:
        return failures + ["the run produced no records or evaluated nothing"]

    strings = np.concatenate(recorder.batches)
    returned = np.concatenate(recorder.values)
    if len({row.tobytes() for row in strings}) != strings.shape[0]:
        failures.append("a string was evaluated twice")
    calls = records[-1]["calls"]
    if calls != strings.shape[0]:
        failures.append(f"last record has {calls} calls but {strings.shape[0]} strings were evaluated")
    if calls > call_budget:
        failures.append(f"{calls} calls exceed the budget of {call_budget}")
    sizes = [b.shape[0] for b in recorder.batches]
    if sizes[0] > n_init:
        failures.append(f"initial population of {sizes[0]} exceeds n_init {n_init}")
    if calls != sizes[0] + sum(r["n_new"] for r in records):
        failures.append("calls differ from the initial population plus the sum of n_new")
    if sizes[1:] != [r["n_new"] for r in records if r["n_new"] > 0]:
        failures.append("evaluated batch sizes differ from the records' n_new")

    recomputed = objective(strings)
    wrong = ~_close(returned, recomputed, rtol)
    if np.any(wrong):
        first = int(np.flatnonzero(wrong)[0])
        failures.append(
            f"{int(wrong.sum())} returned values differ from the objective formula "
            f"(first: {returned[first]!r} vs {recomputed[first]!r})"
        )

    # the batch of generation g is the next unread batch when n_new > 0
    bounds = np.cumsum(sizes)
    batch = 0
    for record in records:
        if record["n_new"] > 0:
            batch += 1
        if batch >= len(bounds):
            break  # counted above as a batch-size mismatch
        best = recomputed[: bounds[batch]].min()
        if not _close(record["best"], best, rtol):
            failures.append(f"generation {record['generation']}: best {record['best']!r} is not the running minimum {best!r}")
            break

    if optimum is not None:
        if recomputed.min() < optimum or min(r["best"] for r in records) < optimum:
            failures.append(f"a value below the optimum {optimum} was reported")
        if max_relative_error is not None:
            gap = (records[-1]["best"] - optimum) / abs(optimum)
            if gap > max_relative_error:
                failures.append(f"final relative error {gap:.4f} exceeds {max_relative_error}")

    if kl:
        for record in records:
            primary, reference, delta = record["kl_primary"], record["kl_reference"], record["kl_delta"]
            finite = all(v is not None and math.isfinite(v) for v in (primary, reference, delta))
            if not finite or primary < 0 or reference < 0 or delta != primary - reference:
                failures.append(
                    f"generation {record['generation']}: KL fields not finite, negative or inconsistent "
                    f"({primary!r}, {reference!r}, {delta!r})"
                )
                break
    return failures


def same_records(a: list[dict], b: list[dict]) -> bool:
    """Equal records once ``wall_time_s`` is dropped (the c08 contract)."""
    strip = lambda records: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in records]  # noqa: E731
    return strip(a) == strip(b)
