"""Per-row reference for the solution bank's batch path (test use only).

``ReferenceBank`` and ``reference_evaluate_new`` are the bank and the
child-evaluation loop as they were before the batch API: every child is
keyed, checked, banked and looked up one row at a time. The property
tests require the batch path to reproduce them exactly.
"""

from __future__ import annotations

import math

import numpy as np


class ReferenceBank:
    def __init__(self, n_bits: int):
        self.n_bits = n_bits
        self.index: dict[bytes, int] = {}
        self.strings: list[np.ndarray] = []
        self.values: list[float] = []
        self.generations: list[int] = []

    def __len__(self) -> int:
        return len(self.strings)

    def add(self, row, value: float, generation: int) -> bool:
        row = np.asarray(row, dtype=np.int8)
        key = row.tobytes()
        if key in self.index:
            return False
        self.index[key] = len(self.strings)
        self.strings.append(row.copy())
        self.values.append(float(value))
        self.generations.append(generation)
        return True

    def value_of(self, row) -> float | None:
        pos = self.index.get(np.asarray(row, dtype=np.int8).tobytes())
        return None if pos is None else self.values[pos]

    def best_index(self) -> int:
        """First minimum among non-NaN values; the first entry if all are NaN."""
        valid = [pos for pos, value in enumerate(self.values) if not math.isnan(value)]
        return min(valid, key=self.values.__getitem__) if valid else 0


def reference_evaluate_new(problem, bank: ReferenceBank, children, generation: int, budget: int):
    """Returns (per-child values with NaN where unknown, number of new calls)."""
    room = budget - len(bank)
    fresh_rows: list[np.ndarray] = []
    staged: dict[bytes, int] = {}
    for row in children:
        key = row.tobytes()
        if key in bank.index or key in staged:
            continue
        if len(fresh_rows) >= room:
            continue
        staged[key] = len(fresh_rows)
        fresh_rows.append(row)
    if fresh_rows:
        fresh = np.asarray(fresh_rows, dtype=np.int8)
        values = np.asarray(problem.evaluate_batch(fresh), dtype=np.float64)
        for row, value in zip(fresh, values):
            bank.add(row, float(value), generation)
    child_values = np.full(children.shape[0], np.nan)
    for pos, row in enumerate(children):
        known = bank.value_of(row)
        if known is not None:
            child_values[pos] = known
    return child_values, len(fresh_rows)
