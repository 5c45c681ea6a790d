"""Seeded benchmark inputs and the benchmark's own objective oracles.

Every instance is drawn from ``numpy.random.default_rng(seed)`` and written
in the text format ``tneda run`` reads. The objective formulas and optima
here are written from the problem definitions, not taken from ``tneda``, so
the output checks do not trust the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KNAPSACK_ITEMS = 30
PORTFOLIO_ASSETS = 40
PORTFOLIO_N_MIN = 8
PORTFOLIO_N_MAX = 12
PORTFOLIO_PENALTY = 100.0
SAT_VARS = 100
SAT_CLAUSES = 430  # clause/variable ratio 4.3, near the 3-SAT threshold


@dataclass(frozen=True)
class Knapsack:
    values: np.ndarray
    weights: np.ndarray
    capacity: int

    def text(self) -> str:
        lines = [f"{self.values.size} {self.capacity}"]
        lines += [f"{v} {w}" for v, w in zip(self.values, self.weights)]
        return "\n".join(lines) + "\n"

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Minus the packed value; overweight loads pay excess * (1 + total value)."""
        x = x.astype(np.int64)
        load = x @ self.weights
        worth = x @ self.values
        excess = load - self.capacity
        penalty = excess * (1 + int(self.values.sum()))
        return np.where(excess <= 0, -worth, penalty).astype(np.float64)

    def optimum(self) -> float:
        """Exact optimum (as a minimum) by dynamic programming over capacity."""
        best = [0] * (self.capacity + 1)
        for value, weight in zip(self.values.tolist(), self.weights.tolist()):
            for c in range(self.capacity, weight - 1, -1):
                best[c] = max(best[c], best[c - weight] + value)
        return -float(best[self.capacity])


@dataclass(frozen=True)
class Portfolio:
    sigma: np.ndarray

    def text(self) -> str:
        return "\n".join(",".join(repr(float(v)) for v in row) for row in self.sigma) + "\n"

    def objective(self, x: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Equal-weight variance with soft cardinality bounds.

        ``x`` indexes assets in the program's chain order: bit i is input
        asset ``order[i]``.
        """
        x = x.astype(np.float64)
        card = x.sum(axis=1)
        sigma = self.sigma[np.ix_(order, order)]
        out = np.empty(x.shape[0])
        for row, (bits, k) in enumerate(zip(x, card)):
            if k > PORTFOLIO_N_MAX:
                out[row] = PORTFOLIO_PENALTY * (k - PORTFOLIO_N_MAX)
            elif k < PORTFOLIO_N_MIN:
                out[row] = PORTFOLIO_PENALTY * (PORTFOLIO_N_MIN - k)
            else:
                chosen = np.flatnonzero(bits)
                out[row] = sigma[np.ix_(chosen, chosen)].sum() / k**2
        return out


@dataclass(frozen=True)
class Cnf:
    n_vars: int
    clauses: np.ndarray  # (m, 3) signed literals, 1-based
    planted: np.ndarray  # the assignment every clause was drawn to satisfy

    def text(self) -> str:
        lines = [f"c planted 3-SAT, {self.n_vars} variables", f"p cnf {self.n_vars} {len(self.clauses)}"]
        lines += [" ".join(str(int(l)) for l in clause) + " 0" for clause in self.clauses]
        return "\n".join(lines) + "\n"

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Number of unsatisfied clauses."""
        var = np.abs(self.clauses) - 1
        wanted = self.clauses > 0
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], 256):  # chunks keep the check out of peak_rss_mb
            true_lit = x[start : start + 256, var] == wanted
            out[start : start + 256] = (~true_lit.any(axis=2)).sum(axis=1)
        return out

    @staticmethod
    def optimum() -> float:
        return 0.0  # the planted assignment satisfies every clause


def knapsack(seed: int) -> Knapsack:
    """30 items, values in [10, 100), weights in [5, 50), capacity half the total weight."""
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, size=KNAPSACK_ITEMS)
    weights = rng.integers(5, 50, size=KNAPSACK_ITEMS)
    return Knapsack(values, weights, int(weights.sum()) // 2)


def portfolio(seed: int) -> Portfolio:
    """40 assets under a 3-factor model sized like daily returns (1% factor loadings)."""
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.01, size=(PORTFOLIO_ASSETS, 3))
    idiosyncratic = rng.uniform(0.2, 1.0, size=PORTFOLIO_ASSETS) * 1e-4
    sigma = loadings @ loadings.T + np.diag(idiosyncratic)
    return Portfolio(0.5 * (sigma + sigma.T))  # exactly symmetric, so parsing keeps it


def planted_cnf(seed: int) -> Cnf:
    """Uniform 3-SAT clauses over distinct variables, kept only if the planted
    assignment satisfies them."""
    rng = np.random.default_rng(seed)
    planted = rng.integers(0, 2, size=SAT_VARS).astype(np.int8)
    clauses = []
    while len(clauses) < SAT_CLAUSES:
        var = rng.choice(SAT_VARS, size=3, replace=False)
        positive = rng.integers(0, 2, size=3).astype(bool)
        if np.any(planted[var] == positive):
            clauses.append(np.where(positive, var + 1, -(var + 1)))
    return Cnf(SAT_VARS, np.array(clauses, dtype=np.int64), planted)
