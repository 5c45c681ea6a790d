"""Objective functions over bit strings, instance files, and exact oracles.

Everything is a minimization problem: maximization objectives (knapsack
value, satisfied clauses) are negated or complemented at the problem
boundary. Evaluation is pure, vectorized over (B, N) batches, and safe to
call concurrently.
"""

from __future__ import annotations

import math

import numpy as np


class ParseError(ValueError):
    """Malformed instance text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Problem:
    """Base: subclasses set ``n_bits`` and implement ``evaluate_batch``."""

    n_bits: int
    optimum: float | None = None

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x) -> float:
        return float(self.evaluate_batch(np.asarray(x)[None, :])[0])

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_bits:
            raise ValueError(f"expected (B, {self.n_bits}) bit array, got {x.shape}")
        return x


class OneMax(Problem):
    """f(x) = -sum(x); optimum -N at the all-ones string."""

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        self.n_bits = n_bits
        self.optimum = -float(n_bits)

    def evaluate_batch(self, x):
        return -self._check(x).sum(axis=1).astype(np.float64)


class DeceptiveTrap(Problem):
    """Concatenated order-4 trap blocks (minimized).

    Within each block of 4 bits with u ones the block score is 4 for
    u = 4 and 3 - u otherwise, summed and negated; local search is pulled
    toward all-zeros blocks while the optimum is all ones.
    """

    BLOCK = 4

    def __init__(self, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        self.n_blocks = n_blocks
        self.n_bits = n_blocks * self.BLOCK
        self.optimum = -float(self.n_bits)

    def evaluate_batch(self, x):
        x = self._check(x)
        units = x.reshape(x.shape[0], self.n_blocks, self.BLOCK).sum(axis=2)
        score = np.where(units == self.BLOCK, float(self.BLOCK), self.BLOCK - 1.0 - units)
        return -score.sum(axis=1)


class PortfolioProblem(Problem):
    """Equal-weighted portfolio variance with soft cardinality bounds.

    For cardinality k = sum(x) within [n_min, n_max] the objective is
    x' Sigma x / k^2; outside, a linear penalty penalty_c * (distance to
    the violated bound).
    """

    def __init__(self, sigma, n_min: int, n_max: int, penalty_c: float = 100.0):
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be square")
        if np.abs(sigma - sigma.T).max() > 1e-9:
            raise ValueError("sigma must be symmetric within 1e-9")
        if not 0 <= n_min <= n_max <= sigma.shape[0]:
            raise ValueError("need 0 <= n_min <= n_max <= N")
        if penalty_c <= 0:
            raise ValueError("penalty_c must be positive")
        self.sigma = sigma
        self.n_bits = sigma.shape[0]
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.penalty_c = float(penalty_c)

    def evaluate_batch(self, x):
        x = self._check(x).astype(np.float64)
        card = x.sum(axis=1)
        quad = x @ self.sigma
        quad *= x
        quad = quad.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            in_range = quad / card**2
        out = np.where(
            card > self.n_max,
            self.penalty_c * (card - self.n_max),
            np.where(card < self.n_min, self.penalty_c * (self.n_min - card), in_range),
        )
        # cardinality 0 inside the bounds (only possible with n_min = 0)
        return np.where((card == 0) & (self.n_min == 0), math.inf, out)


class KnapsackProblem(Problem):
    """0/1 knapsack as minimization: feasible loads score -(packed value).

    Overweight loads score (excess weight) * (1 + total value), which is
    strictly worse than any feasible load.
    """

    def __init__(self, values, weights, capacity: int):
        values = np.asarray(values, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if values.ndim != 1 or values.shape != weights.shape:
            raise ValueError("values and weights must be equal-length vectors")
        if np.any(values <= 0) or np.any(weights <= 0) or capacity <= 0:
            raise ValueError("values, weights and capacity must be positive")
        self.values = values
        self.weights = weights
        self.capacity = int(capacity)
        self.n_bits = values.shape[0]
        self._penalty_scale = 1.0 + float(values.sum())

    def evaluate_batch(self, x):
        x = self._check(x)
        load = x @ self.weights
        worth = x @ self.values
        excess = load - self.capacity
        return np.where(excess <= 0, -worth.astype(np.float64), excess * self._penalty_scale)


class MaxSatProblem(Problem):
    """Count of unsatisfied CNF clauses (0 means satisfied).

    Clauses are padded to equal width w by repeating a literal, which
    leaves clause truth unchanged, and stored literal-major: slot k of all
    m clauses is one row of a (w, m) variable table and of a (w, m, 1)
    int8 table of the values those literals want. ``evaluate_batch`` takes
    whole rows of the transposed batch per slot, so its gathers and
    compares run over contiguous memory. ``is_three_sat`` reports whether
    every clause had exactly three literals.
    """

    def __init__(self, n_vars: int, clauses):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        clause_list = [tuple(int(l) for l in clause) for clause in clauses]
        if not clause_list:
            raise ValueError("need at least one clause")
        for clause in clause_list:
            if len(clause) == 0:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} out of range for {n_vars} variables")
        width = max(len(c) for c in clause_list)
        padded = np.array([c + (c[0],) * (width - len(c)) for c in clause_list], dtype=np.int64)
        self.n_bits = n_vars
        self.clauses = clause_list
        self.is_three_sat = all(len(c) == 3 for c in clause_list)
        self._vars = np.ascontiguousarray(np.abs(padded).T - 1)  # (w, m)
        self._wants = (padded.T > 0).astype(np.int8)[:, :, None]  # (w, m, 1)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def evaluate_batch(self, x):
        xt = np.ascontiguousarray(self._check(x).T)  # (N, B), one variable per row
        if xt.dtype != np.int8:
            # 0 and 1 keep their value; anything else becomes 2, which no literal wants
            xt = np.where(xt == 1, np.int8(1), np.where(xt == 0, np.int8(0), np.int8(2)))
        rows = np.empty((self._vars.shape[1], xt.shape[1]), dtype=np.int8)  # (m, B)
        lit_false = rows.view(np.bool_)
        # mode="clip": the indices are valid, and take buffers ``out`` under mode="raise"
        np.take(xt, self._vars[0], axis=0, out=rows, mode="clip")
        unsat = rows != self._wants[0]  # every literal so far is false
        for vars_k, wants_k in zip(self._vars[1:], self._wants[1:]):
            np.take(xt, vars_k, axis=0, out=rows, mode="clip")
            np.not_equal(rows, wants_k, out=lit_false)
            unsat &= lit_false
        return np.count_nonzero(unsat, axis=0).astype(np.float64)


# --- instance text formats ------------------------------------------------------


def parse_dimacs_cnf(text: str) -> MaxSatProblem:
    """Parse DIMACS CNF: ``c`` comments, ``p cnf V C`` header, 0-terminated clauses.

    Clauses may span lines. Content after the declared clause count is
    rejected except for the conventional ``%`` / ``0`` trailer.
    """
    n_vars = n_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed problem line {line!r}", lineno)
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", lineno) from None
            continue
        if n_vars is None:
            raise ParseError("clause before problem line", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                if not current:
                    if len(clauses) == n_clauses:
                        continue  # lone trailer zero
                    raise ParseError("empty clause", lineno)
                if len(clauses) == n_clauses:
                    raise ParseError(f"more clauses than the declared {n_clauses}", lineno)
                clauses.append(current)
                current = []
            else:
                if abs(lit) > n_vars:
                    raise ParseError(f"literal {lit} exceeds variable count {n_vars}", lineno)
                current.append(lit)
    if n_vars is None:
        raise ParseError("missing problem line")
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != n_clauses:
        raise ParseError(f"expected {n_clauses} clauses, found {len(clauses)}")
    return MaxSatProblem(n_vars, clauses)


def serialize_dimacs_cnf(problem: MaxSatProblem) -> str:
    lines = [f"p cnf {problem.n_bits} {problem.n_clauses}"]
    for clause in problem.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_knapsack(text: str) -> KnapsackProblem:
    """Knapsack instance: first line ``N capacity``, then N ``value weight`` lines."""
    lines = [l.strip() for l in text.splitlines()]
    rows = [(i + 1, l) for i, l in enumerate(lines) if l and not l.startswith("#")]
    if not rows:
        raise ParseError("empty instance")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("expected 'N capacity' header", lineno)
    try:
        n, capacity = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("expected 'N capacity' header", lineno) from None
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} item lines, found {len(rows) - 1}")
    values, weights = [], []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'value weight'", lineno)
        try:
            values.append(int(parts[0]))
            weights.append(int(parts[1]))
        except ValueError:
            raise ParseError("expected integer 'value weight'", lineno) from None
    return KnapsackProblem(values, weights, capacity)


def serialize_knapsack(problem: KnapsackProblem) -> str:
    lines = [f"{problem.n_bits} {problem.capacity}"]
    for v, w in zip(problem.values, problem.weights):
        lines.append(f"{v} {w}")
    return "\n".join(lines) + "\n"


def load_covariance_csv(text: str, mode: str = "covariance") -> np.ndarray:
    """Covariance matrix from CSV.

    ``covariance`` mode expects a square matrix (symmetrized by averaging;
    asymmetry above 1e-6 rejected); ``returns`` mode expects a T x N table
    of observations and computes the sample covariance (T - 1 denominator).
    A non-numeric or non-finite cell raises :class:`ParseError` naming its line.
    """
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ParseError("non-numeric cell", lineno) from None
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite cell", lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"ragged row: expected {width} cells, found {len(row)}", lineno)
        rows.append(row)
    if not rows:
        raise ParseError("empty table")
    table = np.asarray(rows, dtype=np.float64)
    if mode == "covariance":
        if table.shape[0] != table.shape[1]:
            raise ParseError(f"covariance matrix must be square, got {table.shape}")
        if np.abs(table - table.T).max() > 1e-6:
            raise ParseError("matrix asymmetry exceeds 1e-6")
        return 0.5 * (table + table.T)
    if mode == "returns":
        if table.shape[0] < 2:
            raise ParseError("returns mode needs at least two observation rows")
        centered = table - table.mean(axis=0)
        return centered.T @ centered / (table.shape[0] - 1)
    raise ValueError(f"unknown mode {mode!r}")


# --- oracles and instance generators ---------------------------------------------


def brute_force_optimum(problem: Problem, n_max: int = 24) -> tuple[np.ndarray, float]:
    """Exact optimum by full enumeration; ties go to the lexicographically
    smallest string. Refuses dimensions above ``n_max``."""
    n = problem.n_bits
    if n > n_max:
        raise ValueError(f"dimension {n} exceeds the enumeration cap {n_max}")
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    best_bits = None
    best_value = math.inf
    chunk = 1 << min(n, 18)
    for start in range(0, 1 << n, chunk):
        ints = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = ((ints[:, None] >> shifts) & 1).astype(np.int8)
        values = problem.evaluate_batch(bits)
        pos = int(np.argmin(values))
        if values[pos] < best_value:
            best_value = float(values[pos])
            best_bits = bits[pos].copy()
    return best_bits, best_value


def knapsack_optimum_dp(problem: KnapsackProblem) -> float:
    """Exact knapsack optimum (as a minimization objective) by dynamic
    programming over capacities."""
    dp = np.zeros(problem.capacity + 1, dtype=np.int64)
    for value, weight in zip(problem.values, problem.weights):
        if weight <= problem.capacity:
            dp[weight:] = np.maximum(dp[weight:], dp[: problem.capacity + 1 - weight] + value)
    return -float(dp[-1])


def random_covariance(n: int, seed, n_factors: int = 3, scale: float = 0.01) -> np.ndarray:
    """Seeded PSD covariance with factor structure, sized like daily returns."""
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, scale, size=(n, n_factors))
    idiosyncratic = rng.uniform(0.2, 1.0, size=n) * scale**2
    return loadings @ loadings.T + np.diag(idiosyncratic)


def random_knapsack(n: int, seed) -> KnapsackProblem:
    """Seeded instance with capacity at half the total weight."""
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, size=n)
    weights = rng.integers(5, 50, size=n)
    return KnapsackProblem(values, weights, int(weights.sum()) // 2)


def relative_error(value: float, optimum: float) -> float:
    """(f - f*) / |f*|, falling back to the absolute gap when f* ~ 0."""
    if abs(optimum) < 1e-12:
        return float(value - optimum)
    return float((value - optimum) / abs(optimum))
