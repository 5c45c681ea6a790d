"""Reference forms of the non-tensor-network operators (test use only).

``maxsat_per_clause`` counts unsatisfied clauses one clause at a time, and
``maxsat_count_nonzero`` is the literal-major int8 kernel as it was with
``np.count_nonzero`` as its column count, building its variable and wanted
value tables from ``problem.clauses``. ``fit_chain_bayes_count_nonzero``,
``crossover_where`` and ``mutate_drawing`` are the chain-Bayes fit,
two-point crossover and mutation as they were before the narrow-integer
counts, the XOR swap and the draw-free rate-0 path, and
``sample_chain_bayes_gather`` is the chain sampler as it was before the
bit-packed draw: one int8 byte per bit, each site comparing against the
conditional its previous bit gathers. The library must reproduce them bit
for bit, generator state included.
"""

from __future__ import annotations

import numpy as np

from tneda.models import ChainBayes, _as_data


def maxsat_per_clause(problem, x) -> np.ndarray:
    """Unsatisfied clauses per row: a literal holds where its variable is exactly 1 (or exactly 0 if negated)."""
    x = np.asarray(x)
    unsat = np.zeros(x.shape[0], dtype=np.int64)
    for clause in problem.clauses:
        holds = np.zeros(x.shape[0], dtype=bool)
        for lit in clause:
            holds |= x[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        unsat += ~holds
    return unsat.astype(np.float64)


def maxsat_count_nonzero(problem, x) -> np.ndarray:
    width = max(len(c) for c in problem.clauses)
    padded = np.array([c + (c[0],) * (width - len(c)) for c in problem.clauses], dtype=np.int64)
    variables = np.ascontiguousarray(np.abs(padded).T - 1)  # (w, m)
    wants = (padded.T > 0).astype(np.int8)[:, :, None]  # (w, m, 1)
    xt = np.ascontiguousarray(np.asarray(x).T)
    if xt.dtype != np.int8:
        xt = np.where(xt == 1, np.int8(1), np.where(xt == 0, np.int8(0), np.int8(2)))
    rows = np.empty((variables.shape[1], xt.shape[1]), dtype=np.int8)
    lit_false = rows.view(np.bool_)
    np.take(xt, variables[0], axis=0, out=rows, mode="clip")
    unsat = rows != wants[0]
    for vars_k, wants_k in zip(variables[1:], wants[1:]):
        np.take(xt, vars_k, axis=0, out=rows, mode="clip")
        np.not_equal(rows, wants_k, out=lit_false)
        unsat &= lit_false
    return np.count_nonzero(unsat, axis=0).astype(np.float64)


def fit_chain_bayes_count_nonzero(data, smoothing: float = 1.0) -> ChainBayes:
    bits = _as_data(data)
    n, width = bits.shape
    ones_first = bits[:, 0].sum()
    p_first = np.array([n - ones_first + smoothing, ones_first + smoothing], dtype=np.float64)
    p_first /= n + 2.0 * smoothing

    cond = np.empty((width - 1, 2, 2))
    on = bits == 1
    ones = np.count_nonzero(on, axis=0).astype(np.float64)
    n_11 = np.count_nonzero(on[:, :-1] & on[:, 1:], axis=0).astype(np.float64)
    ones_prev, ones_next = ones[:-1], ones[1:]
    counts = ((n - ones_prev, ones_next - n_11), (ones_prev, n_11))
    for b, (n_b, n_b1) in enumerate(counts):
        denom = n_b + 2.0 * smoothing
        with np.errstate(invalid="ignore", divide="ignore"):
            p1 = np.where(denom > 0, (n_b1 + smoothing) / denom, 0.5)
        cond[:, 1, b] = p1
        cond[:, 0, b] = 1.0 - p1
    return ChainBayes(p_first, cond, smoothing)


def sample_chain_bayes_gather(b: ChainBayes, rng, size: int | None = None) -> np.ndarray:
    """Ancestral sampling along the chain."""
    rng = np.random.default_rng(rng)
    batch = 1 if size is None else int(size)
    if batch < 1:
        raise ValueError("size must be >= 1")
    # one draw in site-major order is the same stream as one draw per site
    u = rng.random((b.n_sites, batch))
    bits_t = np.empty((b.n_sites, batch), dtype=np.int8)
    np.less(u[0], b.p_first[1], out=bits_t[0])
    for i, p1_given in enumerate(b.conditionals[:, 1, :]):
        np.less(u[i + 1], p1_given[bits_t[i]], out=bits_t[i + 1])
    bits = np.ascontiguousarray(bits_t.T)
    return bits[0] if size is None else bits


def crossover_where(parents, n: int, rng) -> np.ndarray:
    parents = np.asarray(parents, dtype=np.int8)
    if parents.shape[0] == 1:
        return np.tile(parents[0], (n, 1))
    width = parents.shape[1]
    children = []
    produced = 0
    while produced < n:
        order = rng.permutation(parents.shape[0])
        order = order[: 2 * (order.size // 2)]
        pa = parents[order[0::2]]
        pb = parents[order[1::2]]
        cuts = np.sort(rng.integers(0, width + 1, size=(pa.shape[0], 2)), axis=1)
        span = np.arange(width)
        swap = (span >= cuts[:, :1]) & (span < cuts[:, 1:])
        children.append(np.where(swap, pb, pa))
        children.append(np.where(swap, pa, pb))
        produced += 2 * pa.shape[0]
    return np.concatenate(children, axis=0)[:n].astype(np.int8)


def mutate_drawing(x, p_flip: float, rng) -> np.ndarray:
    bits = np.asarray(x, dtype=np.int8)
    flips = (rng.random(bits.shape) < p_flip).astype(np.int8)
    return np.bitwise_xor(bits, flips)
