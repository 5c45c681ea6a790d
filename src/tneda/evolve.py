"""The estimation-of-distribution loop and its operators.

One generation: pick a temperature, select parents (Boltzmann over the
historical bank, or tournament or greedy top-k over the population, the
last generation's evaluated children), fit or update the generative
model, sample children, mutate them, evaluate the ones never seen before,
and record telemetry. The function-call budget counts distinct evaluated
strings; duplicates never consume budget. :func:`generations` yields
each generation as it ends; :func:`run_eda` collects their records.

A plain genetic algorithm fits the same loop with two-point crossover
standing in for the generative model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .models import (
    TrainConfig,
    _as_data,
    fit_chain_bayes,
    sample_chain_bayes,
    train_born_machine,
    train_positive_mps,
)
from .mps import EncodingMode, perfect_sample, random_init

TEMPERATURE_FLOOR = 1e-12  # fallback when every banked objective is equal


class DegenerateBankError(ValueError):
    """All banked objectives are equal; no gap to set a temperature from."""


def top_k_indices(values, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` in O(n) plus a sort of k.

    The k-th smallest value is found by partition; every index below it
    and the first indices equal to it (in array order) are then sorted
    stably, which reproduces the full stable argsort's ties exactly. NaNs
    sort last, as in argsort; a NaN k-th value falls back to the full sort.
    """
    values = np.asarray(values)
    n = values.shape[0]
    k = max(0, min(int(k), n))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(values, k - 1)[k - 1]
    if k == n or np.isnan(kth):
        return np.argsort(values, kind="stable")[:k]
    below = np.flatnonzero(values < kth)
    tied = np.flatnonzero(values == kth)[: k - below.size]
    keep = np.sort(np.concatenate((below, tied)))
    return keep[np.argsort(values[keep], kind="stable")]


def top_k_pool(pool, k: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(strings, values) of the k best entries of a (strings, values) pool.

    Ties go by position; ``k`` ``None`` (or at least the pool size) keeps
    the whole pool unchanged.
    """
    strings, values = _pool_arrays(pool)
    if k is not None and k < strings.shape[0]:
        keep = top_k_indices(values, k)
        strings, values = strings[keep], values[keep]
    return strings, values


class SolutionBank:
    """Deduplicated, insertion-ordered store of evaluated solutions.

    The number of entries equals the number of objective-function calls
    made so far: a string is evaluated at most once per run. Each row is
    stored as its ``np.packbits`` bytes, ceil(N/8) of them, and those bytes
    are its key; every key of a batch is read at once through a void view
    of the packed (B, ceil(N/8)) array. :attr:`strings`, :meth:`rows` and
    :meth:`best` unpack into new int8 arrays.

    Storage for ``capacity`` rows is allocated at once; a bank that fills
    it doubles it. :func:`generations` sizes its bank so that none does.

    The best entry is the first minimum among non-NaN values, or the first
    entry while every value is NaN.
    """

    def __init__(self, n_bits: int, capacity: int = 1024):
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        self.n_bits = int(n_bits)
        self._index: dict[bytes, int] = {}
        self._packed = np.empty((capacity, -(-self.n_bits // 8)), dtype=np.uint8)
        self._values = np.empty(capacity, dtype=np.float64)
        self._generations = np.empty(capacity, dtype=np.int64)
        self._n = 0
        self._best = -1

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        cap = max(self._packed.shape[0], 1)
        while cap < need:
            cap *= 2
        packed = np.empty((cap, self._packed.shape[1]), dtype=np.uint8)
        packed[: self._n] = self._packed[: self._n]
        values = np.empty(cap, dtype=np.float64)
        values[: self._n] = self._values[: self._n]
        gens = np.empty(cap, dtype=np.int64)
        gens[: self._n] = self._generations[: self._n]
        self._packed, self._values, self._generations = packed, values, gens

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        return np.unpackbits(packed, axis=-1, count=self.n_bits).view(np.int8)

    def _append(self, keys: list[bytes], packed: np.ndarray, values: np.ndarray, generation: int) -> None:
        """Bank packed rows whose keys are distinct and not yet banked, in order."""
        start, m = self._n, len(keys)
        self._index.update(zip(keys, range(start, start + m)))
        if start + m > self._packed.shape[0]:
            self._grow(start + m)
        self._packed[start : start + m] = packed
        self._values[start : start + m] = values
        self._generations[start : start + m] = generation
        self._n = start + m
        self._update_best(start, values)

    def evaluate_unseen(self, rows, objective, limit: int, generation: int) -> tuple[np.ndarray, int]:
        """Bank ``objective`` on the unseen rows, then return every row's value.

        The first ``limit`` distinct rows absent from the bank, in row
        order, go to one ``objective`` call as an int8 array and are banked
        in that order, stamped with ``generation``. The batch is packed and
        keyed once; the keys serve the filter, the append and the lookup.
        A row holding anything but 0s and 1s is a ``ValueError``, raised
        before anything is banked.

        Returns (per-row values with NaN where a row is not banked, number
        of rows evaluated).
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_bits:
            raise ValueError(f"expected a (B, {self.n_bits}) bit array, got shape {rows.shape}")
        if rows.dtype == np.int8:  # 0 and 1 are the only int8s at most 1 as unsigned bytes
            binary = not rows.size or np.maximum.reduce(rows.view(np.uint8), axis=None) <= 1
        else:  # checked as given, so 0.5 or 256 is not cast to a bit
            binary = ((rows == 0) | (rows == 1)).all()
            rows = rows.astype(np.int8)
        if not binary:
            raise ValueError("rows must hold only 0s and 1s")
        packed = np.packbits(rows, axis=1)
        keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()
        index = self._index
        fresh_keys = [key for key in dict.fromkeys(keys) if key not in index][: max(limit, 0)]
        if fresh_keys:
            fresh = np.frombuffer(b"".join(fresh_keys), dtype=np.uint8).reshape(len(fresh_keys), -1)
            fresh_values = np.asarray(objective(self._unpack(fresh)), dtype=np.float64).reshape(-1)
            if fresh_values.shape[0] != fresh.shape[0]:
                raise ValueError("need one value per row")
            self._append(fresh_keys, fresh, fresh_values, generation)
        positions = np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
        known = positions >= 0
        values = np.full(rows.shape[0], np.nan)
        values[known] = self._values[positions[known]]
        return values, len(fresh_keys)

    def _update_best(self, start: int, new_values: np.ndarray) -> None:
        valid = np.flatnonzero(~np.isnan(new_values))
        if valid.size == 0:
            if self._best < 0:
                self._best = start
            return
        candidate = int(valid[np.argmin(new_values[valid])])
        current = self._values[self._best] if self._best >= 0 else np.nan
        if np.isnan(current) or new_values[candidate] < current:
            self._best = start + candidate

    @property
    def strings(self) -> np.ndarray:
        """A new (n, N) int8 array of every banked row, in insertion order."""
        return self._unpack(self._packed[: self._n])

    def rows(self, positions) -> np.ndarray:
        """A new (k, N) int8 array of the banked rows at ``positions`` (insertion order)."""
        return self._unpack(self._packed[: self._n][positions])

    @property
    def values(self) -> np.ndarray:
        return self._values[: self._n]

    @property
    def generations(self) -> np.ndarray:
        return self._generations[: self._n]

    def best(self) -> tuple[np.ndarray, float]:
        if self._n == 0:
            raise ValueError("bank is empty")
        return self._unpack(self._packed[self._best]), float(self._values[self._best])


# --- temperatures -------------------------------------------------------------


def annealed_temperature(t0: float, t: int, t_max: int) -> float:
    """T_t = T0^(1 - t/t_max); T0 at t=0, exactly 1 at t=t_max.

    ``t`` beyond ``t_max`` (a run extended past its nominal schedule) is
    clamped, holding the temperature at 1.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(t0 ** (1.0 - min(t, t_max) / t_max))


def adaptive_temperature(values, rank: int = 5, ratio: float = 3.0) -> float:
    """Gap-based temperature: T = (f(x_rank) - f(x_1)) / log(ratio).

    Makes the rank-th best solution 1/ratio as likely as the best under
    Boltzmann weights. If the best value is tied at least ``rank`` deep,
    the best objective not involved in the tie is substituted; if every
    objective is equal a :class:`DegenerateBankError` is raised and the
    caller should fall back to :data:`TEMPERATURE_FLOOR`.
    """
    if rank < 2:
        raise ValueError("rank must be >= 2")
    if ratio <= 1:
        raise ValueError("ratio must be > 1")
    values = np.asarray(values, dtype=float)
    values = np.sort(values[np.isfinite(values)])
    if values.size == 0:
        raise DegenerateBankError("no finite objectives in bank")
    best = values[0]
    gap_value = values[min(rank, values.size) - 1]
    if gap_value == best:
        above = values[values > best]
        if above.size == 0:
            raise DegenerateBankError("all banked objectives are equal")
        gap_value = above[0]
    return float((gap_value - best) / math.log(ratio))


@dataclass(frozen=True)
class AnnealedSchedule:
    """T_t = T0^(1 - t/t_max); T0 defaults to the std of the initial costs."""

    t0: float | None = None
    t_max: int | None = None  # None: resolved to the run's generation count

    def __post_init__(self):
        if self.t0 is not None and not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError("t_max must be >= 1")

    def temperature(self, bank: SolutionBank, generation: int, cfg: EdaConfig) -> float:
        """T at ``generation`` (from 1); T0 and t_max default from the run.

        The default T0 is the ddof-1 standard deviation of the values banked
        at generation 0, or 1.0 when that is not finite and positive; the
        default t_max is ``cfg.generations``.
        """
        t0 = self.t0
        if t0 is None:
            # stamps never decrease, so the generation-0 entries are a prefix
            initial = bank.values[: np.searchsorted(bank.generations, 1)]
            spread = float(np.std(initial, ddof=1)) if initial.size > 1 else 0.0
            t0 = spread if np.isfinite(spread) and spread > 0 else 1.0
        return annealed_temperature(t0, generation - 1, self.t_max or cfg.generations)


@dataclass(frozen=True)
class AdaptiveGapSchedule:
    rank: int = 5
    ratio: float = 3.0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if not self.ratio > 1:
            raise ValueError("ratio must be > 1")

    def temperature(self, bank: SolutionBank, generation: int, cfg: EdaConfig) -> float:
        """The gap temperature of the bank, floored at :data:`TEMPERATURE_FLOOR`."""
        try:
            return max(adaptive_temperature(bank.values, self.rank, self.ratio), TEMPERATURE_FLOOR)
        except DegenerateBankError:
            return TEMPERATURE_FLOOR


# --- selection ----------------------------------------------------------------
#
# A policy's ``select(bank, population, generation, cfg, rng)`` returns
# (parents, temperature, pool): the temperature and the (strings, values)
# pool the parents were drawn from are ``None`` for policies without them.


@dataclass(frozen=True)
class BoltzmannSelection:
    """Draw parents from the bank with probability proportional to e^(-f/T).

    ``pool_size`` restricts the pool to the best k banked solutions
    (recomputed every generation); ``None`` uses every unique solution.
    """

    schedule: AnnealedSchedule | AdaptiveGapSchedule = field(default_factory=AnnealedSchedule)
    pool_size: int | None = None

    def __post_init__(self):
        if self.pool_size is not None and self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")

    def select(self, bank: SolutionBank, population, generation: int, cfg: EdaConfig, rng):
        temperature = self.schedule.temperature(bank, generation, cfg)
        k = self.pool_size
        if k is None or k >= len(bank):  # the whole bank, in bank order, as top_k_pool keeps it
            pool = bank.strings, bank.values
        else:  # top_k_pool's rows, unpacking only those k
            keep = top_k_indices(bank.values, k)
            pool = bank.rows(keep), bank.values[keep]
        return boltzmann_select(pool, cfg.n_parents, temperature, rng), temperature, pool


@dataclass(frozen=True)
class TournamentSelection:
    """Tournaments of ``arity`` over the population (the last generation's children)."""

    arity: int = 3

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")

    def select(self, bank: SolutionBank, population, generation: int, cfg: EdaConfig, rng):
        return tournament_select(population, cfg.n_parents, self.arity, rng), None, None


@dataclass(frozen=True)
class GreedyTopK:
    """Keep the k best of the population (the last generation's children)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def select(self, bank: SolutionBank, population, generation: int, cfg: EdaConfig, rng):
        return greedy_select(population[0], population[1], self.k), None, None


def boltzmann_weights(values, temperature: float) -> np.ndarray:
    """Normalized e^(-f/T) weights, computed with a max-shift for stability."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    values = np.asarray(values, dtype=np.float64)
    finite_min = values[np.isfinite(values)].min() if np.any(np.isfinite(values)) else None
    if finite_min is None:
        raise ValueError("no finite objective in pool")
    w = np.exp(-(values - finite_min) / temperature)
    return w / w.sum()


def boltzmann_select(pool, n: int, temperature: float, rng=None) -> np.ndarray:
    """n iid draws (with replacement) from the Boltzmann distribution.

    Args:
        pool: (strings, values) pair; restrict it with :func:`top_k_pool`
            first to draw from the best k.
        n: number of parents to draw.
        temperature: positive temperature.
        rng: generator or seed.

    Returns:
        (n, N) int8 array of selected strings.
    """
    strings, values = _pool_arrays(pool)
    rng = np.random.default_rng(rng)
    idx = rng.choice(strings.shape[0], size=n, replace=True, p=boltzmann_weights(values, temperature))
    return strings[idx].astype(np.int8, copy=True)


def tournament_select(pool, n: int, arity: int, rng) -> np.ndarray:
    """Each output is the best of ``arity`` uniform draws; ties uniform."""
    strings, values = _pool_arrays(pool)
    rng = np.random.default_rng(rng)
    contenders = rng.integers(0, strings.shape[0], size=(n, arity))
    scores = values[contenders]
    best = scores.min(axis=1, keepdims=True)
    tie_break = np.where(scores == best, rng.random((n, arity)), -1.0)
    winners = contenders[np.arange(n), tie_break.argmax(axis=1)]
    return strings[winners].astype(np.int8, copy=True)


def greedy_select(samples, values, k: int) -> np.ndarray:
    """The k best samples by objective, ties by position; k may exceed the pool."""
    samples = np.asarray(samples)
    values = np.asarray(values, dtype=float)
    if samples.shape[0] == 0:
        raise ValueError("empty sample list")
    return samples[top_k_indices(values, k)].astype(np.int8, copy=True)


def _pool_arrays(pool) -> tuple[np.ndarray, np.ndarray]:
    """(strings, values) arrays of a pair; an empty pool is rejected."""
    strings, values = np.asarray(pool[0]), np.asarray(pool[1], dtype=np.float64)
    if strings.shape[0] == 0:
        raise ValueError("empty selection pool")
    return strings, values


# --- variation ----------------------------------------------------------------


def mutate(x, p_flip: float, rng) -> np.ndarray:
    """Flip each bit independently with probability p_flip; the result is a new int8 array.

    Every call consumes one uniform double per bit. At rate 0 nothing can
    flip, so a ``PCG64`` generator skips those draws with
    ``advance(x.size)`` (one double is one 64-bit draw) and keeps its
    buffered 32-bit half, which ``advance`` would clear: the generator
    ends in the state the draws would have left. Other bit generators draw.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    rng = np.random.default_rng(rng)
    bits = np.asarray(x, dtype=np.int8)
    bit_gen = rng.bit_generator
    if p_flip == 0 and type(bit_gen) is np.random.PCG64:
        state = bit_gen.state
        bit_gen.advance(bits.size)
        bit_gen.state = {**bit_gen.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
        return bits.copy()
    flips = rng.random(bits.shape) < p_flip
    return np.bitwise_xor(bits, flips.view(np.int8))


# --- generative-model adapters -------------------------------------------------


class BornMachineSampler:
    """Born machine trained from a fresh random start each generation, then sampled."""

    def __init__(self, train_cfg: TrainConfig):
        self.train_cfg = train_cfg
        self.model = None

    def fit(self, parents: np.ndarray, rng) -> None:
        self.model = train_born_machine(parents, self.train_cfg, rng=rng)

    def sample(self, n: int, rng) -> np.ndarray:
        return perfect_sample(self.model, rng, size=n)


class PositiveMpsSampler:
    """Direct-positive MPS updated incrementally from generation to generation."""

    def __init__(self, train_cfg: TrainConfig):
        self.train_cfg = train_cfg
        self.model = None

    def fit(self, parents: np.ndarray, rng) -> None:
        if self.model is None:
            width = np.asarray(parents).shape[1]
            self.model = random_init(
                width, self.train_cfg.chi_max, EncodingMode.DIRECT_POSITIVE, rng
            )
        self.model = train_positive_mps(parents, self.train_cfg, init=self.model)

    def sample(self, n: int, rng) -> np.ndarray:
        return perfect_sample(self.model, rng, size=n)


class ChainBayesSampler:
    """Chain Bayesian network refitted by (smoothed) MLE each generation."""

    def __init__(self, smoothing: float = 1.0):
        if not smoothing >= 0:
            raise ValueError("smoothing must be >= 0")
        self.smoothing = smoothing
        self.model = None

    def fit(self, parents: np.ndarray, rng) -> None:
        self.model = fit_chain_bayes(parents, self.smoothing)

    def sample(self, n: int, rng) -> np.ndarray:
        return sample_chain_bayes(self.model, rng, size=n)


class CrossoverSampler:
    """GA recombination in the model slot: shuffle parents, cross pairs.

    Crossover rate 1: every drawn pair is crossed at two cut points, and
    the two children swap the segment between them. A pair swaps by XOR,
    ``d = (a ^ b) & segment`` giving children ``a ^ d`` and ``b ^ d``,
    which is exact on the 0/1 rows ``fit`` accepts.
    """

    def __init__(self):
        self._parents = None
        self.model = None  # no generative model; kept for interface parity

    def fit(self, parents: np.ndarray, rng) -> None:
        """Keep ``parents``, a nonempty (n, N) array of exact 0s and 1s, else ``ValueError``."""
        self._parents = _as_data(parents)

    def sample(self, n: int, rng) -> np.ndarray:
        parents = self._parents
        if parents.shape[0] == 1:
            return np.tile(parents[0], (n, 1))
        width = parents.shape[1]
        span = np.arange(width)
        children = []
        produced = 0
        while produced < n:
            order = rng.permutation(parents.shape[0])
            order = order[: 2 * (order.size // 2)]
            pa = parents[order[0::2]]  # fancy indexing copies, so both cross in place
            pb = parents[order[1::2]]
            cuts = np.sort(rng.integers(0, width + 1, size=(pa.shape[0], 2)), axis=1)
            swap = (span >= cuts[:, :1]) & (span < cuts[:, 1:])
            diff = pa ^ pb
            diff &= swap.view(np.int8)
            pa ^= diff
            pb ^= diff
            children += (pa, pb)
            produced += 2 * pa.shape[0]
        return np.concatenate(children, axis=0)[:n]


# --- the loop -------------------------------------------------------------------


@dataclass(frozen=True)
class EdaConfig:
    """Loop sizes and policies.

    ``n_init`` random solutions (defaults to ``n_children``, below
    ``call_budget``) seed the bank and the population; the run stops when
    the count of distinct evaluations reaches ``call_budget`` or after
    ``generations`` generations, whichever comes first. Each generation's
    children with known values become the population, and ``elitism`` puts
    the best-so-far in place of the worst when none is as good. A run with
    a known optimum may set ``target_objective`` to stop early once the
    best banked objective reaches it.
    """

    n_parents: int
    n_children: int
    generations: int
    mutation_rate: float = 0.0
    call_budget: int = 60_000
    n_init: int | None = None
    elitism: bool = False
    target_objective: float | None = None

    def __post_init__(self):
        if min(self.n_parents, self.n_children, self.generations) < 1:
            raise ValueError("n_parents, n_children and generations must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.call_budget < 1:
            raise ValueError("call_budget must be positive")
        if self.n_init is not None and self.n_init < 1:
            raise ValueError("n_init must be >= 1")
        if self.call_budget <= (self.n_init or self.n_children):
            raise ValueError("call_budget must exceed the initial population size")


@dataclass(frozen=True)
class RunRecord:
    """Per-generation telemetry.

    ``median_objective`` is the median over this generation's children with
    known objective values (new evaluations plus rediscovered bank entries);
    NaN when no child value is known. KL fields are filled only by
    diagnostics-instrumented runs. ``wall_time_s`` is the seconds from the
    run's start, before its initial evaluation, to this record; ``==``
    ignores it, so two runs with the same seed compare equal.
    """

    generation: int
    best_objective: float
    median_objective: float
    calls: int
    n_new: int
    temperature: float | None
    kl_primary: float | None = None
    kl_reference: float | None = None
    kl_delta: float | None = None
    wall_time_s: float = field(default=0.0, compare=False, repr=False)


@dataclass
class GenerationContext:
    """One generation as :func:`generations` yields it, record included.

    ``model`` and ``bank`` are the run's live objects: the next generation
    refits the one and grows the other.
    """

    generation: int
    temperature: float | None
    parents: np.ndarray
    model: object
    bank: SolutionBank
    pool_strings: np.ndarray | None
    pool_values: np.ndarray | None
    fit_seed: int
    record: RunRecord


def generations(problem, model, selection, cfg: EdaConfig, rng):
    """Run the selection / fit / sample / mutate / evaluate loop, one generation per step.

    Args:
        problem: objective with ``n_bits`` and ``evaluate_batch``.
        model: sampler adapter with ``fit(parents, rng)`` and ``sample(n, rng)``.
        selection: policy with ``select(bank, population, generation, cfg,
            rng)`` returning (parents, temperature or ``None``, pool or
            ``None``): Boltzmann, tournament or greedy.
        cfg: loop configuration.
        rng: generator or integer seed; drives everything in the run.

    Yields:
        A :class:`GenerationContext` at the end of every completed
        generation. The run continues when the caller asks for the next.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(rng)
    n_bits = problem.n_bits
    n_init = cfg.n_init or cfg.n_children

    # no run banks more strings than this, so the bank never grows
    bank = SolutionBank(n_bits, capacity=min(cfg.call_budget, n_init + cfg.generations * cfg.n_children))
    init_strings = rng.integers(0, 2, size=(n_init, n_bits), dtype=np.int8)
    bank.evaluate_unseen(init_strings, problem.evaluate_batch, cfg.call_budget, generation=0)

    population = (bank.strings, bank.values.copy())

    for generation in range(1, cfg.generations + 1):
        if len(bank) >= cfg.call_budget:
            break

        parents, temperature, pool = selection.select(bank, population, generation, cfg, rng)
        pool_strings, pool_values = pool or (None, None)

        fit_seed = int(rng.integers(0, 2**63 - 1))
        model.fit(parents, np.random.default_rng(fit_seed))
        raw = model.sample(cfg.n_children, rng)
        children = mutate(raw, cfg.mutation_rate, rng)

        child_values, n_new = bank.evaluate_unseen(
            children, problem.evaluate_batch, cfg.call_budget - len(bank), generation
        )

        best_bits, best_value = bank.best()
        median_value = math.nan
        known = ~np.isnan(child_values)
        if known.any():  # masking copies, so the elite may overwrite in place
            pop_strings, pop_values = children[known], child_values[known]
            median_value = float(np.median(pop_values))
            if cfg.elitism and pop_values.min() > best_value:
                worst = int(pop_values.argmax())
                pop_strings[worst], pop_values[worst] = best_bits, best_value
            population = (pop_strings, pop_values)
        record = RunRecord(
            generation=generation,
            best_objective=best_value,
            median_objective=median_value,
            calls=len(bank),
            n_new=n_new,
            temperature=temperature,
            wall_time_s=time.perf_counter() - started,
        )
        yield GenerationContext(
            generation=generation,
            temperature=temperature,
            parents=parents,
            model=model,
            bank=bank,
            pool_strings=pool_strings,
            pool_values=pool_values,
            fit_seed=fit_seed,
            record=record,
        )

        if cfg.target_objective is not None and best_value <= cfg.target_objective + 1e-9:
            break


def run_eda(problem, model, selection, cfg: EdaConfig, rng) -> list[RunRecord]:
    """The records of a whole run of :func:`generations`, one per completed generation."""
    return [ctx.record for ctx in generations(problem, model, selection, cfg, rng)]
