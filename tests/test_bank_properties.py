"""Property tests for the solution bank's batch path and the loop's call budget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bank_oracle import ReferenceBank, reference_evaluate_new
from tneda.evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    ChainBayesSampler,
    CrossoverSampler,
    EdaConfig,
    GreedyTopK,
    SolutionBank,
    TournamentSelection,
    boltzmann_select,
    generations,
    run_eda,
    top_k_indices,
    top_k_pool,
)
from tneda.experiment import build_solver
from tneda.problems import OneMax

SETTINGS = settings(max_examples=100, deadline=None, database=None)

# few distinct values, so ties are the rule; NaN, infinities and signed zeros included
TIE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 1.0, 2.5])


def bits_of(codes, n_bits: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n_bits)) & 1).astype(np.int8)


class TableProblem:
    """Objective read from a table indexed by the string's integer code."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        self.n_bits = int(self.table.size).bit_length() - 1

    def evaluate_batch(self, x):
        return self.table[np.asarray(x, dtype=np.int64) @ (1 << np.arange(self.n_bits))]


@st.composite
def evaluation_cases(draw):
    n_bits = draw(st.integers(1, 5))
    table = draw(st.lists(TIE_VALUES, min_size=2**n_bits, max_size=2**n_bits))
    batch = st.lists(st.integers(0, 2**n_bits - 1), min_size=0, max_size=24)
    generations = draw(st.lists(batch, min_size=1, max_size=5))
    total = sum(len(g) for g in generations)
    budget = draw(st.integers(0, total + 2))
    return n_bits, table, generations, budget


@SETTINGS
@given(evaluation_cases())
def test_batched_evaluation_matches_per_row_reference(case):
    n_bits, table, generations, budget = case
    problem = TableProblem(table)
    bank, reference = SolutionBank(n_bits, capacity=1), ReferenceBank(n_bits)
    for generation, codes in enumerate(generations):
        children = bits_of(codes, n_bits)
        values, n_new = bank.evaluate_unseen(children, problem.evaluate_batch, budget - len(bank), generation)
        want_values, want_new = reference_evaluate_new(problem, reference, children, generation, budget)
        np.testing.assert_array_equal(values, want_values)
        assert n_new == want_new
        assert len(bank) == len(reference) <= max(budget, 0)
        np.testing.assert_array_equal(bank.strings, np.asarray(reference.strings).reshape(-1, n_bits))
        np.testing.assert_array_equal(bank.values, np.asarray(reference.values, dtype=np.float64))
        np.testing.assert_array_equal(bank.generations, np.asarray(reference.generations, dtype=np.int64))
        if len(bank):
            bits, value = bank.best()
            best = reference.best_index()
            np.testing.assert_array_equal(bits, reference.strings[best])
            np.testing.assert_array_equal(value, reference.values[best])


@st.composite
def packed_cases(draw):
    """Strings of widths on both sides of byte boundaries, repeated within and across batches."""
    n_bits = draw(st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100]))
    codes = draw(st.lists(st.integers(0, 2**n_bits - 1), min_size=1, max_size=8, unique=True))
    # strings that differ only in the last bit, which shares its packed byte with the padding
    codes = list(dict.fromkeys(codes + [code ^ (1 << (n_bits - 1)) for code in codes[:2]]))
    table = draw(st.lists(TIE_VALUES, min_size=len(codes), max_size=len(codes)))
    batches = draw(st.lists(st.lists(st.integers(0, len(codes) - 1), max_size=12), min_size=1, max_size=5))
    limits = [draw(st.integers(0, len(batch))) for batch in batches]
    capacity = draw(st.sampled_from([0, 1, 2, 1024]))
    return n_bits, codes, table, batches, limits, capacity


def int_bits(code: int, n_bits: int) -> list[int]:
    return [(code >> i) & 1 for i in range(n_bits)]


@SETTINGS
@given(packed_cases())
def test_packed_bank_matches_per_row_reference(case):
    n_bits, codes, table, batches, limits, capacity = case
    value_of = {np.asarray(int_bits(c, n_bits), dtype=np.int8).tobytes(): v for c, v in zip(codes, table)}

    class Problem:
        def evaluate_batch(self, rows):
            assert rows.dtype == np.int8 and rows.shape[1] == n_bits
            return np.array([value_of[row.tobytes()] for row in rows], dtype=np.float64)

    problem = Problem()
    bank, reference = SolutionBank(n_bits, capacity=capacity), ReferenceBank(n_bits)
    for generation, (batch, limit) in enumerate(zip(batches, limits)):
        children = np.array([int_bits(codes[i], n_bits) for i in batch], dtype=np.int8).reshape(-1, n_bits)
        values, n_new = bank.evaluate_unseen(children, problem.evaluate_batch, limit, generation)
        want_values, want_new = reference_evaluate_new(problem, reference, children, generation, len(reference) + limit)
        np.testing.assert_array_equal(values, want_values)
        assert n_new == want_new
        strings = np.asarray(reference.strings, dtype=np.int8).reshape(-1, n_bits)
        np.testing.assert_array_equal(bank.strings, strings)
        np.testing.assert_array_equal(bank.rows(np.arange(len(bank))[::-1]), strings[::-1])
        np.testing.assert_array_equal(bank.values, np.asarray(reference.values, dtype=np.float64))
        np.testing.assert_array_equal(bank.generations, np.asarray(reference.generations, dtype=np.int64))
        if len(bank):
            bits, value = bank.best()
            best = reference.best_index()
            assert bits.dtype == np.int8
            np.testing.assert_array_equal(bits, reference.strings[best])
            np.testing.assert_array_equal(value, reference.values[best])


@pytest.mark.parametrize("row, dtype", [
    ([0, 2], np.int8),
    ([0, -1], np.int8),  # 255 as an unsigned byte
    ([0, 256], np.int64),  # 0 once cast to int8
    ([0.5, 1], np.float64),  # 0 once cast to int8
    ([0, 3], np.uint8),
])
def test_non_binary_row_raises_and_banks_nothing(row, dtype):
    bank = SolutionBank(2)
    bank.evaluate_unseen([[0, 0]], lambda rows: [1.0], 1, 0)
    calls = []
    objective = lambda rows: calls.append(rows) or [2.0] * len(rows)  # noqa: E731
    with pytest.raises(ValueError, match="0s and 1s"):
        bank.evaluate_unseen(np.array([[1, 1], row], dtype=dtype), objective, 2, 1)
    assert calls == [] and len(bank) == 1
    values, _ = bank.evaluate_unseen([[1, 1], [0, 0]], objective, 0, 1)
    np.testing.assert_array_equal(values, [math.nan, 1.0])


@pytest.mark.parametrize("preset, call_budget", [
    ("TN1", 1_100),  # the budget bounds the bank
    ("TN1", 60_000),  # the generations bound it
    ("TN3", 60_000),
    ("BN2", 1_300),
    ("GA2", 60_000),
])
def test_generations_never_grow_the_bank(monkeypatch, preset, call_budget):
    def refuse(bank, need):
        raise AssertionError(f"the bank grew to {need} rows")

    monkeypatch.setattr(SolutionBank, "_grow", refuse)
    # up to 1,500 strings, more than a bank of the default capacity holds
    plan = build_solver({"preset": preset, "n_parents": 20, "n_children": 300, "n_init": 300, "generations": 4,
                         "call_budget": call_budget})
    runs = list(generations(OneMax(40), plan.make_model(), plan.selection, plan.cfg, rng=1))
    assert runs and len(runs[-1].bank) <= min(call_budget, 300 + 4 * 300)


@pytest.mark.parametrize("pool_size", [1, 7, 29, 30, 31, 100, None])
def test_boltzmann_selection_draws_as_over_top_k_pool(pool_size):
    # 30 banked strings with tied values: k below, at and above the bank size, and the whole bank
    n_bits, n = 17, 30
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 0.0, 0.5, 2.0], size=n)
    bank = SolutionBank(n_bits, capacity=n)
    bank.evaluate_unseen(bits_of(rng.choice(2**n_bits, size=n, replace=False), n_bits), lambda rows: values, n, 0)
    cfg = EdaConfig(n_parents=50, n_children=50, generations=10)
    selection = BoltzmannSelection(AnnealedSchedule(t0=1.5), pool_size=pool_size)
    parents, temperature, (strings, pool_values) = selection.select(bank, None, 3, cfg, np.random.default_rng(9))
    want_pool = top_k_pool((bank.strings, bank.values), pool_size)
    np.testing.assert_array_equal(strings, want_pool[0])
    np.testing.assert_array_equal(pool_values, want_pool[1])
    np.testing.assert_array_equal(parents, boltzmann_select(want_pool, 50, temperature, np.random.default_rng(9)))


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_top_k_matches_stable_argsort(data):
    values = np.asarray(data.draw(st.lists(TIE_VALUES, max_size=40)), dtype=np.float64)
    k = data.draw(st.integers(0, values.size + 2))
    want = np.argsort(values, kind="stable")[:k]
    np.testing.assert_array_equal(top_k_indices(values, k), want)

    n_bits = 6
    bank = SolutionBank(n_bits)
    bank.evaluate_unseen(bits_of(np.arange(values.size), n_bits), lambda rows: values, values.size, 0)
    if values.size:
        # a pool no larger than k is kept whole, in bank order
        keep = want if k < values.size else np.arange(values.size)
        strings, pool_values = top_k_pool((bank.strings, bank.values), k)
        np.testing.assert_array_equal(strings, bank.strings[keep])
        np.testing.assert_array_equal(pool_values, values[keep])


class CountingProblem:
    """Wraps a problem and fails on any string evaluated a second time."""

    def __init__(self, problem):
        self.problem = problem
        self.n_bits = problem.n_bits
        self.seen: set[bytes] = set()

    def evaluate_batch(self, x):
        x = np.asarray(x, dtype=np.int8)
        for row in x:
            key = row.tobytes()
            assert key not in self.seen, "string evaluated twice"
            self.seen.add(key)
        return self.problem.evaluate_batch(x)


POLICIES = {  # selection, model, elitism
    "boltzmann-annealed": (BoltzmannSelection(AnnealedSchedule()), ChainBayesSampler, False),
    "boltzmann-adaptive-pool": (BoltzmannSelection(AdaptiveGapSchedule(rank=3), pool_size=7), CrossoverSampler, True),
    "tournament": (TournamentSelection(3), CrossoverSampler, True),
    "greedy": (GreedyTopK(5), ChainBayesSampler, True),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=15, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bits=st.integers(3, 9),
    n_children=st.integers(2, 30),
    extra_budget=st.integers(1, 200),
    mutation_rate=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_no_string_evaluated_twice(policy, seed, n_bits, n_children, extra_budget, mutation_rate):
    selection, make_model, elitism = POLICIES[policy]
    problem = CountingProblem(OneMax(n_bits))
    cfg = EdaConfig(
        n_parents=n_children,
        n_children=n_children,
        generations=12,
        mutation_rate=mutation_rate,
        call_budget=n_children + extra_budget,
        elitism=elitism,
    )
    records = run_eda(problem, make_model(), selection, cfg, rng=seed)
    distinct = len(problem.seen)
    assert records[-1].calls == distinct <= cfg.call_budget
    initial = records[0].calls - records[0].n_new
    assert initial + sum(r.n_new for r in records) == distinct
