"""Selection operators, variation operators, and the full EDA loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tneda.evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    ChainBayesSampler,
    CrossoverSampler,
    DegenerateBankError,
    EdaConfig,
    GreedyTopK,
    PositiveMpsSampler,
    SolutionBank,
    TournamentSelection,
    adaptive_temperature,
    annealed_temperature,
    boltzmann_select,
    boltzmann_weights,
    greedy_select,
    generations,
    mutate,
    run_eda,
    top_k_indices,
    top_k_pool,
    tournament_select,
)
from tneda.models import TrainConfig
from tneda.problems import OneMax, random_knapsack


def table_objective(table: dict):
    """Objective reading each row's value from ``table``, keyed by the row's bit tuple."""
    return lambda rows: np.array([table[tuple(int(b) for b in row)] for row in rows], dtype=float)


def make_bank(values, n_bits=4, rng_seed=0):
    """One random distinct string per value, the i-th banked at generation i."""
    rng = np.random.default_rng(rng_seed)
    bank = SolutionBank(n_bits)
    for gen, value in enumerate(values):
        while not bank.evaluate_unseen(
            rng.integers(0, 2, size=(1, n_bits), dtype=np.int8), lambda rows: [value], 1, gen
        )[1]:
            pass
    return bank


class TestSolutionBank:
    def test_deduplicates(self):
        bank = SolutionBank(3)
        values, n_new = bank.evaluate_unseen([[0, 1, 0], [0, 1, 0]], table_objective({(0, 1, 0): 1.5}), 10, 0)
        assert n_new == 1
        np.testing.assert_array_equal(values, [1.5, 1.5])
        values, n_new = bank.evaluate_unseen([[0, 1, 0]], table_objective({(0, 1, 0): 2.5}), 10, 1)
        assert n_new == 0
        assert len(bank) == 1
        np.testing.assert_array_equal(values, [1.5])

    def test_best_and_contains(self):
        bank = SolutionBank(2)
        bank.evaluate_unseen([[0, 0], [1, 1]], table_objective({(0, 0): 3.0, (1, 1): -1.0}), 10, 0)
        bits, value = bank.best()
        np.testing.assert_array_equal(bits, [1, 1])
        assert value == -1.0
        # a zero limit only looks rows up: NaN marks a row the bank does not hold
        values, n_new = bank.evaluate_unseen([[0, 0], [1, 0]], table_objective({}), 0, 1)
        assert n_new == 0
        np.testing.assert_array_equal(values, [3.0, math.nan])

    def test_top_indices_ties_by_first_seen(self):
        bank = SolutionBank(2)
        objective = table_objective({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0})
        bank.evaluate_unseen([[0, 0], [0, 1]], objective, 10, 0)
        bank.evaluate_unseen([[1, 0]], objective, 10, 1)
        np.testing.assert_array_equal(top_k_indices(bank.values, 2), [1, 2])

    def test_growth_preserves_entries(self):
        bank = SolutionBank(6, capacity=2)
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 2, size=(40, 6), dtype=np.int8)
        for i, row in enumerate(np.unique(rows, axis=0)):
            bank.evaluate_unseen(row[None, :], lambda fresh, v=float(i): [v], 1, 0)
        assert len(bank) == np.unique(rows, axis=0).shape[0]
        np.testing.assert_array_equal(bank.values, np.arange(len(bank), dtype=float))

    def test_grows_from_zero_capacity(self):
        bank = SolutionBank(2, capacity=0)
        objective = table_objective({(0, 0): 3.0, (0, 1): 2.0, (1, 0): 1.0})
        assert bank.evaluate_unseen([[0, 0], [0, 1], [1, 0]], objective, 10, 0)[1] == 3
        np.testing.assert_array_equal(bank.values, [3.0, 2.0, 1.0])

    def test_strings_and_rows_are_new_arrays(self):
        bank = SolutionBank(9)
        bank.evaluate_unseen([[0] * 9, [1] * 9], lambda rows: [1.0, 2.0], 10, 0)
        strings, rows, (bits, _) = bank.strings, bank.rows([1]), bank.best()
        strings[:], rows[:], bits[:] = 1 - strings, 0, 1
        np.testing.assert_array_equal(bank.strings, [[0] * 9, [1] * 9])

    def test_nan_does_not_pin_best(self):
        bank = SolutionBank(2)
        objective = table_objective({(0, 0): math.nan, (1, 1): -5.0, (0, 1): math.nan, (1, 0): -2.0})
        bank.evaluate_unseen([[0, 0]], objective, 10, 0)
        bits, value = bank.best()
        np.testing.assert_array_equal(bits, [0, 0])
        assert math.isnan(value)
        bank.evaluate_unseen([[1, 1]], objective, 10, 0)
        bits, value = bank.best()
        np.testing.assert_array_equal(bits, [1, 1])
        assert value == -5.0
        bank.evaluate_unseen([[0, 1]], objective, 10, 1)
        bank.evaluate_unseen([[1, 0]], objective, 10, 1)
        assert bank.best()[1] == -5.0

    def test_nan_does_not_pin_best_in_batch(self):
        bank = SolutionBank(2)
        objective = table_objective({(0, 0): math.nan, (1, 1): 4.0, (0, 1): math.nan, (1, 0): math.inf})
        bank.evaluate_unseen([[0, 0], [1, 1], [0, 1]], objective, 10, 0)
        np.testing.assert_array_equal(bank.best()[0], [1, 1])
        bank.evaluate_unseen([[1, 0]], objective, 10, 1)
        assert bank.best()[1] == 4.0

    def test_all_nan_best_is_first_entry(self):
        bank = SolutionBank(2)
        bank.evaluate_unseen([[1, 0], [0, 1]], table_objective({(1, 0): math.nan, (0, 1): math.nan}), 10, 0)
        np.testing.assert_array_equal(bank.best()[0], [1, 0])

    def test_batch_best_is_first_strict_minimum(self):
        bank = SolutionBank(3)
        objective = table_objective({(0, 0, 0): 1.0, (0, 0, 1): 1.0, (0, 1, 0): 0.5, (0, 1, 1): 0.5, (1, 0, 0): 0.5})
        bank.evaluate_unseen([[0, 0, 0]], objective, 10, 0)
        bank.evaluate_unseen([[0, 0, 1], [0, 1, 0], [0, 1, 1]], objective, 10, 1)
        np.testing.assert_array_equal(bank.best()[0], [0, 1, 0])
        bank.evaluate_unseen([[1, 0, 0]], objective, 10, 2)
        np.testing.assert_array_equal(bank.best()[0], [0, 1, 0])

    def test_evaluate_unseen_skips_banked_and_repeated_rows(self):
        bank = SolutionBank(3)
        table = table_objective({(1, 1, 1): 9.0, (0, 0, 1): 1.0, (1, 0, 0): 4.0})
        seen = []

        def objective(rows):
            seen.append(rows.copy())
            return table(rows)

        bank.evaluate_unseen([[1, 1, 1]], objective, 10, 0)
        values, n_new = bank.evaluate_unseen([[0, 0, 1], [1, 1, 1], [0, 0, 1], [1, 0, 0]], objective, 10, 5)
        assert n_new == 2
        np.testing.assert_array_equal(seen[1], [[0, 0, 1], [1, 0, 0]])  # one call, first-seen order
        np.testing.assert_array_equal(values, [1.0, 9.0, 1.0, 4.0])
        np.testing.assert_array_equal(bank.strings, [[1, 1, 1], [0, 0, 1], [1, 0, 0]])
        np.testing.assert_array_equal(bank.values, [9.0, 1.0, 4.0])
        np.testing.assert_array_equal(bank.generations, [0, 5, 5])

    def test_evaluate_unseen_returns_every_rows_value(self):
        bank = SolutionBank(2)
        objective = table_objective({(1, 1): 1.0, (0, 1): 2.0})
        bank.evaluate_unseen([[1, 1], [0, 1]], objective, 10, 0)
        values, n_new = bank.evaluate_unseen([[0, 1], [0, 0], [1, 1], [0, 1]], objective, 0, 1)
        assert n_new == 0
        np.testing.assert_array_equal(values, [2.0, math.nan, 1.0, 2.0])
        values, n_new = bank.evaluate_unseen(np.empty((0, 2), dtype=np.int8), objective, 10, 1)
        assert values.shape == (0,) and n_new == 0

    def test_unseen_keeps_first_occurrences_up_to_limit(self):
        rows = [[1, 1], [0, 0], [1, 1], [0, 1], [1, 0]]
        objective = table_objective({(0, 0): 0.0, (1, 1): 1.0, (0, 1): 2.0, (1, 0): 3.0})
        for limit, want in ((5, [[1, 1], [0, 1], [1, 0]]), (2, [[1, 1], [0, 1]]), (0, []), (-3, [])):
            bank = SolutionBank(2)
            bank.evaluate_unseen([[0, 0]], objective, 1, 0)
            _, n_new = bank.evaluate_unseen(rows, objective, limit, 1)
            assert n_new == len(want)
            np.testing.assert_array_equal(bank.strings[1:], np.reshape(want, (-1, 2)))

    def test_batch_methods_reject_wrong_width(self):
        bank = SolutionBank(3)
        objective = table_objective({(0, 1, 1): 1.0})
        with pytest.raises(ValueError):
            bank.evaluate_unseen([[0, 1]], objective, 10, 0)
        with pytest.raises(ValueError):
            bank.evaluate_unseen([0, 1, 1], objective, 10, 0)
        with pytest.raises(ValueError):
            bank.evaluate_unseen([[0, 1, 1]], lambda rows: [1.0, 2.0], 10, 0)
        assert len(bank) == 0


class TestAnnealedTemperature:
    def test_endpoints(self):
        assert annealed_temperature(7.3, 0, 50) == pytest.approx(7.3)
        assert annealed_temperature(7.3, 50, 50) == pytest.approx(1.0)

    def test_square_root_at_midpoint(self):
        assert annealed_temperature(9.0, 30, 60) == pytest.approx(3.0)

    def test_clamps_beyond_schedule(self):
        assert annealed_temperature(5.0, 80, 50) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            annealed_temperature(0.0, 1, 10)
        with pytest.raises(ValueError):
            annealed_temperature(1.0, -1, 10)


class TestAdaptiveTemperature:
    def test_direct_formula(self):
        t = adaptive_temperature(np.array([0.0, 0.2, 0.4, 0.9, 1.0, 2.0]), rank=5, ratio=3.0)
        assert t == pytest.approx(1.0 / math.log(3.0))

    def test_five_way_tie_uses_next_distinct(self):
        t = adaptive_temperature(np.array([0.0] * 5 + [2.0]), rank=5, ratio=3.0)
        assert t == pytest.approx(2.0 / math.log(3.0))

    def test_partial_tie_uses_next_distinct(self):
        t = adaptive_temperature(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 9.0]), rank=5, ratio=3.0)
        assert t == pytest.approx(0.5 / math.log(3.0))

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateBankError):
            adaptive_temperature(np.full(10, 4.0), rank=5, ratio=3.0)

    def test_accepts_bank(self):
        # the schedule hands the bank's values to the gap formula
        bank = make_bank([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        expected = 4.0 / math.log(3.0)
        assert adaptive_temperature(bank.values, 5, 3.0) == pytest.approx(expected)
        assert AdaptiveGapSchedule(5, 3.0).temperature(bank, 1, None) == pytest.approx(expected)


class TestBoltzmannSelection:
    def test_weights_log3_gap(self):
        w = boltzmann_weights(np.array([0.0, math.log(3.0)]), 1.0)
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_weights_shift_invariant(self):
        f = np.array([1.0, 3.0, 0.5])
        np.testing.assert_allclose(boltzmann_weights(f, 0.7), boltzmann_weights(f + 123.4, 0.7))

    def test_scaling_objective_equals_scaling_temperature(self):
        f = np.array([1.0, 3.0, 0.5])
        np.testing.assert_allclose(boltzmann_weights(3.0 * f, 3.0 * 0.7), boltzmann_weights(f, 0.7))

    def test_infinite_temperature_uniform(self):
        bank = make_bank([0.0, 5.0, 10.0, 20.0], n_bits=5)
        picks = boltzmann_select((bank.strings, bank.values), 50_000, 1e12, np.random.default_rng(0))
        keys = [row.tobytes() for row in bank.strings]
        counts = np.array([sum(row.tobytes() == k for row in picks) for k in keys])
        expected = 50_000 / 4
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.99, df=3)

    def test_matches_analytic_softmax(self):
        bank = make_bank([0.0, 0.35, 1.1], n_bits=6)
        picks = boltzmann_select((bank.strings, bank.values), 1_000_000, 0.5, np.random.default_rng(3))
        keys = [row.tobytes() for row in bank.strings]
        counts = {k: 0 for k in keys}
        for row in picks:
            counts[row.tobytes()] += 1
        freqs = np.array([counts[k] for k in keys]) / 1_000_000
        np.testing.assert_allclose(freqs, boltzmann_weights(bank.values, 0.5), atol=0.01)

    def test_pool_restriction(self):
        bank = make_bank([5.0, 1.0, 3.0, 0.0], n_bits=5)
        pool = top_k_pool((bank.strings, bank.values), 2)
        picks = boltzmann_select(pool, 2000, 1e9, rng=np.random.default_rng(1))
        allowed = {bank.strings[1].tobytes(), bank.strings[3].tobytes()}
        assert all(row.tobytes() in allowed for row in picks)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            boltzmann_select((np.empty((0, 3), np.int8), np.empty(0)), 5, 1.0, np.random.default_rng(0))


class TestTournament:
    def test_arity_one_is_uniform(self):
        strings = np.eye(4, dtype=np.int8)
        values = np.arange(4.0)
        picks = tournament_select((strings, values), 40_000, 1, np.random.default_rng(0))
        counts = picks.sum(axis=0)  # each string is a distinct one-hot
        stat = ((counts - 10_000.0) ** 2 / 10_000.0).sum()
        assert stat < stats.chi2.ppf(0.99, df=3)

    def test_best_of_three_from_two(self):
        strings = np.array([[0, 0], [1, 1]], dtype=np.int8)
        values = np.array([0.0, 1.0])
        picks = tournament_select((strings, values), 100_000, 3, np.random.default_rng(5))
        freq_best = (picks.sum(axis=1) == 0).mean()
        assert freq_best == pytest.approx(7.0 / 8.0, abs=0.005)

    def test_monotone_transform_invariance(self):
        rng_values = np.random.default_rng(7)
        strings = rng_values.integers(0, 2, size=(20, 6), dtype=np.int8)
        values = rng_values.normal(size=20)
        a = tournament_select((strings, values), 500, 3, np.random.default_rng(42))
        b = tournament_select((strings, np.exp(values)), 500, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_tie_break_uniform(self):
        strings = np.array([[0, 0], [1, 1]], dtype=np.int8)
        values = np.array([1.0, 1.0])
        picks = tournament_select((strings, values), 50_000, 2, np.random.default_rng(2))
        share = (picks.sum(axis=1) == 0).mean()
        assert share == pytest.approx(0.5, abs=0.01)

    def test_large_arity_hits_analytic_bound(self):
        # distinct objectives: P(best selected) = 1 - (1 - 1/P)^arity exactly
        strings = np.eye(4, dtype=np.int8)
        values = np.array([0.0, 1.0, 2.0, 3.0])
        picks = tournament_select((strings, values), 100_000, 6, np.random.default_rng(3))
        freq_best = (picks[:, 0] == 1).mean()
        expected = 1.0 - (1.0 - 1.0 / 4.0) ** 6
        assert freq_best == pytest.approx(expected, abs=0.005)
        assert freq_best >= expected - 0.005


class TestGreedySelect:
    def test_full_pool_identity(self):
        strings = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
        values = np.array([3.0, 1.0, 2.0])
        picks = greedy_select(strings, values, 3)
        assert {row.tobytes() for row in picks} == {row.tobytes() for row in strings}

    def test_k_one_is_argmin(self):
        strings = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
        picks = greedy_select(strings, np.array([3.0, 1.0, 2.0]), 1)
        np.testing.assert_array_equal(picks, [[0, 1]])

    def test_k_beyond_pool_returns_all(self):
        strings = np.array([[1, 1]], dtype=np.int8)
        assert greedy_select(strings, np.array([0.0]), 10).shape == (1, 2)

    def test_ties_by_position(self):
        strings = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
        picks = greedy_select(strings, np.array([1.0, 1.0, 0.0]), 2)
        np.testing.assert_array_equal(picks, [[1, 0], [0, 0]])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        strings = rng.integers(0, 2, size=(15, 5), dtype=np.int8)
        values = rng.normal(size=15)
        np.testing.assert_array_equal(
            greedy_select(strings, values, 6), greedy_select(strings, np.exp(values), 6)
        )


class TestMutate:
    def test_zero_rate_identity(self):
        x = np.array([0, 1, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(mutate(x, 0.0, np.random.default_rng(0)), x)

    def test_full_rate_complement(self):
        x = np.array([0, 1, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(mutate(x, 1.0, np.random.default_rng(0)), 1 - x)

    def test_mean_flip_count(self):
        x = np.zeros((100_000, 100), dtype=np.int8)
        flipped = mutate(x, 0.01, np.random.default_rng(4))
        assert flipped.sum() / 100_000 == pytest.approx(1.0, abs=0.03)

    def test_composition_matches_single_rate(self):
        p1, p2 = 0.3, 0.25
        q = p1 + p2 - 2 * p1 * p2
        base = np.zeros((40_000, 16), dtype=np.int8)
        rng = np.random.default_rng(9)
        composed = mutate(mutate(base, p1, rng), p2, rng)
        assert composed.mean() == pytest.approx(q, abs=0.003)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            mutate(np.zeros(4, dtype=np.int8), 1.4, np.random.default_rng(0))


class _ForcedCuts:
    """Stand-in rng for CrossoverSampler: parents paired in order, every
    pair cut at the same fixed points."""

    def __init__(self, lo, hi):
        self.cuts = (lo, hi)

    def permutation(self, n):
        return np.arange(n)

    def integers(self, low, high, size):
        return np.tile(self.cuts, (size[0], 1))


class TestCrossover:
    def test_forced_cut_points(self):
        a = np.array([0, 0, 0, 0, 0, 0, 0], dtype=np.int8)
        b = np.array([1, 1, 1, 1, 1, 1, 1], dtype=np.int8)
        sampler = CrossoverSampler()
        sampler.fit(np.stack([a, b]), None)
        c1, c2 = sampler.sample(2, _ForcedCuts(2, 5))
        np.testing.assert_array_equal(c1, [0, 0, 1, 1, 1, 0, 0])
        np.testing.assert_array_equal(c2, [1, 1, 0, 0, 0, 1, 1])

    def test_equal_cuts_copy_parents(self):
        rng = np.random.default_rng(0)
        parents = rng.integers(0, 2, size=(2, 8), dtype=np.int8)
        sampler = CrossoverSampler()
        sampler.fit(parents, None)
        for cut in (0, 3, 8):
            children = sampler.sample(2, _ForcedCuts(cut, cut))
            np.testing.assert_array_equal(children, parents)

    def test_allele_conservation(self):
        rng = np.random.default_rng(1)
        parents = rng.integers(0, 2, size=(2, 20), dtype=np.int8)
        sampler = CrossoverSampler()
        sampler.fit(parents, None)
        children = sampler.sample(200, rng)
        for pair in zip(children[0::2], children[1::2]):
            np.testing.assert_array_equal(
                np.sort(np.stack(pair), axis=0), np.sort(parents, axis=0)
            )

    def test_sampler_swaps_one_segment(self):
        # Parents 0...0 and 1...1: a pair's children are complements, and one
        # of them is the swapped segment's indicator, a single run of ones.
        def run_of_ones(child):
            ones = np.flatnonzero(child)
            if ones.size == 0:
                return (0, 0)
            return (int(ones[0]), int(ones[-1]) + 1) if ones[-1] - ones[0] + 1 == ones.size else None

        n = 5
        sampler = CrossoverSampler()
        sampler.fit(np.stack([np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]), None)
        children = sampler.sample(600, np.random.default_rng(10))
        segments = set()
        for first, second in zip(children[0::2], children[1::2]):
            np.testing.assert_array_equal(first, 1 - second)
            runs = {run_of_ones(first), run_of_ones(second)} - {None}
            assert runs, "neither child is a single run of ones"
            segments |= runs
        # every segment [i, j) with i < j is drawn
        assert segments >= {(i, j) for i in range(n) for j in range(i + 1, n + 1)}

    def test_sampler_preserves_column_multisets(self):
        rng = np.random.default_rng(11)
        parents = rng.integers(0, 2, size=(10, 7), dtype=np.int8)
        sampler = CrossoverSampler()
        sampler.fit(parents, rng)
        children = sampler.sample(10, rng)
        np.testing.assert_array_equal(np.sort(children, axis=0), np.sort(parents, axis=0))


class _ConstantSampler:
    """Always emits the same string; models a collapsed generative model."""

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=np.int8)
        self.model = None

    def fit(self, parents, rng):
        pass

    def sample(self, n, rng):
        return np.tile(self.bits, (n, 1))


def quick_config(**overrides):
    base = dict(
        n_parents=60,
        n_children=60,
        generations=25,
        mutation_rate=0.02,
        call_budget=2000,
        n_init=60,
    )
    base.update(overrides)
    return EdaConfig(**base)


class _CountingOneMax(OneMax):
    """OneMax that counts its ``evaluate_batch`` calls."""

    def __init__(self, n_bits):
        super().__init__(n_bits)
        self.batches = 0

    def evaluate_batch(self, x):
        self.batches += 1
        return super().evaluate_batch(x)


class TestGenerations:
    def test_yields_each_generation_after_its_evaluation(self):
        # 40 bits: every generation has unseen children, so each evaluates once
        problem = _CountingOneMax(40)
        steps = generations(problem, ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()),
                            quick_config(generations=4), rng=9)
        for g in range(1, 5):
            ctx = next(steps)
            assert (ctx.generation, problem.batches) == (g, g + 1)
        with pytest.raises(StopIteration):
            next(steps)

    def test_wall_time_increases_and_is_ignored_by_equality(self):
        problem = random_knapsack(12, seed=1)
        run = lambda: run_eda(problem, ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()),  # noqa: E731
                              quick_config(generations=6), rng=4)
        first, second = run(), run()
        for records in (first, second):
            wall = [r.wall_time_s for r in records]
            assert 0 < wall[0] and all(b > a for a, b in zip(wall, wall[1:]))
        assert first == second
        assert first[0] == replace(first[0], wall_time_s=first[0].wall_time_s + 1.0)


class TestRunEda:
    def test_born_machine_solves_onemax(self):
        problem = OneMax(12)
        model = BornMachineSampler(TrainConfig(learning_rate=0.15, chi_max=2))
        selection = BoltzmannSelection(AnnealedSchedule())
        records = run_eda(problem, model, selection, quick_config(), rng=1)
        assert records[-1].best_objective == problem.optimum

    def test_chain_bayes_solves_onemax(self):
        problem = OneMax(12)
        records = run_eda(
            problem, ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()),
            quick_config(), rng=2,
        )
        assert records[-1].best_objective == problem.optimum

    def test_incremental_greedy_loop_runs(self):
        problem = OneMax(10)
        cfg = quick_config(
            n_parents=10,
            n_children=50,
            n_init=50,
            mutation_rate=0.0,
        )
        model = PositiveMpsSampler(TrainConfig(learning_rate=0.15, chi_max=2))
        records = run_eda(problem, model, GreedyTopK(10), cfg, rng=3)
        assert records
        assert records[-1].best_objective <= -8.0

    def test_ga_with_tournament_runs(self):
        problem = random_knapsack(16, seed=0)
        cfg = quick_config(
            mutation_rate=0.0,
            elitism=True,
        )
        records = run_eda(problem, CrossoverSampler(), TournamentSelection(3), cfg, rng=4)
        best = [r.best_objective for r in records]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_budget_respected_and_calls_nondecreasing(self):
        problem = OneMax(12)
        cfg = quick_config(call_budget=500, mutation_rate=0.3)
        records = run_eda(
            problem, ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()), cfg, rng=5
        )
        calls = [r.calls for r in records]
        assert all(b >= a for a, b in zip(calls, calls[1:]))
        assert calls[-1] <= 500

    def test_best_so_far_nonincreasing(self):
        problem = random_knapsack(14, seed=2)
        records = run_eda(
            problem, ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()),
            quick_config(), rng=6,
        )
        best = [r.best_objective for r in records]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_collapsed_model_without_mutation_stalls(self):
        problem = OneMax(8)
        cfg = quick_config(n_init=20, n_parents=20, n_children=20, mutation_rate=0.0,
                           generations=10, call_budget=1000)
        records = run_eda(
            problem, _ConstantSampler([1, 0, 1, 0, 1, 0, 1, 0]),
            BoltzmannSelection(AnnealedSchedule()), cfg, rng=7,
        )
        assert records[1].n_new == 0
        assert records[-1].calls == records[1].calls

    def test_bitwise_reproducible(self):
        problem = random_knapsack(12, seed=1)

        def one_run():
            model = BornMachineSampler(TrainConfig(learning_rate=0.15, chi_max=2))
            return run_eda(
                problem, model, BoltzmannSelection(AnnealedSchedule()),
                quick_config(generations=8), rng=11,
            )

        assert one_run() == one_run()

    def test_adaptive_schedule_runs(self):
        problem = OneMax(10)
        selection = BoltzmannSelection(AdaptiveGapSchedule(rank=5, ratio=3.0))
        records = run_eda(problem, ChainBayesSampler(), selection, quick_config(), rng=8)
        assert all(r.temperature > 0 for r in records)

    def test_budget_must_exceed_init(self):
        with pytest.raises(ValueError):
            run_eda(
                OneMax(6), ChainBayesSampler(), BoltzmannSelection(AnnealedSchedule()),
                quick_config(call_budget=60, n_init=60), rng=0,
            )
