"""The GA and chain-Bayes operators against their reference forms, bit for bit.

``operator_oracle`` keeps a per-clause MaxSAT count and the earlier forms
of the MaxSAT kernel, the chain-Bayes counts and draw, two-point crossover
and mutation. Each case
compares the bytes of the outputs and, where a generator is used, its
state afterwards, so a later draw of the run cannot tell the two apart.
"""

import numpy as np
import pytest

import operator_oracle as oracle
from tneda.evolve import CrossoverSampler, mutate
from tneda.models import ChainBayes, fit_chain_bayes, sample_chain_bayes
from tneda.problems import MaxSatProblem


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_state(rng, ref_rng):
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def random_cnf(n_vars, n_clauses, max_width, seed):
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.integers(1, max_width + 1))
        variables = rng.integers(1, n_vars + 1, size=width)  # repeats allowed
        signs = rng.choice([-1, 1], size=width)
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return MaxSatProblem(n_vars, clauses)


class TestMaxSatCount:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cnf_matches_per_clause_loop(self, seed):
        problem = random_cnf(12, 40 + 30 * seed, 1 + seed % 4, seed)
        x = np.random.default_rng(100 + seed).integers(0, 2, size=(37, 12), dtype=np.int8)
        expected = oracle.maxsat_per_clause(problem, x)
        assert_same_bits(problem.evaluate_batch(x), expected)
        assert_same_bits(oracle.maxsat_count_nonzero(problem, x), expected)

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 8, 9, 1000])
    @pytest.mark.parametrize(
        "dtype, values",
        [
            (np.int8, [0, 1]),
            (np.int8, [-1, 0, 1, 2]),
            (np.uint8, [0, 1, 2]),
            (np.int64, [-1, 0, 1, 2]),
            (np.float64, [0.0, 0.5, 1.0]),
            (np.float64, [-1.0, 0.0, 1.0, 2.0]),
            (np.bool_, [False, True]),
        ],
    )
    def test_batches_across_byte_boundaries_match_both_references(self, n_rows, dtype, values):
        # strings are packed 8 per byte: batches of 0, 1, 7, 8, 9 and 1000
        # rows fill no byte, part of one, exactly one and a ragged last byte
        for seed in range(3):
            problem = random_cnf(11, 25 + 20 * seed, 5, 50 + seed)
            rng = np.random.default_rng(60 + seed)
            x = rng.choice(np.array(values, dtype=dtype), size=(n_rows, 11))
            expected = oracle.maxsat_per_clause(problem, x)
            assert_same_bits(problem.evaluate_batch(x), expected)
            assert_same_bits(oracle.maxsat_count_nonzero(problem, x), expected)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint8, np.int16])
    def test_values_other_than_0_and_1_satisfy_no_literal(self, dtype):
        problem = random_cnf(9, 120, 3, 7)
        x = np.random.default_rng(8).integers(-1, 4, size=(50, 9)).astype(dtype)
        assert_same_bits(problem.evaluate_batch(x), oracle.maxsat_per_clause(problem, x))

    def test_bool_rows(self):
        problem = random_cnf(8, 60, 3, 9)
        x = np.random.default_rng(10).integers(0, 2, size=(20, 8)).astype(bool)
        assert_same_bits(problem.evaluate_batch(x), oracle.maxsat_per_clause(problem, x))

    def test_more_than_255_unsatisfied_clauses(self):
        # 600 clauses (v) and (v or w) over four variables: the all-zeros row
        # leaves every clause unsatisfied, beyond what a uint8 total holds
        clauses = [[1 + i % 4] if i % 2 else [1 + i % 4, 1 + (i + 1) % 4] for i in range(600)]
        problem = MaxSatProblem(4, clauses)
        x = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], [2, 0, 0, 0]] * 2, dtype=np.int8)
        values = problem.evaluate_batch(x)
        assert values[0] == values[5] == 600.0
        assert_same_bits(values, oracle.maxsat_per_clause(problem, x))
        assert_same_bits(values, oracle.maxsat_count_nonzero(problem, x))

    def test_more_than_65535_unsatisfied_clauses(self):
        # beyond a uint16 total, where the count takes the wide accumulator
        clauses = [[-1, 2], [3]] * 33_000
        problem = MaxSatProblem(3, clauses)
        x = np.array([[1, 0, 0], [0, 0, 0], [1, 1, 1], [1, 0, 1]] * 3, dtype=np.int8)
        values = problem.evaluate_batch(x)
        assert values[0] == values[8] == 66_000.0
        assert_same_bits(values, oracle.maxsat_per_clause(problem, x))
        assert_same_bits(values, oracle.maxsat_count_nonzero(problem, x))


class TestChainBayesCounts:
    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_count_nonzero_form(self, smoothing, seed):
        rng = np.random.default_rng(seed)
        n, width = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        bits = (rng.random((n, width)) < rng.random(width)).astype(np.int8)
        got = fit_chain_bayes(bits, smoothing)
        want = oracle.fit_chain_bayes_count_nonzero(bits, smoothing)
        assert_same_bits(got.p_first, want.p_first)
        assert_same_bits(got.conditionals, want.conditionals)

    def test_wide_accumulator_beyond_65535_rows(self):
        # n >= 2**16 takes int64 sums; all-ones columns 1 and 2 count n
        # ones and n pairs, which a uint16 total would wrap
        n = 2**16 + 5
        bits = np.random.default_rng(3).integers(0, 2, size=(n, 5), dtype=np.int8)
        bits[:, 1:3] = 1
        got = fit_chain_bayes(bits)
        want = oracle.fit_chain_bayes_count_nonzero(bits)
        assert_same_bits(got.p_first, want.p_first)
        assert_same_bits(got.conditionals, want.conditionals)
        assert got.conditionals[1, 1, 1] == (n + 1.0) / (n + 2.0)


def random_chain(n_sites, seed):
    """A fitted chain (even seeds) or one with random tables (odd seeds),
    about a third of whose entries are exactly 0 or 1, so that a site's
    comparison never or always holds."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        rows = int(rng.integers(1, 40))
        bits = (rng.random((rows, n_sites)) < rng.random(n_sites)).astype(np.int8)
        return fit_chain_bayes(bits, [0.0, 0.5, 1.0][seed % 3])
    shape = (2 * n_sites - 1,)  # p(x_1 = 1), then p(x_{i+1} = 1 | x_i = 0) and (... | x_i = 1)
    p1 = np.where(rng.random(shape) < 0.3, rng.integers(0, 2, shape), rng.random(shape))
    cond = np.empty((n_sites - 1, 2, 2))
    cond[:, 1, :] = p1[1:].reshape(n_sites - 1, 2)
    cond[:, 0, :] = 1.0 - cond[:, 1, :]
    return ChainBayes([1.0 - p1[0], p1[0]], cond, 0.0)


class TestChainBayesDraw:
    @pytest.mark.parametrize("size", [None, 1, 7, 8, 9, 1000])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 8, 9, 16, 17, 33, 64, 65, 70])
    def test_matches_gather_form_and_stream(self, n_sites, size):
        for seed in range(4):
            b = random_chain(n_sites, 10 * n_sites + seed)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got = sample_chain_bayes(b, rng, size)
                assert_same_bits(got, oracle.sample_chain_bayes_gather(b, ref_rng, size))
                assert got.flags.c_contiguous
                assert_same_state(rng, ref_rng)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lengths_and_generators(self, seed):
        rng = np.random.default_rng(seed)
        n_sites, size = int(rng.integers(1, 71)), int(rng.integers(1, 300))
        b = random_chain(n_sites, 1000 + seed)
        kind = [np.random.PCG64, np.random.MT19937, np.random.Philox][seed % 3]
        gen, ref_gen = np.random.Generator(kind(seed)), np.random.Generator(kind(seed))
        assert_same_bits(sample_chain_bayes(b, gen, size), oracle.sample_chain_bayes_gather(b, ref_gen, size))
        assert_same_state(gen, ref_gen)
        assert gen.random() == ref_gen.random()

    def test_seed_argument_and_size_errors(self):
        b = random_chain(5, 2)
        assert_same_bits(sample_chain_bayes(b, 17, 12), oracle.sample_chain_bayes_gather(b, 17, 12))
        for size in (0, -3):
            with pytest.raises(ValueError, match="size must be >= 1"):
                sample_chain_bayes(b, 1, size)


class TestCrossoverBits:
    @pytest.mark.parametrize(
        "n_parents, width, n",
        [(2, 7, 2), (2, 1, 9), (3, 10, 5), (10, 30, 10), (11, 30, 40), (40, 100, 7), (1, 6, 4)],
    )
    def test_matches_where_form_and_stream(self, n_parents, width, n):
        parents = np.random.default_rng(n_parents * width).integers(0, 2, size=(n_parents, width), dtype=np.int8)
        sampler = CrossoverSampler()
        sampler.fit(parents, None)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            assert_same_bits(sampler.sample(n, rng), oracle.crossover_where(parents, n, ref_rng))
            assert_same_state(rng, ref_rng)

    def test_parents_are_not_altered(self):
        parents = np.random.default_rng(12).integers(0, 2, size=(8, 16), dtype=np.int8)
        kept = parents.copy()
        sampler = CrossoverSampler()
        sampler.fit(parents, None)
        sampler.sample(30, np.random.default_rng(13))
        assert_same_bits(parents, kept)


class TestMutateBits:
    @pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
    @pytest.mark.parametrize("p_flip", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("shape", [(6,), (40, 9), (0, 5), (3, 0)])
    def test_matches_drawing(self, kind, p_flip, shape):
        x = np.random.default_rng(1).integers(0, 2, size=shape, dtype=np.int8)
        rng, ref_rng = np.random.Generator(kind(21)), np.random.Generator(kind(21))
        got = mutate(x, p_flip, rng)
        assert_same_bits(got, oracle.mutate_drawing(x, p_flip, ref_rng))
        assert_same_state(rng, ref_rng)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("n_draws", [1, 3])
    def test_rate_zero_keeps_a_buffered_32_bit_half(self, n_draws):
        # an odd number of 32-bit draws leaves half of a 64-bit draw buffered
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for g in (rng, ref_rng):
            g.integers(0, 2**32, size=n_draws, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        x = np.random.default_rng(2).integers(0, 2, size=(25, 11), dtype=np.int8)
        assert_same_bits(mutate(x, 0.0, rng), oracle.mutate_drawing(x, 0.0, ref_rng))
        assert_same_state(rng, ref_rng)
        assert_same_bits(
            rng.integers(0, 2**32, size=5, dtype=np.uint32), ref_rng.integers(0, 2**32, size=5, dtype=np.uint32)
        )

    def test_rate_zero_after_a_spent_buffer(self):
        # an even number of 32-bit draws leaves has_uint32 0 but a stale uinteger
        rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)
        for g in (rng, ref_rng):
            g.integers(0, 2**32, size=2, dtype=np.uint32)
        x = np.ones((4, 4), dtype=np.int8)
        assert_same_bits(mutate(x, 0.0, rng), oracle.mutate_drawing(x, 0.0, ref_rng))
        assert_same_state(rng, ref_rng)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    def test_other_input_types(self, dtype):
        x = np.random.default_rng(4).integers(0, 2, size=(12, 7)).astype(dtype)
        for p_flip in (0.0, 0.3):
            rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
            assert_same_bits(mutate(x, p_flip, rng), oracle.mutate_drawing(x, p_flip, ref_rng))
            assert_same_state(rng, ref_rng)
