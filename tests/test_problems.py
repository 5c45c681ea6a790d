"""Objective and parser tests, each against an independent oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tneda.problems import (
    DeceptiveTrap,
    KnapsackProblem,
    MaxSatProblem,
    OneMax,
    ParseError,
    PortfolioProblem,
    brute_force_optimum,
    knapsack_optimum_dp,
    load_covariance_csv,
    parse_dimacs_cnf,
    parse_knapsack,
    random_covariance,
    random_knapsack,
    relative_error,
    serialize_dimacs_cnf,
    serialize_knapsack,
)


def all_bitstrings(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)


def count_unsatisfied(row, clauses) -> int:
    """Per-clause reference: a literal l holds when bit |l| is 1 for l > 0, 0 for l < 0."""
    unsat = 0
    for clause in clauses:
        ok = False
        for lit in clause:
            truth = bool(row[abs(lit) - 1])
            if (lit > 0) == truth:
                ok = True
                break
        unsat += 0 if ok else 1
    return unsat


@st.composite
def cnf_batches(draw):
    """A CNF with clause widths 1-5 (repeated and complementary literals
    allowed) and a 0-5 row batch in one of several dtypes and layouts."""
    n_vars = draw(st.integers(1, 8))
    literal = st.integers(1, n_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), min_size=1, max_size=12))
    n_rows = draw(st.integers(0, 5))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n_rows * n_vars, max_size=n_rows * n_vars)))
    x = bits.reshape(n_rows, n_vars).astype(draw(st.sampled_from([np.int8, np.int64, np.bool_])))
    layout = draw(st.sampled_from(["contiguous", "column slice", "transpose"]))
    if layout == "column slice":
        wide = np.zeros((n_rows, 2 * n_vars + 1), dtype=x.dtype)
        wide[:, 1::2] = x
        x = wide[:, 1::2]
    elif layout == "transpose":
        x = np.ascontiguousarray(x.T).T
    return n_vars, clauses, x


class TestPortfolio:
    def test_identity_sigma_in_range(self):
        p = PortfolioProblem(np.eye(10), n_min=2, n_max=6, penalty_c=100.0)
        x = np.zeros(10, dtype=np.int8)
        x[:4] = 1
        assert p.evaluate(x) == pytest.approx(1.0 / 4.0)

    def test_below_range_penalty(self):
        p = PortfolioProblem(np.eye(40), n_min=20, n_max=30, penalty_c=100.0)
        x = np.zeros(40, dtype=np.int8)
        x[:18] = 1
        assert p.evaluate(x) == pytest.approx(200.0)

    def test_above_range_penalty(self):
        p = PortfolioProblem(np.eye(10), n_min=2, n_max=4, penalty_c=100.0)
        assert p.evaluate(np.ones(10, dtype=np.int8)) == pytest.approx(600.0)

    def test_matches_dense_oracle(self):
        sigma = random_covariance(8, seed=4)
        p = PortfolioProblem(sigma, n_min=2, n_max=5, penalty_c=100.0)
        for bits in all_bitstrings(8):
            k = int(bits.sum())
            if 2 <= k <= 5:
                expected = sum(
                    sigma[i, j] * bits[i] * bits[j] for i in range(8) for j in range(8)
                ) / k**2
            elif k > 5:
                expected = 100.0 * (k - 5)
            else:
                expected = 100.0 * (2 - k)
            assert p.evaluate(bits) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 40])
    def test_batch_matches_einsum_form(self, n):
        rng = np.random.default_rng(n)
        sigma = random_covariance(n, seed=n)
        p = PortfolioProblem(sigma, n_min=1, n_max=n, penalty_c=100.0)
        x = rng.integers(0, 2, size=(500, n), dtype=np.int8)
        x[:, 0] = 1  # keep every row in range, so each value is the quadratic form
        xf = x.astype(np.float64)
        expected = np.einsum("bi,ij,bj->b", xf, sigma, xf, optimize=True) / xf.sum(axis=1) ** 2
        got = p.evaluate_batch(x)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_all_zero_never_divides(self):
        p = PortfolioProblem(np.eye(6), n_min=1, n_max=3, penalty_c=50.0)
        assert p.evaluate(np.zeros(6, dtype=np.int8)) == pytest.approx(50.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        sigma = random_covariance(7, seed=1)
        perm = rng.permutation(7)
        p = PortfolioProblem(sigma, 2, 4)
        q = PortfolioProblem(sigma[np.ix_(perm, perm)], 2, 4)
        for bits in all_bitstrings(7)[::5]:
            assert p.evaluate(bits) == pytest.approx(q.evaluate(bits[perm]), rel=1e-12)

    def test_penalty_dominates_in_range_values(self):
        sigma = random_covariance(8, seed=2)
        p = PortfolioProblem(sigma, 2, 5, penalty_c=100.0)
        values = p.evaluate_batch(all_bitstrings(8))
        cards = all_bitstrings(8).sum(axis=1)
        in_range = (cards >= 2) & (cards <= 5)
        assert values[~in_range].min() > values[in_range].max()

    def test_rejects_asymmetric_sigma(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            PortfolioProblem(bad, 1, 2)


class TestKnapsack:
    def test_empty_sack(self):
        p = KnapsackProblem([6, 10, 12], [1, 2, 3], 5)
        assert p.evaluate(np.zeros(3, dtype=np.int8)) == 0.0

    def test_known_optimum(self):
        p = KnapsackProblem([6, 10, 12], [1, 2, 3], 5)
        oracle = min(
            -int(b @ np.array([6, 10, 12])) if b @ np.array([1, 2, 3]) <= 5 else np.inf
            for b in all_bitstrings(3)
        )
        assert oracle == -22
        assert p.evaluate(np.array([0, 1, 1])) == pytest.approx(-22.0)

    def test_overweight_dominates_feasible(self):
        p = random_knapsack(10, seed=3)
        values = p.evaluate_batch(all_bitstrings(10))
        loads = all_bitstrings(10) @ p.weights
        feasible = loads <= p.capacity
        assert values[~feasible].min() > values[feasible].max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dp_matches_brute_force(self, seed):
        p = random_knapsack(12, seed=seed)
        _, best = brute_force_optimum(p)
        assert knapsack_optimum_dp(p) == pytest.approx(best)


class TestMaxSat:
    def test_single_clause(self):
        p = MaxSatProblem(3, [(1, 2, 3)])
        assert p.evaluate(np.array([0, 0, 0])) == 1.0
        assert p.evaluate(np.array([1, 0, 0])) == 0.0

    def test_negated_literals(self):
        p = MaxSatProblem(2, [(-1, -2, -2)])
        assert p.evaluate(np.array([1, 1])) == 1.0
        assert p.evaluate(np.array([0, 1])) == 0.0

    def test_matches_independent_checker(self):
        rng = np.random.default_rng(8)
        clauses = [
            tuple(int(l) for l in rng.choice(np.arange(1, 21), 3, replace=False) * rng.choice([-1, 1], 3))
            for _ in range(91)
        ]
        p = MaxSatProblem(20, clauses)
        assignments = rng.integers(0, 2, size=(1000, 20))
        expected = [count_unsatisfied(row, clauses) for row in assignments]
        np.testing.assert_array_equal(p.evaluate_batch(assignments), np.array(expected, dtype=float))

    @settings(max_examples=300, deadline=None, database=None)
    @given(cnf_batches())
    def test_matches_checker_on_any_widths_dtypes_and_layouts(self, case):
        n_vars, clauses, x = case
        got = MaxSatProblem(n_vars, clauses).evaluate_batch(x)
        assert got.dtype == np.float64 and got.shape == (x.shape[0],)
        np.testing.assert_array_equal(got, [count_unsatisfied(row, clauses) for row in x])

    def test_brute_force_optimum_on_mixed_widths(self):
        rng = np.random.default_rng(1414)
        clauses = []
        for _ in range(70):
            width = int(rng.integers(1, 6))
            literals = rng.integers(1, 15, size=width) * rng.choice([-1, 1], size=width)
            clauses.append(tuple(int(l) for l in literals))
        bits, value = brute_force_optimum(MaxSatProblem(14, clauses))
        assert "".join(map(str, bits)) == "10000111101001"
        assert value == 2.0

    def test_flip_changes_count_by_at_most_occurrences(self):
        rng = np.random.default_rng(11)
        clauses = [
            tuple(int(l) for l in rng.choice(np.arange(1, 13), 3, replace=False) * rng.choice([-1, 1], 3))
            for _ in range(40)
        ]
        p = MaxSatProblem(12, clauses)
        x = rng.integers(0, 2, size=12).astype(np.int8)
        for var in range(12):
            occurrences = sum(any(abs(l) - 1 == var for l in c) for c in clauses)
            y = x.copy()
            y[var] ^= 1
            assert abs(p.evaluate(x) - p.evaluate(y)) <= occurrences


class TestDimacs:
    def test_minimal_instance(self):
        p = parse_dimacs_cnf("p cnf 3 1\n1 -2 3 0\n")
        assert p.n_bits == 3
        assert p.n_clauses == 1
        assert p.is_three_sat

    def test_comments_ignored(self):
        text = "c a comment\nc another\np cnf 2 1\nc inline comment\n1 2 1 0\n"
        p = parse_dimacs_cnf(text)
        assert p.n_clauses == 1

    def test_clause_count_mismatch_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dimacs_cnf("p cnf 2 1\n1 2 2 0\n1 -2 1 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(ParseError, match="problem line"):
            parse_dimacs_cnf("1 2 3 0\n")

    def test_too_few_clauses(self):
        with pytest.raises(ParseError, match="expected 3 clauses"):
            parse_dimacs_cnf("p cnf 3 3\n1 2 3 0\n")

    def test_general_cnf_tolerated_with_flag(self):
        p = parse_dimacs_cnf("p cnf 3 2\n1 2 0\n-1 2 -3 0\n")
        assert not p.is_three_sat
        assert p.evaluate(np.array([0, 0, 1])) == 1.0

    def test_multiline_clause(self):
        p = parse_dimacs_cnf("p cnf 4 1\n1 2\n3 0\n")
        assert p.clauses == [(1, 2, 3)]

    def test_satlib_trailer_tolerated(self):
        p = parse_dimacs_cnf("p cnf 2 1\n1 2 2 0\n%\n0\n")
        assert p.n_clauses == 1

    def test_roundtrip_identity(self):
        text = "p cnf 5 3\n1 -2 3 0\n-4 5 1 0\n2 3 -5 0\n"
        p = parse_dimacs_cnf(text)
        again = parse_dimacs_cnf(serialize_dimacs_cnf(p))
        assert again.clauses == p.clauses
        assert serialize_dimacs_cnf(again) == serialize_dimacs_cnf(p)


class TestKnapsackFormat:
    def test_roundtrip(self):
        p = random_knapsack(7, seed=5)
        again = parse_knapsack(serialize_knapsack(p))
        np.testing.assert_array_equal(again.values, p.values)
        np.testing.assert_array_equal(again.weights, p.weights)
        assert again.capacity == p.capacity
        assert serialize_knapsack(again) == serialize_knapsack(p)

    def test_item_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_knapsack("3 10\n5 2\n6 3\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_knapsack("1 10\n0 2\n")


class TestCovarianceCsv:
    def test_identity(self):
        sigma = load_covariance_csv("1,0\n0,1\n")
        np.testing.assert_array_equal(sigma, np.eye(2))

    def test_identical_columns_returns_mode(self):
        rows = ["%f,%f" % (v, v) for v in (0.01, -0.02, 0.005, 0.03)]
        sigma = load_covariance_csv("\n".join(rows), mode="returns")
        assert sigma[0, 0] == pytest.approx(sigma[1, 1])
        assert sigma[0, 1] == pytest.approx(sigma[0, 0])

    def test_returns_matches_textbook_formula(self):
        rng = np.random.default_rng(3)
        table = rng.normal(0, 0.02, size=(12, 5))
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in table)
        sigma = load_covariance_csv(text, mode="returns")
        mean = table.mean(axis=0)
        expected = np.zeros((5, 5))
        for t in range(12):
            dev = table[t] - mean
            expected += np.outer(dev, dev)
        expected /= 11
        np.testing.assert_allclose(sigma, expected, atol=1e-12)

    def test_rejects_ragged(self):
        with pytest.raises(ParseError, match="ragged"):
            load_covariance_csv("1,0\n0\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(ParseError, match="non-numeric"):
            load_covariance_csv("1,x\n0,1\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", ["covariance", "returns"])
    def test_rejects_non_finite_naming_line(self, cell, mode):
        with pytest.raises(ParseError, match="^line 3: non-finite cell$"):
            load_covariance_csv(f"1,0,0\n0,1,0\n0,0,{cell}\n", mode=mode)

    def test_rejects_asymmetry(self):
        with pytest.raises(ParseError, match="asymmetry"):
            load_covariance_csv("1,0.5\n0,1\n")


class TestBruteForce:
    def test_onemax(self):
        bits, value = brute_force_optimum(OneMax(10))
        np.testing.assert_array_equal(bits, np.ones(10, dtype=np.int8))
        assert value == -10.0

    def test_small_knapsack(self):
        bits, value = brute_force_optimum(KnapsackProblem([6, 10, 12], [1, 2, 3], 5))
        np.testing.assert_array_equal(bits, np.array([0, 1, 1]))
        assert value == -22.0

    def test_satisfiable_cnf_reaches_zero(self):
        rng = np.random.default_rng(14)
        planted = rng.integers(0, 2, size=12)
        clauses = []
        for _ in range(50):
            vars_ = rng.choice(12, 3, replace=False)
            signs = rng.choice([-1, 1], 3)
            # force at least one literal to agree with the planted assignment
            signs[0] = 1 if planted[vars_[0]] else -1
            clauses.append(tuple(int(s * (v + 1)) for s, v in zip(signs, vars_)))
        _, value = brute_force_optimum(MaxSatProblem(12, clauses))
        assert value == 0.0

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            brute_force_optimum(OneMax(30))

    def test_trap_optimum_is_all_ones(self):
        trap = DeceptiveTrap(3)
        bits, value = brute_force_optimum(trap)
        np.testing.assert_array_equal(bits, np.ones(12, dtype=np.int8))
        assert value == trap.optimum == -12.0


class TestRelativeError:
    def test_ordinary(self):
        assert relative_error(-18.0, -20.0) == pytest.approx(0.1)

    def test_zero_optimum_falls_back_to_gap(self):
        assert relative_error(3.0, 0.0) == 3.0
