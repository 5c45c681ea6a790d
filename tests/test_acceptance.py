"""Acceptance suite: each test is one release criterion at its stated tolerance.

Oracles here are independent of the library's computation paths: dense
enumeration for distributions, the full 2^N x 2^N bit-flip kernel for
diffusion, rebuilt-model finite differences for gradients, and pure-Python
checkers for the parsers. Run with ``pytest tests/test_acceptance.py -v``;
a PASS/FAIL line per criterion prints at the end of the session.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from tneda.diagnostics import kl_details, run_with_reference
from tneda.evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    EdaConfig,
    adaptive_temperature,
    annealed_temperature,
    run_eda,
)
from tneda.experiment import ExperimentConfig, build_solver, run_experiment
from tneda.models import FiniteDistribution, TrainConfig, born_nll, born_pair_gradient, merge_pair
from tneda.mps import (
    EncodingMode,
    Mps,
    apply_diffusion,
    canonicalize_split,
    partition_function,
    perfect_sample,
    probability,
    random_init,
)
from tneda.ordering import correlation_distance, leaf_order, ward_linkage
from tneda.problems import (
    KnapsackProblem,
    MaxSatProblem,
    OneMax,
    PortfolioProblem,
    knapsack_optimum_dp,
    parse_dimacs_cnf,
    parse_knapsack,
    random_covariance,
    random_knapsack,
    serialize_dimacs_cnf,
    serialize_knapsack,
)


def enumerate_bits(n):
    ints = np.arange(2**n, dtype=np.uint64)
    return ((ints[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint64)) & 1).astype(np.int8)


def dense_distribution(m):
    """Oracle: (Z, probabilities in lexicographic order) by dense expansion."""
    block = np.ones((1, 1))
    for t in m.tensors:
        block = np.einsum("pa,asb->psb", block, t).reshape(block.shape[0] * 2, t.shape[2])
    vals = block[:, 0]
    weights = vals**2 if m.mode is EncodingMode.AMPLITUDE else vals
    return float(weights.sum()), weights / weights.sum()


def test_c01_oracle_equivalence_50_models():
    """Z, per-string probabilities, and sum-to-1 vs 2^N enumeration, 1e-9 rel."""
    rng = np.random.default_rng(20240501)
    modes = [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE]
    for trial in range(50):
        n = int(rng.integers(2, 13))
        chi = int(rng.integers(1, 5))
        m = random_init(n, chi, modes[trial % 2], seed=rng)
        z_oracle, p_oracle = dense_distribution(m)
        assert abs(partition_function(m) - z_oracle) <= 1e-9 * z_oracle
        p_lib = probability(m, enumerate_bits(n))
        np.testing.assert_allclose(p_lib, p_oracle, rtol=1e-9, atol=1e-300)
        assert abs(p_lib.sum() - 1.0) <= 1e-9


def test_c02_perfect_sampling_statistics():
    """TV < 0.02 at 100k samples (N=8); uniform chi^2 at alpha=0.01."""
    for mode, chi, seed in ((EncodingMode.AMPLITUDE, 3, 1), (EncodingMode.DIRECT_POSITIVE, 1, 4)):
        m = random_init(8, chi, mode, seed=seed)
        _, p_oracle = dense_distribution(m)
        draws = perfect_sample(m, np.random.default_rng(seed), size=100_000)
        idx = draws.astype(np.int64) @ (1 << np.arange(7, -1, -1))
        emp = np.bincount(idx, minlength=256) / 100_000
        assert 0.5 * np.abs(emp - p_oracle).sum() < 0.02

    uniform = Mps((np.ones((1, 2, 1)),) * 3, EncodingMode.DIRECT_POSITIVE, 1)
    draws = perfect_sample(uniform, np.random.default_rng(99), size=80_000)
    counts = np.bincount(draws @ (1 << np.arange(2, -1, -1)), minlength=8)
    statistic = ((counts - 10_000.0) ** 2 / 10_000.0).sum()
    assert statistic < stats.chi2.ppf(0.99, df=7)


@pytest.mark.parametrize("p_flip", [0.0, 0.005, 0.01, 0.025, 0.5])
def test_c03_diffusion_exactness(p_flip):
    """Diffused probabilities and KL vs the brute-force kernel, 1e-9."""
    for mode, n, seed in (
        (EncodingMode.AMPLITUDE, 10, 31),
        (EncodingMode.DIRECT_POSITIVE, 8, 32),
    ):
        m = random_init(n, 3, mode, seed=seed)
        _, q = dense_distribution(m)
        d = np.array([[1 - p_flip, p_flip], [p_flip, 1 - p_flip]])
        kernel = np.ones((1, 1))
        for _ in range(n):
            kernel = np.kron(kernel, d)
        q_tilde = kernel @ q

        p_lib = probability(apply_diffusion(m, p_flip), enumerate_bits(n))
        np.testing.assert_allclose(p_lib, q_tilde, atol=1e-9)

        target_rng = np.random.default_rng(seed + 1)
        keep = target_rng.permutation(2**n)[:100]
        w = target_rng.random(100)
        target = FiniteDistribution(enumerate_bits(n)[keep], w / w.sum())
        kl_oracle = float(
            np.sum(target.probs * (np.log(target.probs) - np.log(q_tilde[keep])))
        )
        assert abs(kl_details(apply_diffusion(m, p_flip), target)[0] - kl_oracle) <= 1e-9
        if p_flip == 0.5:
            identity = n * math.log(2.0) - target.entropy()
            assert abs(kl_details(apply_diffusion(m, p_flip), target)[0] - identity) <= 1e-9


def test_c04_gradient_check_100_fixtures():
    """Analytic NLL pair gradient vs central differences, rel err < 1e-5."""

    def rebuilt(m, i, theta):
        left, right = canonicalize_split(theta, chi_max=None, cutoff=0.0)
        tensors = list(m.tensors[:i]) + [left, right] + list(m.tensors[i + 2 :])
        chi = max(max(t.shape[0], t.shape[2]) for t in tensors)
        return Mps(tuple(tensors), m.mode, max(chi, 1))

    rng = np.random.default_rng(20240404)
    for _ in range(100):
        n_sites = int(rng.integers(3, 7))
        chi = int(rng.integers(2, 4))
        pair = int(rng.integers(0, n_sites - 1))
        m = random_init(n_sites, chi, EncodingMode.AMPLITUDE, seed=rng)
        data = rng.integers(0, 2, size=(int(rng.integers(5, 16)), n_sites))
        _, grad = born_pair_gradient(m, pair, data)
        theta = merge_pair(m, pair)
        fd = np.zeros_like(theta)
        eps = 1e-6  # small enough that curvature near low-likelihood samples
        # does not dominate the central-difference truncation error
        for idx in np.ndindex(theta.shape):
            bumped = theta.copy()
            bumped[idx] += eps
            up = born_nll(rebuilt(m, pair, bumped), data)
            bumped[idx] -= 2 * eps
            down = born_nll(rebuilt(m, pair, bumped), data)
            fd[idx] = (up - down) / (2 * eps)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


def _benchmark_solver_runs(problem, optimum, n_runs=50):
    plan = build_solver({"preset": "TN1"})
    cfg = dataclasses.replace(plan.cfg, target_objective=optimum)
    hits = 0
    for seed in range(n_runs):
        records = run_eda(problem, plan.make_model(), plan.selection, cfg, rng=seed)
        assert records[-1].calls <= cfg.call_budget
        hits += records[-1].best_objective <= optimum + 1e-9
    return hits


@pytest.mark.slow
def test_c05_solver_smoke_onemax():
    """TN Solver 1 reaches the OneMax N=20 optimum in >= 80% of 50 runs."""
    problem = OneMax(20)
    assert _benchmark_solver_runs(problem, problem.optimum) >= 40


@pytest.mark.slow
def test_c05_solver_smoke_knapsack():
    """TN Solver 1 reaches the DP optimum of a random N=30 knapsack in >= 80%."""
    problem = random_knapsack(30, seed=2024)
    assert _benchmark_solver_runs(problem, knapsack_optimum_dp(problem)) >= 40


@pytest.mark.slow
def test_c06_mutation_benefit_portfolio():
    """Bit-flip mutation helps on the synthetic portfolio and raises KL.

    Qualitative reproduction: over 20 seeded runs of 30 generations each,
    the median final objective with p_flip = 0.01 is no worse than with
    p_flip = 0, and the noisy-minus-noiseless KL difference has a positive
    median in at least 80% of generations.
    """
    sigma = random_covariance(40, seed=77)
    problem = PortfolioProblem(sigma, n_min=8, n_max=12)
    train = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=1, svd_cutoff=1e-6)
    selection = BoltzmannSelection(AdaptiveGapSchedule())

    def loop_cfg(mutation):
        return EdaConfig(
            n_parents=1000, n_children=1000, generations=30,
            mutation_rate=mutation, call_budget=40_000, n_init=100,
        )

    noisy_finals = []
    delta_series = []
    for seed in range(20):
        records = list(run_with_reference(
            problem, BornMachineSampler(train), BornMachineSampler(train),
            selection, loop_cfg(0.01), rng=seed,
        ))
        noisy_finals.append(records[-1].best_objective)
        delta_series.append([r.kl_delta for r in records])

    plain_finals = []
    for seed in range(20):
        records = run_eda(problem, BornMachineSampler(train), selection, loop_cfg(0.0), rng=seed)
        plain_finals.append(records[-1].best_objective)

    assert np.median(noisy_finals) <= np.median(plain_finals)

    n_generations = min(len(series) for series in delta_series)
    positive = 0
    for g in range(n_generations):
        deltas = [series[g] for series in delta_series if series[g] is not None]
        positive += np.median(deltas) > 0
    assert positive / n_generations >= 0.8


def test_c07_temperature_formulas():
    """Adaptive gap temperature incl. tie rule; annealed endpoints exact."""
    assert adaptive_temperature(np.array([0.0, 0.2, 0.5, 0.8, 1.0, 3.0]), 5, 3.0) == pytest.approx(
        1.0 / math.log(3.0)
    )
    assert adaptive_temperature(np.array([0.0] * 5 + [2.0]), 5, 3.0) == pytest.approx(
        2.0 / math.log(3.0)
    )
    assert adaptive_temperature(np.array([1.0] * 6 + [1.25]), 5, 3.0) == pytest.approx(
        0.25 / math.log(3.0)
    )
    assert annealed_temperature(7.25, 0, 60) == 7.25
    assert annealed_temperature(7.25, 60, 60) == 1.0
    assert annealed_temperature(9.0, 30, 60) == pytest.approx(3.0)


def test_c08_experiment_determinism(tmp_path):
    """Reruns produce byte-identical record files once wall time is dropped."""

    def run_once(where):
        config = ExperimentConfig(
            problem={"kind": "onemax", "n_bits": 12},
            solver={
                "preset": "TN1",
                "n_parents": 50, "n_children": 50, "n_init": 50,
                "generations": 6, "t_max": 6, "call_budget": 500,
            },
            seeds=[0, 1, 2],
            out_dir=str(where),
        )
        return run_experiment(config)

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")

    def canonical(path):
        lines = []
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            record.pop("wall_time_s")
            lines.append(json.dumps(record, sort_keys=False))
        return "\n".join(lines).encode()

    for path_a, path_b in zip(first["runs"], second["runs"]):
        assert canonical(path_a) == canonical(path_b)
    assert Path(first["summary"]).read_bytes() == Path(second["summary"]).read_bytes()


def test_c09_parser_roundtrips_and_checkers():
    """Parse -> evaluate vs independent checkers (0 mismatches) -> reserialize."""
    rng = np.random.default_rng(20240909)
    clauses = [
        tuple(int(v) for v in rng.choice(np.arange(1, 21), 3, replace=False) * rng.choice([-1, 1], 3))
        for _ in range(91)
    ]
    cnf_text = serialize_dimacs_cnf(MaxSatProblem(20, clauses))
    problem = parse_dimacs_cnf(cnf_text)
    assert serialize_dimacs_cnf(problem) == cnf_text
    assignments = rng.integers(0, 2, size=(1000, 20))
    mismatches = 0
    for row in assignments:
        unsat = sum(
            not any((lit > 0) == bool(row[abs(lit) - 1]) for lit in clause) for clause in clauses
        )
        mismatches += unsat != problem.evaluate(row)
    assert mismatches == 0

    knap = random_knapsack(25, seed=7)
    knap_text = serialize_knapsack(knap)
    reparsed = parse_knapsack(knap_text)
    assert serialize_knapsack(reparsed) == knap_text
    assignments = rng.integers(0, 2, size=(1000, 25))
    mismatches = 0
    for row in assignments:
        weight = int(row @ knap.weights)
        if weight <= knap.capacity:
            expected = -float(row @ knap.values)
        else:
            expected = (weight - knap.capacity) * (1.0 + float(knap.values.sum()))
        mismatches += expected != reparsed.evaluate(row)
    assert mismatches == 0


def test_c10_ordering_criteria():
    """Distance endpoints exact; contiguity and never-worse order on 100 fixtures."""
    assert correlation_distance(1.0) == 0.0
    assert correlation_distance(0.0) == 0.5
    assert correlation_distance(-1.0) == 1.0

    rng = np.random.default_rng(20241010)
    for _ in range(100):
        points = rng.normal(size=(8, 3))
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        tree = ward_linkage(dist)
        order = leaf_order(tree, dist)
        assert sorted(order.tolist()) == list(range(8))
        positions = {leaf: pos for pos, leaf in enumerate(order)}
        for node in range(8, 8 + len(tree.merges)):
            spots = sorted(positions[leaf] for leaf in tree.leaves_under(node))
            assert spots == list(range(spots[0], spots[0] + len(spots)))
        plain = tree.traversal_order()
        assert (
            dist[order[:-1], order[1:]].sum()
            <= dist[plain[:-1], plain[1:]].sum() + 1e-12
        )
