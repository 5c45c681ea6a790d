"""Tests for the trainable models: Born machine, positive MPS, chain Bayes.

The gradient oracle rebuilds a full MPS from the merged pair tensor and
finite-differences the NLL computed through the ordinary probability path,
so it shares no code with the analytic gradient.
"""

import itertools
import math

import numpy as np
import pytest

import positive_oracle
from tneda.diagnostics import kl_details
from tneda.models import (
    ChainBayes,
    FiniteDistribution,
    TrainConfig,
    _as_data,
    born_nll,
    born_pair_gradient,
    chain_bayes_log_probability,
    fit_chain_bayes,
    merge_pair,
    sample_chain_bayes,
    train_born_machine,
    train_positive_mps,
)
from tneda.mps import EncodingMode, Mps, canonicalize_split, probability, random_init


def all_bitstrings(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)


def assemble_with_pair(m, i, theta):
    """Rebuild a full model with pair (i, i+1) replaced by ``theta``.

    Exact (untruncated) split, so the rebuilt model's distribution equals
    the merged chain exactly.
    """
    left, right = canonicalize_split(theta, chi_max=None, cutoff=0.0)
    tensors = list(m.tensors[:i]) + [left, right] + list(m.tensors[i + 2 :])
    chi = max(max(t.shape[0], t.shape[2]) for t in tensors)
    return Mps(tuple(tensors), m.mode, max(chi, 1))


class TestBornGradient:
    def finite_difference(self, m, i, theta, data, eps=1e-5):
        grad = np.zeros_like(theta)
        for idx in np.ndindex(theta.shape):
            bumped = theta.copy()
            bumped[idx] += eps
            up = born_nll(assemble_with_pair(m, i, bumped), data)
            bumped[idx] -= 2 * eps
            down = born_nll(assemble_with_pair(m, i, bumped), data)
            grad[idx] = (up - down) / (2 * eps)
        return grad

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n_sites = int(rng.integers(3, 7))
        pair = int(rng.integers(0, n_sites - 1))
        m = random_init(n_sites, 3, EncodingMode.AMPLITUDE, seed=rng)
        data = rng.integers(0, 2, size=(12, n_sites))
        nll, grad = born_pair_gradient(m, pair, data)
        theta = merge_pair(m, pair)
        fd = self.finite_difference(m, pair, theta, data)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5
        assert nll == pytest.approx(born_nll(m, data), rel=1e-10)

    def test_requires_amplitude_mode(self):
        m = random_init(4, 2, EncodingMode.DIRECT_POSITIVE, seed=0)
        with pytest.raises(ValueError):
            born_pair_gradient(m, 0, [[0, 1, 0, 1]])


TRAINING_ENTRY_POINTS = {
    "train_born_machine": lambda rows: train_born_machine(rows, TrainConfig(learning_rate=0.1, chi_max=2), rng=0),
    "train_positive_mps": lambda rows: train_positive_mps(
        rows, TrainConfig(learning_rate=0.1, chi_max=2), init=random_init(3, 2, EncodingMode.DIRECT_POSITIVE, seed=0)
    ),
    "fit_chain_bayes": lambda rows: fit_chain_bayes(rows),
    "born_nll": lambda rows: born_nll(random_init(3, 2, EncodingMode.AMPLITUDE, seed=0), rows),
}


@pytest.mark.parametrize("entry", sorted(TRAINING_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [2, -1, 0.5, 256])
def test_training_data_must_be_exact_bits(entry, bad):
    """A value other than exactly 0 or 1 is rejected, not truncated or wrapped to a bit."""
    fit = TRAINING_ENTRY_POINTS[entry]
    fit(np.array([[0, 1, 1], [1, 0, 0]]))  # the same rows with exact bits are accepted
    with pytest.raises(ValueError, match="binary"):
        fit(np.array([[0, 1, 1], [1, 0, bad]]))


@pytest.mark.parametrize("entry", sorted(TRAINING_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [-1, 2, 127, -128])
def test_int8_training_data_must_be_exact_bits(entry, bad):
    """int8 rows are checked by their largest unsigned byte: -1 and -128 read as 255 and 128."""
    rows = np.array([[0, 1, 1, 0], [1, 0, bad, 1]], dtype=np.int8)
    with pytest.raises(ValueError, match="binary"):
        TRAINING_ENTRY_POINTS[entry](rows[:, :3])
    with pytest.raises(ValueError, match="binary"):
        TRAINING_ENTRY_POINTS[entry](rows[:, ::-1][:, 1:])  # a strided view


@pytest.mark.parametrize("rows", [
    np.zeros((3, 0), dtype=np.int8), np.zeros((3, 0)), np.zeros((0, 3), dtype=np.int8),
    np.array([[0, 1], [1, 1]], dtype=np.int8), np.array([[0, 1], [1, -1]], dtype=np.int8),
])
def test_as_data_agrees_with_the_comparing_check(rows):
    """The same outcome as ``((data == 0) | (data == 1)).all()``, zero-width rows included."""
    def outcome(check):
        try:
            out = check(rows)
        except ValueError as err:
            return str(err)
        return out.dtype, out.shape, out.tobytes()

    assert outcome(_as_data) == outcome(positive_oracle._as_data)


class TestTrainBornMachine:
    def test_concentrates_on_repeated_string(self):
        target = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        data = np.tile(target, (200, 1))
        cfg = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=5)
        m = train_born_machine(data, cfg, rng=7)
        assert probability(m, target) > 0.9

    def test_nll_decreases_at_small_learning_rate(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(50, 6))
        init = random_init(6, 2, EncodingMode.AMPLITUDE, seed=5)
        before = born_nll(init, data)
        cfg = TrainConfig(learning_rate=1e-3, chi_max=4, sweeps=1, svd_cutoff=0.0)
        trained = train_born_machine(data, cfg, init=init)
        assert born_nll(trained, data) <= before + 1e-12

    def test_reference_settings_run(self):
        # learning rate 0.1, one sweep, one step per pair, cutoff 1e-6, cap 5
        data = np.random.default_rng(11).integers(0, 2, size=(40, 10))
        cfg = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=1, svd_cutoff=1e-6)
        m = train_born_machine(data, cfg, rng=1)
        assert m.n_sites == 10
        assert max(m.bond_dims) <= 5

    def test_deterministic_given_seed(self):
        data = np.random.default_rng(2).integers(0, 2, size=(30, 7))
        cfg = TrainConfig(learning_rate=0.15, chi_max=2)
        a = train_born_machine(data, cfg, rng=np.random.default_rng(9))
        b = train_born_machine(data, cfg, rng=np.random.default_rng(9))
        for ta, tb in zip(a.tensors, b.tensors):
            np.testing.assert_array_equal(ta, tb)

    def test_normalized_after_training(self):
        data = np.random.default_rng(4).integers(0, 2, size=(25, 6))
        cfg = TrainConfig(learning_rate=0.15, chi_max=2)
        m = train_born_machine(data, cfg, rng=0)
        total = probability(m, all_bitstrings(6)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty_data(self):
        cfg = TrainConfig(learning_rate=0.1, chi_max=2)
        with pytest.raises(ValueError):
            train_born_machine(np.empty((0, 5)), cfg, rng=0)


class TestTrainPositiveMps:
    def test_probability_increases_on_repeated_string(self):
        target = np.array([0, 1, 1, 0, 1])
        data = np.tile(target, (50, 1))
        cfg = TrainConfig(learning_rate=0.15, chi_max=2)
        m = random_init(5, 2, EncodingMode.DIRECT_POSITIVE, seed=3)
        seen = [probability(m, target)]
        for _ in range(5):
            m = train_positive_mps(data, cfg, init=m)
            seen.append(probability(m, target))
        assert all(b > a for a, b in zip(seen, seen[1:]))

    def test_zero_learning_rate_is_noop(self):
        data = np.random.default_rng(0).integers(0, 2, size=(20, 6))
        cfg = TrainConfig(learning_rate=0.0, chi_max=3)
        m = random_init(6, 3, EncodingMode.DIRECT_POSITIVE, seed=8)
        out = train_positive_mps(data, cfg, init=m)
        for ta, tb in zip(out.tensors, m.tensors):
            np.testing.assert_array_equal(ta, tb)

    def test_benchmark_settings_accepted(self):
        data = np.random.default_rng(1).integers(0, 2, size=(10, 8))
        cfg = TrainConfig(learning_rate=0.15, chi_max=2, sweeps=1)
        m = random_init(8, 2, EncodingMode.DIRECT_POSITIVE, seed=1)
        out = train_positive_mps(data, cfg, init=m)
        assert out.mode is EncodingMode.DIRECT_POSITIVE

    def test_entries_stay_nonnegative(self):
        data = np.random.default_rng(2).integers(0, 2, size=(30, 5))
        cfg = TrainConfig(learning_rate=2.0, chi_max=2, sweeps=3)
        m = random_init(5, 2, EncodingMode.DIRECT_POSITIVE, seed=2)
        out = train_positive_mps(data, cfg, init=m)
        assert all(np.all(t >= 0) for t in out.tensors)

    def test_rejects_wrong_mode(self):
        cfg = TrainConfig(learning_rate=0.1, chi_max=2)
        m = random_init(4, 2, EncodingMode.AMPLITUDE, seed=0)
        with pytest.raises(ValueError):
            train_positive_mps([[0, 1, 0, 1]], cfg, init=m)


class TestChainBayes:
    def test_identity_tables_on_copying_data(self):
        data = np.array([[0] * 6] * 5 + [[1] * 6] * 5)
        b = fit_chain_bayes(data, smoothing=0.0)
        for i in range(5):
            np.testing.assert_allclose(b.conditionals[i], np.eye(2))

    def test_uniform_on_full_enumeration(self):
        b = fit_chain_bayes(all_bitstrings(5), smoothing=0.0)
        np.testing.assert_allclose(b.p_first, [0.5, 0.5])
        np.testing.assert_allclose(b.conditionals, np.full((4, 2, 2), 0.5))

    def test_laplace_smoothing_single_datum(self):
        b = fit_chain_bayes(np.array([[0, 0]]), smoothing=1.0)
        np.testing.assert_allclose(b.p_first, [2.0 / 3.0, 1.0 / 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_chain_bayes(np.empty((0, 4)))

    @pytest.mark.parametrize(
        "p_first, conditionals, smoothing, field",
        [
            ([math.nan, math.nan], np.full((2, 2, 2), 0.5), 0.0, "p_first"),
            ([math.nan, 1.0], np.full((2, 2, 2), 0.5), 0.0, "p_first"),
            ([0.5, 0.5], np.full((2, 2, 2), math.nan), 0.0, "conditionals"),
            ([0.5, 0.5], np.array([[[0.5, math.nan], [0.5, math.nan]]]), 0.0, "conditionals"),
            ([0.5, 0.5], np.full((2, 2, 2), 0.5), math.nan, "smoothing"),
        ],
    )
    def test_rejects_nan_by_field(self, p_first, conditionals, smoothing, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            ChainBayes(p_first, conditionals, smoothing)

    def test_uniform_model_probability(self):
        b = ChainBayes([0.5, 0.5], np.full((5, 2, 2), 0.5), 0.0)
        for bits in (np.zeros(6, dtype=int), np.ones(6, dtype=int)):
            assert np.exp(chain_bayes_log_probability(b, bits)) == pytest.approx(2.0**-6)

    def test_identity_model_mass(self):
        b = ChainBayes([0.5, 0.5], np.tile(np.eye(2), (3, 1, 1)), 0.0)
        probs = np.exp(chain_bayes_log_probability(b, all_bitstrings(4)))
        expected = np.zeros(16)
        expected[0] = 0.5
        expected[-1] = 0.5
        np.testing.assert_allclose(probs, expected)

    def test_probabilities_sum_to_one(self):
        data = np.random.default_rng(5).integers(0, 2, size=(100, 7))
        b = fit_chain_bayes(data, smoothing=1.0)
        assert np.exp(chain_bayes_log_probability(b, all_bitstrings(7))).sum() == pytest.approx(1.0)

    def test_sampler_total_variation(self):
        data = np.random.default_rng(6).integers(0, 2, size=(300, 8))
        b = fit_chain_bayes(data, smoothing=1.0)
        draws = sample_chain_bayes(b, np.random.default_rng(7), size=100_000)
        idx = draws.astype(np.int64) @ (1 << np.arange(7, -1, -1))
        emp = np.bincount(idx, minlength=256) / 100_000
        exact = np.exp(chain_bayes_log_probability(b, all_bitstrings(8)))
        assert 0.5 * np.abs(emp - exact).sum() < 0.02

    def test_smoothing_avoids_zero_probability(self):
        b = fit_chain_bayes(np.zeros((10, 6), dtype=int), smoothing=1.0)
        assert np.all(np.exp(chain_bayes_log_probability(b, all_bitstrings(6))) > 0)

    def test_sampled_strings_have_positive_probability(self):
        data = np.random.default_rng(8).integers(0, 2, size=(50, 5))
        b = fit_chain_bayes(data, smoothing=0.0)
        draws = sample_chain_bayes(b, np.random.default_rng(9), size=2000)
        assert np.all(np.exp(chain_bayes_log_probability(b, draws)) > 0)


class TestModelKl:
    def test_zero_against_itself(self):
        b = fit_chain_bayes(np.random.default_rng(1).integers(0, 2, size=(60, 4)), smoothing=1.0)
        strings = all_bitstrings(4)
        target = FiniteDistribution(strings, np.exp(chain_bayes_log_probability(b, strings)))
        assert kl_details(b, target)[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair(self):
        strings = all_bitstrings(2)
        target = FiniteDistribution(strings, np.full(4, 0.25))
        uniform = Mps((np.ones((1, 2, 1)),) * 2, EncodingMode.DIRECT_POSITIVE, 1)
        assert kl_details(uniform, target)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_point_target_against_uniform(self):
        target = FiniteDistribution(np.array([[0, 0], [1, 1]]), np.array([0.5, 0.5]))
        uniform = Mps((np.ones((1, 2, 1)),) * 2, EncodingMode.DIRECT_POSITIVE, 1)
        assert kl_details(uniform, target)[0] == pytest.approx(math.log(2.0))

    def test_infinite_on_unsupported_point(self):
        b = ChainBayes([1.0, 0.0], np.tile(np.eye(2), (2, 1, 1)), 0.0)
        target = FiniteDistribution(np.array([[1, 1, 1]]), np.array([1.0]))
        assert kl_details(b, target)[0] == math.inf

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([[0], [1]]), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]])
    def test_rejects_nan_probs(self, probs):
        with pytest.raises(ValueError, match="^probs "):
            FiniteDistribution(np.array([[0], [1]]), np.array(probs))

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        m = random_init(6, 2, EncodingMode.AMPLITUDE, seed=rng)
        strings = all_bitstrings(6)[rng.permutation(64)[:20]]
        w = rng.random(20)
        target = FiniteDistribution(strings, w / w.sum())
        assert kl_details(m, target)[0] >= -1e-12


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1, chi_max=2)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=math.nan, chi_max=2)
        with pytest.raises(ValueError, match="svd_cutoff"):
            TrainConfig(learning_rate=0.1, chi_max=2, svd_cutoff=math.nan)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, chi_max=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, chi_max=2, sweeps=0)
