"""Kernel agreement: the matmul contraction core against an einsum oracle.

``einsum_oracle`` keeps the earlier einsum-based contractions. The core
reorders floating-point arithmetic, so values must agree to about 1e-12
relative, and samplers fed the same generator must draw the same bits.
The library carries environments one string per column, (chi, B); the
oracle one per row, (B, chi), so environments cross as transposes.
The Born trainer fits one weighted row per distinct string; the oracle
keeps one row per copy, so agreement on data with repeated rows checks the
weighting. Property tests check that the trainers stay finite or fail with
:class:`DegenerateModelError`, and that random positive-MPS fits match the
oracle's, failures included. A last test makes ``numpy.einsum`` raise to
keep it off the hot path.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as oracle
from tneda.experiment import build_problem, build_solver, run_single
from tneda.models import (
    TrainConfig,
    _right_canonicalize,
    born_pair_environments,
    born_pair_gradient,
    merge_pair,
    pair_nll_gradient,
    pair_onehots,
    train_born_machine,
    train_positive_mps,
)
from tneda.mps import (
    DegenerateModelError,
    EncodingMode,
    Mps,
    _gram_left,
    _gram_right,
    apply_diffusion,
    log_partition_function,
    log_probability,
    perfect_sample,
    random_init,
)

REL = 1e-12
MODES = [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE]
CHIS = [1, 2, 3, 4, 5]


def assert_rel_close(actual, expected, rel=REL):
    """max |actual - expected| <= rel * max |expected|, with -inf matched exactly."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(np.isfinite(actual), finite)
    np.testing.assert_array_equal(actual[~finite], expected[~finite])
    if np.any(finite):
        scale = np.abs(expected[finite]).max()
        assert np.abs(actual[finite] - expected[finite]).max() <= rel * max(scale, 1e-300)


def random_bits(n_rows, n_sites, seed):
    return np.random.default_rng(seed).integers(0, 2, size=(n_rows, n_sites))


def repeated_index(n, seed):
    """Each of 0..n-1 one to six times, shuffled."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(np.arange(n), rng.integers(1, 7, size=n)))


def conditioned_pair(chi_l, chi_r, n, seed):
    """theta (chi_l, 2, 2, chi_r), n rows of lx and rx, and their bits, with every |psi| >= 0.1.

    Normal draws alone now and then give |psi| near 1e-6, and the gradient's
    1/psi then turns rounding into differences near 1e-11 relative in any
    order of summation, so rows below 0.1 are drawn again.
    """
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(chi_l, 2, 2, chi_r))
    lx, rx, xi, xj = np.empty((0, chi_l)), np.empty((0, chi_r)), np.empty(0, int), np.empty(0, int)
    while len(xi) < n:
        lx_new, rx_new = rng.normal(size=(n, chi_l)), rng.normal(size=(n, chi_r))
        xi_new, xj_new = rng.integers(0, 2, n), rng.integers(0, 2, n)
        keep = np.abs(np.einsum("bl,lbr,br->b", lx_new, theta[:, xi_new, xj_new, :], rx_new)) >= 0.1
        lx, rx = np.concatenate([lx, lx_new[keep]]), np.concatenate([rx, rx_new[keep]])
        xi, xj = np.concatenate([xi, xi_new[keep]]), np.concatenate([xj, xj_new[keep]])
    return theta, lx[:n], rx[:n], xi[:n], xj[:n]


def random_gram(chi, seed):
    """A positive-definite (chi, chi) matrix, as a bond Gram matrix of the rest of a chain is."""
    a = np.random.default_rng(seed).normal(size=(chi, chi))
    return a @ a.T + chi * np.eye(chi)


def pair_shapes(chi):
    """(chi_l, chi_r, n) of the pair-gradient cases at bond chi: unequal bonds
    both ways, bond 1 at either end of the pair, and 1 to 700 rows."""
    return [(chi, chi + 1, 50), (chi + 1, chi, 1), (1, chi, 700), (chi, 1, 300), (chi + 1, chi + 2, 700)]


def assert_sweep_matches_oracle(n, n_sites, chi):
    """One Born sweep on n rows sampled from the fit's own random start agrees with the oracle's.

    Rows drawn from the model have no amplitude near zero. On uniform random
    rows of this size some |psi| are, and both sweeps then turn rounding
    into large differences, whatever the kernel.
    """
    start = random_init(n_sites, chi, EncodingMode.AMPLITUDE, seed=chi)  # train_born_machine's start at rng=chi
    bits = perfect_sample(start, np.random.default_rng(chi), size=n)
    cfg = TrainConfig(learning_rate=0.002, chi_max=chi)
    m = train_born_machine(bits, cfg, rng=chi)
    ref = oracle.train_born_machine(bits, cfg, rng=chi)
    assert m.bond_dims == ref.bond_dims
    for t, r in zip(m.tensors, ref.tensors):
        assert_rel_close(t, r)


def symmetric_fold(chi):
    """Q (chi^2, k) adding rows (a, b) and (b, a) into pair a <= b, and the pairs' flat indices."""
    pairs = [(a, b) for a in range(chi) for b in range(a, chi)]
    q = np.zeros((chi * chi, len(pairs)))
    for k, (a, b) in enumerate(pairs):
        q[a * chi + b, k] = q[b * chi + a, k] = 1.0
    return q, [a * chi + b for a, b in pairs]


def all_bits(n_sites):
    return (np.arange(2**n_sites)[:, None] >> np.arange(n_sites)) & 1


def assert_same_model(a, b):
    assert a.bond_dims == b.bond_dims
    for ta, tb in zip(a.tensors, b.tensors):
        np.testing.assert_array_equal(ta, tb)


@pytest.fixture(scope="module")
def diffused():
    """A 40-site chi-5 Born model and its diffused network, bond 15."""
    born = random_init(40, 5, EncodingMode.AMPLITUDE, seed=7)
    return born, apply_diffusion(born, 0.01)


@pytest.mark.parametrize("chi", CHIS)
@pytest.mark.parametrize("mode", MODES)
class TestScoring:
    def test_log_partition_function(self, mode, chi):
        m = random_init(9, chi, mode, seed=chi)
        assert_rel_close(log_partition_function(m), oracle.log_partition_function(m))

    def test_log_probability(self, mode, chi):
        m = random_init(9, chi, mode, seed=10 + chi)
        bits = random_bits(300, 9, seed=chi)
        assert_rel_close(log_probability(m, bits), oracle.log_probability(m, bits))

    def test_perfect_sample_same_bits(self, mode, chi):
        m = random_init(9, chi, mode, seed=20 + chi)
        drawn = perfect_sample(m, np.random.default_rng(chi), size=400)
        expected = oracle.perfect_sample(m, np.random.default_rng(chi), 400)
        np.testing.assert_array_equal(drawn, expected)

    def test_batch_of_one(self, mode, chi):
        m = random_init(9, chi, mode, seed=30 + chi)
        x = random_bits(1, 9, seed=chi)[0]
        got = log_probability(m, x)
        assert isinstance(got, float)
        assert_rel_close(got, oracle.log_probability(m, x[None])[0])
        drawn = perfect_sample(m, np.random.default_rng(chi))
        assert drawn.shape == (9,)
        np.testing.assert_array_equal(drawn, oracle.perfect_sample(m, np.random.default_rng(chi), 1)[0])


@settings(max_examples=200, deadline=None)
@given(chi_l=st.integers(1, 8), chi_r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_gram_transfers_equal_tensordot(chi_l, chi_r, seed):
    # The matmul forms compute the same products in the same order as the
    # nested tensordots, so equality is exact, not approximate.
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(chi_l, 2, chi_r))
    env_l, env_r = rng.normal(size=(chi_l, chi_l)), rng.normal(size=(chi_r, chi_r))
    np.testing.assert_array_equal(_gram_left(env_l, t), oracle.gram_left(env_l, t))
    np.testing.assert_array_equal(_gram_right(t, env_r), oracle.gram_right(t, env_r))


@pytest.mark.parametrize("chi", CHIS)
@pytest.mark.parametrize("mode", list(EncodingMode))
class TestZeroValuedStrings:
    """A third of the entries zeroed at random, and the bit-1 slice of site 4.

    Every string with bit 1 at site 4 dies there, so the per-string rescale
    meets all-zero environments mid-chain; at small chi the random zeros
    kill more strings.
    """

    @staticmethod
    def zeroed(mode, chi):
        m = random_init(9, chi, mode, seed=50 + chi)
        rng = np.random.default_rng(chi)
        tensors = [np.where(rng.random(t.shape) < 1 / 3, 0.0, t) for t in m.tensors]
        tensors[4][:, 1, :] = 0.0
        return Mps(tuple(tensors), mode, chi)

    def test_log_probability(self, mode, chi):
        m = self.zeroed(mode, chi)
        bits = all_bits(9)
        expected = oracle.log_probability(m, bits)
        assert np.isneginf(expected).any() and np.isfinite(expected).any()
        assert_rel_close(log_probability(m, bits), expected)

    def test_perfect_sample_same_bits(self, mode, chi):
        m = self.zeroed(mode, chi)
        drawn = perfect_sample(m, np.random.default_rng(chi), size=300)
        np.testing.assert_array_equal(drawn, oracle.perfect_sample(m, np.random.default_rng(chi), 300))
        assert np.isfinite(log_probability(m, drawn)).all()


class TestDiffusedNetwork:
    def test_tensors(self, diffused):
        # The oracle's chi^2 sites with rows (a, a') and (a', a) summed and
        # the columns b <= b' kept are the network's sites.
        born, net = diffused
        ref = oracle.apply_diffusion(born, 0.01)
        for t, r in zip(net.tensors, ref.tensors):
            q_l, _ = symmetric_fold(math.isqrt(r.shape[0]))
            _, upper_r = symmetric_fold(math.isqrt(r.shape[2]))
            folded = (q_l.T @ r.reshape(r.shape[0], -1)).reshape(-1, 2, r.shape[2])[:, :, upper_r]
            assert_rel_close(t, folded, rel=1e-15)
        assert max(net.bond_dims) == 15
        bits = random_bits(500, 40, seed=3)
        assert_rel_close(log_probability(net, bits), oracle.log_probability(ref, bits))

    def test_log_partition_function(self, diffused):
        _, net = diffused
        assert_rel_close(log_partition_function(net), oracle.log_partition_function(net))

    def test_log_probability(self, diffused):
        _, net = diffused
        bits = random_bits(500, 40, seed=3)
        assert_rel_close(log_probability(net, bits), oracle.log_probability(net, bits))

    def test_perfect_sample_same_bits(self, diffused):
        _, net = diffused
        drawn = perfect_sample(net, np.random.default_rng(5), size=200)
        np.testing.assert_array_equal(drawn, oracle.perfect_sample(net, np.random.default_rng(5), 200))


class TestSymmetricFold:
    """``apply_diffusion`` of Born models against the oracle's chi^2 network, over all 2^N strings."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        n_sites=st.integers(2, 8),
        chi=st.integers(1, 5),
        zeroed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_chi2_network(self, n_sites, chi, zeroed, seed):
        m = random_init(n_sites, chi, EncodingMode.AMPLITUDE, seed=seed)
        if zeroed:
            rng = np.random.default_rng(seed)
            m = Mps(tuple(np.where(rng.random(t.shape) < 0.3, 0.0, t) for t in m.tensors), m.mode, chi)
        try:
            log_partition_function(m)
        except DegenerateModelError:  # every amplitude is zero, so is every diffused probability
            with pytest.raises(DegenerateModelError):
                log_partition_function(apply_diffusion(m, 0.01))
            return
        bits = all_bits(n_sites)
        for p_flip in (0.0, 0.005, 0.01, 0.5):
            net = apply_diffusion(m, p_flip)
            assert max(net.bond_dims) <= chi * (chi + 1) // 2
            logp = log_probability(net, bits)
            expected = oracle.log_probability(oracle.apply_diffusion(m, p_flip), bits)
            if p_flip == 0.0:
                # Where psi nearly cancels, chi^2 contractions already differ
                # from the oracle by 1e-8 relative; probabilities stay close.
                np.testing.assert_array_equal(np.isneginf(logp), np.isneginf(expected))
                np.testing.assert_allclose(np.exp(logp), np.exp(expected), rtol=0, atol=1e-9)
            else:
                assert_rel_close(logp, expected)
            assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)
            drawn = perfect_sample(net, np.random.default_rng(seed), size=200)
            np.testing.assert_array_equal(drawn, oracle.perfect_sample(net, np.random.default_rng(seed), 200))
            assert np.isfinite(log_probability(net, drawn)).all()


class TestTraining:
    @pytest.mark.parametrize("chi", CHIS)
    def test_pair_nll_gradient_canonical(self, chi):
        rng = np.random.default_rng(chi)
        theta = rng.normal(size=(chi, 2, 2, chi + 1))
        lx, rx = rng.normal(size=(50, chi)), rng.normal(size=(50, chi + 1))
        xi, xj = rng.integers(0, 2, 50), rng.integers(0, 2, 50)
        grad = pair_nll_gradient(theta, lx.T, rx.T, pair_onehots(np.stack([xi, xj], axis=1))[0])
        assert_rel_close(grad, oracle.pair_nll_gradient(theta, lx, rx, xi, xj)[1])
        for k, (chi_l, chi_r, n) in enumerate(pair_shapes(chi)):
            theta, lx, rx, xi, xj = conditioned_pair(chi_l, chi_r, n, seed=10 * chi + k)
            grad = pair_nll_gradient(theta, lx.T, rx.T, pair_onehots(np.stack([xi, xj], axis=1))[0])
            assert_rel_close(grad, oracle.pair_nll_gradient(theta, lx, rx, xi, xj)[1])
        # the NLL at pair 0 of a right-canonical model against the oracle's Z = ||theta||^2
        m = random_init(8, chi, EncodingMode.AMPLITUDE, seed=chi)
        m = Mps(tuple(_right_canonicalize(list(m.tensors))), m.mode, m.chi_max)
        bits = random_bits(50, 8, seed=chi)
        lx, rx, _, _ = oracle.born_pair_environments(m, 0, bits)
        ref_nll, _ = oracle.pair_nll_gradient(merge_pair(m, 0), lx, rx, bits[:, 0], bits[:, 1])
        assert_rel_close(born_pair_gradient(m, 0, bits)[0], ref_nll)

    @pytest.mark.parametrize("chi", CHIS)
    def test_pair_nll_gradient_any_gauge(self, chi):
        m = random_init(8, chi, EncodingMode.AMPLITUDE, seed=chi)
        bits = random_bits(60, 8, seed=chi)
        envs = born_pair_environments(m, 3, bits)
        refs = oracle.born_pair_environments(m, 3, bits)
        for got, ref in zip(envs, (refs[0].T, refs[1].T, *refs[2:])):
            assert_rel_close(got, ref)
        theta = merge_pair(m, 3)
        grad = pair_nll_gradient(theta, *envs[:2], pair_onehots(bits)[3], *envs[2:])
        ref_nll, ref_grad = oracle.pair_nll_gradient(theta, *refs[:2], bits[:, 3], bits[:, 4], *refs[2:])
        nll, pair_grad = born_pair_gradient(m, 3, bits)
        assert_rel_close(nll, ref_nll)
        assert_rel_close(grad, ref_grad)
        np.testing.assert_array_equal(pair_grad, grad)
        for k, (chi_l, chi_r, n) in enumerate(pair_shapes(chi)):
            theta, lx, rx, xi, xj = conditioned_pair(chi_l, chi_r, n, seed=20 * chi + k)
            la, rb = random_gram(chi_l, seed=k), random_gram(chi_r, seed=k + 1)
            grad = pair_nll_gradient(theta, lx.T, rx.T, pair_onehots(np.stack([xi, xj], axis=1))[0], la, rb)
            assert_rel_close(grad, oracle.pair_nll_gradient(theta, lx, rx, xi, xj, la, rb)[1])

    @pytest.mark.parametrize("chi", CHIS)
    def test_born_sweep(self, chi):
        # The Born gradient carries 1/psi, so at large rates a sweep turns
        # rounding into O(1) changes: at 0.1 even the oracle fed permuted
        # rows ends elsewhere. The check runs where the oracle is stable.
        bits = random_bits(80, 10, seed=chi)
        cfg = TrainConfig(learning_rate=0.002, chi_max=chi)
        m = train_born_machine(bits, cfg, rng=chi)
        ref = oracle.train_born_machine(bits, cfg, rng=chi)
        perm = np.random.default_rng(0).permutation(len(bits))
        for t, r in zip(oracle.train_born_machine(bits[perm], cfg, rng=chi).tensors, ref.tensors):
            assert_rel_close(t, r)
        assert m.bond_dims == ref.bond_dims
        for t, r in zip(m.tensors, ref.tensors):
            assert_rel_close(t, r)
        # 700 rows on 16 sites, drawn from the fit's own start so that no |psi| is near zero
        assert_sweep_matches_oracle(700, 16, chi)

    @pytest.mark.parametrize("chi", CHIS)
    def test_weighted_pair_nll_gradient(self, chi):
        rng = np.random.default_rng(30 + chi)
        theta = rng.normal(size=(chi, 2, 2, chi + 1))
        lx, rx = rng.normal(size=(40, chi)), rng.normal(size=(40, chi + 1))
        xi, xj = rng.integers(0, 2, 40), rng.integers(0, 2, 40)
        b = repeated_index(40, seed=chi)
        onehot = pair_onehots(np.stack([xi, xj], axis=1))[0]
        grad = pair_nll_gradient(theta, lx.T, rx.T, onehot, w=np.bincount(b) / len(b))
        assert_rel_close(grad, oracle.pair_nll_gradient(theta, lx[b], rx[b], xi[b], xj[b])[1])
        # distinct rows weighted by their copies, in canonical gauge and with Gram matrices
        for k, (chi_l, chi_r, n) in enumerate(pair_shapes(chi)):
            theta, lx, rx, xi, xj = conditioned_pair(chi_l, chi_r, n, seed=30 * chi + k)
            rows = repeated_index(n, seed=k)
            w = np.bincount(rows) / len(rows)
            onehot = pair_onehots(np.stack([xi, xj], axis=1))[0]
            la, rb = random_gram(chi_l, seed=k), random_gram(chi_r, seed=k + 1)
            for grams in ((), (la, rb)):
                grad = pair_nll_gradient(theta, lx.T, rx.T, onehot, *grams, w=w)
                ref = oracle.pair_nll_gradient(theta, lx[rows], rx[rows], xi[rows], xj[rows], *grams)[1]
                assert_rel_close(grad, ref)
        # the NLL over the same repeated rows, read at a pair of a model
        m = random_init(8, chi, EncodingMode.AMPLITUDE, seed=30 + chi)
        bits = random_bits(40, 8, seed=30 + chi)[b]
        refs = oracle.born_pair_environments(m, 3, bits)
        ref_nll, _ = oracle.pair_nll_gradient(merge_pair(m, 3), *refs[:2], bits[:, 3], bits[:, 4], *refs[2:])
        assert_rel_close(born_pair_gradient(m, 3, bits)[0], ref_nll)

    @pytest.mark.parametrize("chi", CHIS)
    def test_born_sweep_on_repeated_rows(self, chi):
        bits = random_bits(30, 10, seed=40 + chi)[repeated_index(30, seed=chi)]
        cfg = TrainConfig(learning_rate=0.002, chi_max=chi)
        m = train_born_machine(bits, cfg, rng=chi)
        ref = oracle.train_born_machine(bits, cfg, rng=chi)
        assert m.bond_dims == ref.bond_dims
        for t, r in zip(m.tensors, ref.tensors):
            assert_rel_close(t, r)
        # 700 draws on 8 sites repeat many strings
        assert_sweep_matches_oracle(700, 8, chi)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        codes=st.lists(st.integers(0, 31), min_size=1, max_size=12),
        copies=st.integers(1, 3),
        chi=st.integers(1, 4),
        learning_rate=st.sampled_from([0.0, 0.002, 0.15, 1.0]),
        data=st.data(),
    )
    def test_born_fit_ignores_row_order_and_copies(self, codes, copies, chi, learning_rate, data):
        bits = (np.array(codes)[:, None] >> np.arange(5)) & 1
        perm = data.draw(st.permutations(range(len(codes))))
        cfg = TrainConfig(learning_rate=learning_rate, chi_max=chi, sweeps=2)

        def fit(rows):
            # A fit that breaks down (chi 1 at rate 1 can) must break down the same way.
            try:
                return train_born_machine(rows, cfg, rng=3)
            except DegenerateModelError as err:
                return str(err)

        m = fit(bits)
        for other in (fit(bits[perm]), fit(np.tile(bits, (copies, 1)))):
            if isinstance(m, str):
                assert other == m
            else:
                assert_same_model(m, other)

    def test_born_overflow_raises_without_warning(self):
        # At chi 1 the split leaves 01000 near zero amplitude, so at rate 1
        # its 1/psi data gradient overflows the merged tensor of pair 1.
        rows = np.array([[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateModelError, match="^pair 1: merged tensor is non-finite"):
                train_born_machine(rows, TrainConfig(1.0, 1, sweeps=2), rng=3)
        assert np.geterr() == before

    @pytest.mark.parametrize("learning_rate", [0.15, 1.0])
    @pytest.mark.parametrize("chi", CHIS)
    def test_born_fit_finite_on_one_string(self, chi, learning_rate):
        # Late in a run every parent can be one string; a single row is the same fit.
        row = np.array([[1, 0, 1, 1, 0, 0, 1, 0, 1, 1]])
        cfg = TrainConfig(learning_rate=learning_rate, chi_max=chi, sweeps=3)
        m = train_born_machine(row, cfg, rng=chi)
        assert all(np.all(np.isfinite(t)) for t in m.tensors)
        assert np.isfinite(log_probability(m, row[0]))
        assert_same_model(m, train_born_machine(np.repeat(row, 500, axis=0), cfg, rng=chi))

    @pytest.mark.parametrize("chi", CHIS)
    def test_positive_sweep(self, chi):
        bits = random_bits(80, 10, seed=chi)
        init = random_init(10, chi, EncodingMode.DIRECT_POSITIVE, seed=chi)
        for learning_rate in (0.0, 0.15, 1.0):
            for sweeps in (1, 2):
                cfg = TrainConfig(learning_rate=learning_rate, chi_max=chi, sweeps=sweeps)
                try:
                    ref = oracle.train_positive_mps(bits, cfg, init)
                except DegenerateModelError as err:
                    # A product state (chi 1) cannot hold 80 random rows; at rate 1
                    # a clamp zeroes one of them, and both must say so.
                    with pytest.raises(DegenerateModelError) as got:
                        train_positive_mps(bits, cfg, init)
                    assert str(got.value) == str(err)
                    continue
                m = train_positive_mps(bits, cfg, init)
                for t, r in zip(m.tensors, ref.tensors):
                    assert_rel_close(t, r)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n_sites=st.integers(2, 10),
        chi=st.integers(1, 4),
        learning_rate=st.floats(0.0, 1.0),
        sweeps=st.integers(1, 2),
        n_rows=st.integers(1, 60),
        density=st.floats(0.0, 1.0),
        copies=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_positive_fit_finite_or_typed_failure(
        self, n_sites, chi, learning_rate, sweeps, n_rows, density, copies, seed
    ):
        # The library carries Z as one more environment column, the oracle in
        # its own summed chain: both fit the same tensors or fail with the
        # same message. The oracle does not check its steps, so where the
        # library stops at a non-finite step the oracle's tensors reach Mps,
        # which rejects them.
        rng = np.random.default_rng(seed)
        bits = (rng.random((n_rows, n_sites)) < density).astype(np.int8)
        if copies:  # ten copies of one row: the TN3 late-run case
            bits = np.repeat(bits[:1], 10, axis=0)
        init = random_init(n_sites, chi, EncodingMode.DIRECT_POSITIVE, seed=seed)
        cfg = TrainConfig(learning_rate=learning_rate, chi_max=chi, sweeps=sweeps)

        def fit(train):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return train(bits, cfg, init)
            except DegenerateModelError as err:
                return str(err)
            except ValueError as err:
                assert str(err).endswith("non-finite entries")
                return "non-finite"

        m, ref = fit(train_positive_mps), fit(oracle.train_positive_mps)
        if ref == "non-finite":
            assert isinstance(m, str) and m.endswith("site tensor is non-finite after a gradient step")
            return
        if isinstance(m, str) or isinstance(ref, str):
            assert m == ref
            return
        assert m.mode is EncodingMode.DIRECT_POSITIVE
        assert m.bond_dims == init.bond_dims
        assert all(np.all(np.isfinite(t)) and np.all(t >= 0) for t in m.tensors)
        for t, r in zip(m.tensors, ref.tensors):
            assert_rel_close(t, r)

    def test_positive_step_overflow_names_the_pair(self):
        # Rate 1 on 53 sparse rows overflows the tensors of pair 0 in the
        # second sweep; the final model check used to report it as a plain
        # ValueError ("site 0: non-finite entries"), an input error.
        r = np.random.default_rng(74)
        n_sites, n_rows, chi = (int(r.integers(lo, hi)) for lo, hi in ((2, 35), (1, 60), (1, 5)))
        assert (n_sites, n_rows, chi) == (8, 53, 2)
        bits = r.random((n_rows, n_sites)) < r.random()
        init = random_init(n_sites, chi, EncodingMode.DIRECT_POSITIVE, 74)
        cfg = TrainConfig(1.0, chi, sweeps=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateModelError, match=r"^pair 0: site tensor is non-finite after a gradient step$"):
                train_positive_mps(bits, cfg, init)


class TestNoEinsum:
    """The TN1 and TN3 hot paths run with ``numpy.einsum`` disabled."""

    @pytest.fixture(autouse=True)
    def no_einsum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.einsum called on the hot path")

        monkeypatch.setattr(np, "einsum", refuse)

    @pytest.mark.parametrize("preset", ["TN1", "TN3"])
    def test_one_generation(self, preset):
        sampler = build_solver({"preset": preset}).make_model()
        parents = random_bits(20, 16, seed=1)
        rng = np.random.default_rng(2)
        sampler.fit(parents, rng)
        children = sampler.sample(50, rng)
        assert np.all(np.isfinite(log_probability(sampler.model, children)))
        net = apply_diffusion(sampler.model, 0.01)
        assert np.all(np.isfinite(log_probability(net, children)))

    def test_runs_with_kl_observer(self):
        problem = build_problem({"kind": "onemax", "n_bits": 12})
        for spec in (
            {"preset": "TN1", "n_parents": 30, "n_children": 30, "n_init": 30, "generations": 2,
             "diagnostics": {"reference": {}}},
            {"preset": "TN3", "generations": 2},
        ):
            records = run_single(problem, spec, seed=0, optimum=None)
            assert len(records) == 2
