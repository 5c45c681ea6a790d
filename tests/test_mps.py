"""Tests for the MPS core: contraction, sampling, diffusion, splitting.

Expected values come from brute-force enumeration oracles computed here,
independent of the library's sequential-contraction path.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tneda.mps as mps_module
from tneda.mps import (
    DegenerateModelError,
    EncodingMode,
    Mps,
    apply_diffusion,
    canonicalize_split,
    log_probability,
    partition_function,
    perfect_sample,
    probability,
    random_init,
)


def all_bitstrings(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)


def chain_value(m, bits):
    """Oracle: raw chain value by direct matrix products."""
    v = np.ones((1, 1))
    for site, b in zip(m.tensors, bits):
        v = v @ site[:, b, :]
    return v[0, 0]


def brute_force_distribution(m):
    """Oracle: (Z, probabilities over all strings in lexicographic order)."""
    vals = np.array([chain_value(m, bits) for bits in all_bitstrings(m.n_sites)])
    weights = vals**2 if m.mode is EncodingMode.AMPLITUDE else vals
    z = weights.sum()
    return z, weights / z


def uniform_direct_mps(n):
    """All-ones chi=1 direct-positive chain: the uniform distribution."""
    ones = np.ones((1, 2, 1))
    return Mps((ones,) * n, EncodingMode.DIRECT_POSITIVE, 1)


def point_mass_mps(target):
    """Direct-positive chain that puts all mass on one string."""
    tensors = []
    for b in target:
        t = np.zeros((1, 2, 1))
        t[0, b, 0] = 1.0
        tensors.append(t)
    return Mps(tuple(tensors), EncodingMode.DIRECT_POSITIVE, 1)


class TestRandomInit:
    def test_single_site_shape(self):
        m = random_init(1, 1, EncodingMode.AMPLITUDE, seed=3)
        assert m.tensors[0].shape == (1, 2, 1)

    def test_direct_positive_entries(self):
        m = random_init(5, 3, EncodingMode.DIRECT_POSITIVE, seed=7)
        assert all(np.all(t > 0) for t in m.tensors)

    def test_deterministic_under_seed(self):
        a = random_init(6, 4, EncodingMode.AMPLITUDE, seed=11)
        b = random_init(6, 4, EncodingMode.AMPLITUDE, seed=11)
        for ta, tb in zip(a.tensors, b.tensors):
            np.testing.assert_array_equal(ta, tb)

    def test_bond_structure(self):
        m = random_init(4, 3, EncodingMode.AMPLITUDE, seed=0)
        assert m.bond_dims == (1, 3, 3, 3, 1)

    @pytest.mark.parametrize("n,chi", [(0, 2), (3, 0)])
    def test_rejects_degenerate_sizes(self, n, chi):
        with pytest.raises(ValueError):
            random_init(n, chi, EncodingMode.AMPLITUDE, seed=0)


class TestMpsInvariants:
    def test_rejects_bond_mismatch(self):
        t0 = np.ones((1, 2, 3))
        t1 = np.ones((2, 2, 1))
        with pytest.raises(ValueError):
            Mps((t0, t1), EncodingMode.AMPLITUDE, 4)

    def test_rejects_negative_direct_positive(self):
        t = -np.ones((1, 2, 1))
        with pytest.raises(ValueError):
            Mps((t,), EncodingMode.DIRECT_POSITIVE, 1)

    @pytest.mark.parametrize("mode", list(EncodingMode))
    def test_names_first_non_finite_site(self, mode):
        tensors = [np.ones((1, 2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 1))]
        tensors[1][1, 0, 1] = np.nan
        tensors[3][0, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"^site 1: non-finite entries$"):
            Mps(tuple(tensors), mode, 2)
        tensors[1][1, 0, 1] = -np.inf
        with pytest.raises(ValueError, match=r"^site 1: non-finite entries$"):
            Mps(tuple(tensors), mode, 2)
        tensors[1][1, 0, 1] = 1.0
        with pytest.raises(ValueError, match=r"^site 3: non-finite entries$"):
            Mps(tuple(tensors), mode, 2)

    def test_rejects_chi_above_cap(self):
        t0 = np.ones((1, 2, 3))
        t1 = np.ones((3, 2, 1))
        with pytest.raises(ValueError):
            Mps((t0, t1), EncodingMode.AMPLITUDE, 2)

    def test_tensors_read_only(self):
        m = random_init(3, 2, EncodingMode.AMPLITUDE, seed=0)
        with pytest.raises(ValueError):
            m.tensors[0][0, 0, 0] = 1.0


class TestPartitionFunction:
    def test_all_ones_direct(self):
        assert partition_function(uniform_direct_mps(3)) == pytest.approx(8.0)

    def test_single_site_amplitude(self):
        t = np.ones((1, 2, 1))
        m = Mps((t,), EncodingMode.AMPLITUDE, 1)
        assert partition_function(m) == pytest.approx(2.0)

    @pytest.mark.parametrize("mode", [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE])
    def test_matches_enumeration(self, mode):
        m = random_init(10, 3, mode, seed=42)
        z_oracle, _ = brute_force_distribution(m)
        assert partition_function(m) == pytest.approx(z_oracle, rel=1e-10)

    def test_zero_network_degenerate(self):
        t = np.zeros((1, 2, 1))
        zero = Mps((t, t.copy()[..., :1]), EncodingMode.DIRECT_POSITIVE, 1)
        # Z = (1 - 3) * (1 + 1) = -4: no distribution, although one string has a positive value
        negative = Mps((np.array([[[1.0], [-3.0]]]), np.ones((1, 2, 1))), EncodingMode.DIRECT, 1)
        for m, message in ((zero, "is zero"), (negative, "is not positive")):
            for entry in (partition_function, lambda m: perfect_sample(m, np.random.default_rng(0), size=5)):
                with pytest.raises(DegenerateModelError, match=message):
                    entry(m)


class TestProbability:
    def test_single_site_symmetry(self):
        t = np.ones((1, 2, 1))
        m = Mps((t,), EncodingMode.AMPLITUDE, 1)
        assert probability(m, [0]) == pytest.approx(0.5)
        assert probability(m, [1]) == pytest.approx(0.5)

    def test_uniform_direct(self):
        m = uniform_direct_mps(3)
        for bits in all_bitstrings(3):
            assert probability(m, bits) == pytest.approx(1.0 / 8.0)

    @pytest.mark.parametrize("mode", [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE])
    def test_matches_enumeration(self, mode):
        m = random_init(8, 3, mode, seed=5)
        _, p_oracle = brute_force_distribution(m)
        p_lib = probability(m, all_bitstrings(8))
        np.testing.assert_allclose(p_lib, p_oracle, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_probabilities_sum_to_one(self, n):
        m = random_init(n, 4, EncodingMode.AMPLITUDE, seed=n)
        total = probability(m, all_bitstrings(n)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_batch_matches_single(self):
        m = random_init(6, 2, EncodingMode.DIRECT_POSITIVE, seed=9)
        batch = all_bitstrings(6)[:13]
        p_batch = probability(m, batch)
        for row, p in zip(batch, p_batch):
            assert probability(m, row) == pytest.approx(p, rel=1e-14)

    def test_dimension_mismatch(self):
        m = random_init(5, 2, EncodingMode.AMPLITUDE, seed=0)
        with pytest.raises(ValueError):
            probability(m, [0, 1, 0])

    def test_log_probability_zero_string(self):
        m = point_mass_mps([1, 0, 1])
        assert log_probability(m, [1, 0, 1]) == pytest.approx(0.0)
        assert log_probability(m, [0, 0, 1]) == -np.inf


class TestPerfectSample:
    def test_point_mass_always_returns_target(self):
        target = [1, 0, 1, 1, 0]
        m = point_mass_mps(target)
        draws = perfect_sample(m, np.random.default_rng(0), size=200)
        np.testing.assert_array_equal(draws, np.tile(target, (200, 1)))

    def test_uniform_chi_square(self):
        m = uniform_direct_mps(3)
        draws = perfect_sample(m, np.random.default_rng(123), size=80_000)
        idx = draws @ (1 << np.arange(2, -1, -1))
        counts = np.bincount(idx, minlength=8)
        expected = 80_000 / 8.0
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.99, df=7)

    @pytest.mark.parametrize("mode,seed", [(EncodingMode.AMPLITUDE, 21), (EncodingMode.DIRECT_POSITIVE, 22)])
    def test_total_variation_small(self, mode, seed):
        m = random_init(8, 3, mode, seed=seed)
        _, p_oracle = brute_force_distribution(m)
        draws = perfect_sample(m, np.random.default_rng(seed), size=100_000)
        idx = draws.astype(np.int64) @ (1 << np.arange(7, -1, -1))
        emp = np.bincount(idx, minlength=256) / 100_000
        tv = 0.5 * np.abs(emp - p_oracle).sum()
        assert tv < 0.02

    def test_single_draw_shape(self):
        m = uniform_direct_mps(4)
        x = perfect_sample(m, np.random.default_rng(1))
        assert x.shape == (4,)
        assert set(np.unique(x)) <= {0, 1}

    @pytest.mark.parametrize("mode", [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE])
    def test_samples_have_positive_probability(self, mode):
        m = random_init(10, 3, mode, seed=41)
        draws = perfect_sample(m, np.random.default_rng(42), size=2000)
        assert draws.shape == (2000, 10)
        assert np.all(probability(m, draws) > 0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        mode=st.sampled_from([EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE]),
        n_sites=st.integers(1, 10),
        chi=st.integers(1, 4),
        zeroed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_sums_to_one_and_draws_have_support(self, mode, n_sites, chi, zeroed, seed):
        m = random_init(n_sites, chi, mode, seed=seed)
        if zeroed:  # about 30% of entries zero: some strings, or all, get value zero
            rng = np.random.default_rng(seed)
            m = Mps(tuple(np.where(rng.random(t.shape) < 0.3, 0.0, t) for t in m.tensors), mode, chi)
        values = np.array([chain_value(m, bits) for bits in all_bitstrings(n_sites)])
        if not values.any():
            with pytest.raises(DegenerateModelError):
                perfect_sample(m, np.random.default_rng(seed), size=10)
            return
        assert probability(m, all_bitstrings(n_sites)).sum() == pytest.approx(1.0, abs=1e-12)
        draws = perfect_sample(m, np.random.default_rng(seed), size=500)
        assert np.all(values[draws.astype(np.int64) @ (1 << np.arange(n_sites - 1, -1, -1))] != 0)


class TestApplyDiffusion:
    def brute_diffused(self, m, p_flip):
        """Oracle: full 2^N x 2^N application of the bit-flip kernel."""
        d = np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
        _, q = brute_force_distribution(m)
        kernel = np.ones((1, 1))
        for _ in range(m.n_sites):
            kernel = np.kron(kernel, d)
        return kernel @ q

    def test_zero_flip_is_identity(self):
        m = random_init(6, 2, EncodingMode.AMPLITUDE, seed=3)
        diffused = apply_diffusion(m, 0.0)
        bits = all_bitstrings(6)
        np.testing.assert_allclose(probability(diffused, bits), probability(m, bits), atol=1e-12)

    def test_half_flip_is_uniform(self):
        m = random_init(5, 3, EncodingMode.AMPLITUDE, seed=8)
        diffused = apply_diffusion(m, 0.5)
        p = probability(diffused, all_bitstrings(5))
        np.testing.assert_allclose(p, np.full(32, 1.0 / 32.0), atol=1e-12)

    @pytest.mark.parametrize("mode", [EncodingMode.AMPLITUDE, EncodingMode.DIRECT_POSITIVE])
    def test_matches_equation_oracle(self, mode):
        m = random_init(8, 3, mode, seed=17)
        q_tilde = self.brute_diffused(m, 0.01)
        p_lib = probability(apply_diffusion(m, 0.01), all_bitstrings(8))
        np.testing.assert_allclose(p_lib, q_tilde, atol=1e-10)

    def test_normalization_preserved(self):
        m = random_init(9, 3, EncodingMode.AMPLITUDE, seed=2)
        diffused = apply_diffusion(m, 0.07)
        total = probability(diffused, all_bitstrings(9)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_markov_composition(self):
        p1, p2 = 0.04, 0.11
        combined = p1 + p2 - 2 * p1 * p2
        m = random_init(8, 2, EncodingMode.AMPLITUDE, seed=31)
        twice = apply_diffusion(apply_diffusion(m, p1), p2)
        once = apply_diffusion(m, combined)
        bits = all_bitstrings(8)
        np.testing.assert_allclose(probability(twice, bits), probability(once, bits), atol=1e-10)

    def test_rejects_bad_p_flip(self):
        m = uniform_direct_mps(3)
        with pytest.raises(ValueError):
            apply_diffusion(m, 1.5)


class TestCanonicalizeSplit:
    def test_rank_one_theta(self):
        left = np.random.default_rng(0).normal(size=(3, 2))
        right = np.random.default_rng(1).normal(size=(2, 4))
        theta = np.einsum("ls,tr->lstr", left, right).reshape(3, 2, 2, 4)
        a, b = canonicalize_split(theta, chi_max=None, cutoff=1e-12)
        assert a.shape[2] == 1
        rebuilt = np.einsum("lsk,ktr->lstr", a, b)
        np.testing.assert_allclose(rebuilt, theta, atol=1e-12)

    def test_exact_reconstruction_without_truncation(self):
        theta = np.random.default_rng(12).normal(size=(3, 2, 2, 3))
        a, b = canonicalize_split(theta, chi_max=None, cutoff=0.0)
        rebuilt = np.einsum("lsk,ktr->lstr", a, b)
        np.testing.assert_allclose(rebuilt, theta, atol=1e-12)

    def test_truncation_error_equals_svd_tail(self):
        theta = np.random.default_rng(13).normal(size=(4, 2, 2, 4))
        s = np.linalg.svd(theta.reshape(8, 8), compute_uv=False)
        a, b = canonicalize_split(theta, chi_max=2, cutoff=0.0)
        rebuilt = np.einsum("lsk,ktr->lstr", a, b)
        err = np.linalg.norm(rebuilt - theta)
        assert err == pytest.approx(np.linalg.norm(s[2:]), abs=1e-10)

    def test_absorb_left_reconstructs(self):
        theta = np.random.default_rng(14).normal(size=(2, 2, 2, 5))
        a, b = canonicalize_split(theta, chi_max=None, cutoff=0.0, absorb="left")
        rebuilt = np.einsum("lsk,ktr->lstr", a, b)
        np.testing.assert_allclose(rebuilt, theta, atol=1e-12)

    def test_bond_agreement(self):
        theta = np.random.default_rng(15).normal(size=(5, 2, 2, 3))
        a, b = canonicalize_split(theta, chi_max=4, cutoff=1e-6)
        assert a.shape[2] == b.shape[0] <= 4

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateModelError):
            canonicalize_split(np.zeros((2, 2, 2, 2)), chi_max=None, cutoff=0.0)

    @pytest.mark.parametrize("absorb", ["left", "right"])
    @pytest.mark.parametrize("chi_l", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("chi_r", [1, 2, 3, 4, 5])
    def test_all_zero_message(self, chi_l, chi_r, absorb):
        with pytest.raises(DegenerateModelError, match="^cannot split an all-zero tensor$"):
            canonicalize_split(np.zeros((chi_l, 2, 2, chi_r)), chi_max=3, cutoff=1e-6, absorb=absorb)

    def test_nan_entry_raises_linalg_error(self):
        theta = np.random.default_rng(16).normal(size=(3, 2, 2, 3))
        theta[1, 0, 1, 2] = np.nan
        # The LAPACK gufunc reports its non-convergence as an invalid value.
        direct = mps_module._svd_s is not None
        warns = pytest.warns(RuntimeWarning, match="invalid value") if direct else contextlib.nullcontext()
        with warns, pytest.raises(np.linalg.LinAlgError):
            canonicalize_split(theta, chi_max=None, cutoff=1e-6)

    def test_nan_entry_raises_linalg_error_when_invalid_raises(self):
        # np.linalg.svd raises LinAlgError under np.seterr(invalid="raise"), and so does _svd
        theta = np.random.default_rng(16).normal(size=(3, 2, 2, 3))
        theta[1, 0, 1, 2] = np.nan
        with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            canonicalize_split(theta, chi_max=None, cutoff=1e-6)

    def test_qr_of_nan_matches_np_linalg_when_invalid_raises(self):
        # np.linalg.qr returns NaN factors for a NaN input rather than raising; _qr does the same
        a = np.random.default_rng(16).normal(size=(6, 4))
        a[1, 2] = np.nan
        with np.errstate(all="raise"):
            q, r = mps_module._qr(a)
            want_q, want_r = np.linalg.qr(a)
        np.testing.assert_array_equal(q, want_q)
        np.testing.assert_array_equal(r, want_r)

    def test_nan_entry_raises_linalg_error_through_np_linalg(self, monkeypatch):
        monkeypatch.setattr(mps_module, "_svd_s", None)
        theta = np.random.default_rng(16).normal(size=(3, 2, 2, 3))
        theta[1, 0, 1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            canonicalize_split(theta, chi_max=None, cutoff=1e-6)

    @pytest.mark.parametrize("absorb", ["left", "right"])
    def test_value_at_cutoff_is_kept(self, absorb):
        # Singular values exactly 2, 1 and 0.5; at cutoff 0.25 the last one
        # sits on the threshold, 0.25 * 2 == 0.5, and is kept.
        mat = np.zeros((6, 4))
        mat[0, 0], mat[3, 1], mat[5, 3] = 2.0, 1.0, 0.5
        theta = mat.reshape(3, 2, 2, 2)
        np.testing.assert_array_equal(np.linalg.svd(mat, compute_uv=False), [2.0, 1.0, 0.5, 0.0])
        a, b = canonicalize_split(theta, chi_max=None, cutoff=0.25, absorb=absorb)
        assert a.shape[2] == b.shape[0] == 3
        a, b = canonicalize_split(theta, chi_max=None, cutoff=np.nextafter(0.25, 1.0), absorb=absorb)
        assert a.shape[2] == b.shape[0] == 2


def _test_matrix(kind: str, rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "rank_deficient":
        rank = max(1, min(rows, cols) - 1 - seed % 3)
        return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    if kind == "transposed":
        return rng.normal(size=(cols, rows)).T
    if kind == "strided":
        return rng.normal(size=(2 * rows, 3 * cols))[::2, ::3]
    return rng.normal(size=(rows, cols))


def _same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestLapackHelpers:
    """``_svd`` and ``_qr`` call numpy's LAPACK gufuncs and give np.linalg's bits."""

    @given(
        kind=st.sampled_from(["dense", "zero", "rank_deficient", "transposed", "strided"]),
        rows=st.integers(1, 25),
        cols=st.integers(1, 25),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None, database=None)
    def test_bit_equal_to_np_linalg(self, kind, rows, cols, seed):
        a = _test_matrix(kind, rows, cols, seed)
        before = a.copy()
        svd, qr = mps_module._svd(a), mps_module._qr(a)
        _same_bits(svd, np.linalg.svd(a, full_matrices=False))
        _same_bits(qr, np.linalg.qr(a))
        _same_bits([a], [before])  # LAPACK's QR works on a copy
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_svd_s", "_qr_r_raw", "_qr_reduced"):
                patch.setattr(mps_module, name, None)
            _same_bits(mps_module._svd(a), svd)
            _same_bits(mps_module._qr(a), qr)

    def test_gufuncs_found(self):
        # The numpy this suite runs on has the gufunc names the helpers look up.
        if int(np.__version__.split(".")[0]) >= 2:
            assert None not in (mps_module._svd_s, mps_module._qr_r_raw, mps_module._qr_reduced)
