"""KL diagnostics: targets, diffused KL, and the parallel reference run."""

import itertools
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import tneda.diagnostics
from tneda.diagnostics import kl_details, run_with_reference
from tneda.evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    EdaConfig,
    boltzmann_weights,
    generations,
    top_k_pool,
)
from tneda.models import FiniteDistribution, TrainConfig
from tneda.mps import DegenerateModelError, EncodingMode, apply_diffusion, random_init
from tneda.problems import OneMax, PortfolioProblem, random_covariance


def all_bitstrings(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)


def selection_target(pool, temperature, pool_size=None):
    """The Boltzmann selection distribution over the best ``pool_size`` entries.

    Built as the KL observer of ``run_with_reference`` builds its target.
    """
    strings, values = top_k_pool(pool, pool_size)
    return FiniteDistribution(strings.copy(), boltzmann_weights(values, temperature))


class TestBoltzmannTarget:
    def test_point_mass(self):
        target = selection_target((np.array([[0, 1]]), np.array([2.0])), 1.0)
        np.testing.assert_allclose(target.probs, [1.0])

    def test_equal_objectives_uniform(self):
        strings = all_bitstrings(2)
        target = selection_target((strings, np.zeros(4)), 0.5)
        np.testing.assert_allclose(target.probs, np.full(4, 0.25))

    def test_log3_gap(self):
        strings = np.array([[0, 0], [1, 1]], dtype=np.int8)
        target = selection_target((strings, np.array([0.0, math.log(3.0)])), 1.0)
        np.testing.assert_allclose(target.probs, [0.75, 0.25])

    def test_pool_restriction(self):
        strings = all_bitstrings(2)
        target = selection_target((strings, np.array([3.0, 1.0, 0.0, 2.0])), 1e9, pool_size=2)
        assert target.strings.shape == (2, 2)
        np.testing.assert_allclose(target.probs, [0.5, 0.5], atol=1e-9)


class TestDiffusedKl:
    def make_target(self, n, seed):
        rng = np.random.default_rng(seed)
        strings = all_bitstrings(n)
        keep = rng.permutation(2**n)[: 2 ** (n - 1)]
        w = rng.random(keep.size)
        return FiniteDistribution(strings[keep], w / w.sum())

    def test_zero_flip_matches_plain_kl(self):
        m = random_init(6, 3, EncodingMode.AMPLITUDE, seed=0)
        target = self.make_target(6, 1)
        assert kl_details(apply_diffusion(m, 0.0), target)[0] == pytest.approx(kl_details(m, target)[0])

    def test_half_flip_entropy_identity(self):
        m = random_init(7, 2, EncodingMode.AMPLITUDE, seed=2)
        target = self.make_target(7, 3)
        expected = 7 * math.log(2.0) - target.entropy()
        assert kl_details(apply_diffusion(m, 0.5), target)[0] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("p_flip", [0.005, 0.01, 0.025])
    def test_matches_brute_force_equation(self, p_flip):
        n = 8
        m = random_init(n, 3, EncodingMode.AMPLITUDE, seed=4)
        target = self.make_target(n, 5)
        # oracle: apply the full 2^N x 2^N bit-flip kernel to the dense law
        strings = all_bitstrings(n)
        vals = np.empty(2**n)
        for pos, bits in enumerate(strings):
            v = np.ones((1, 1))
            for site, b in zip(m.tensors, bits):
                v = v @ site[:, b, :]
            vals[pos] = v[0, 0]
        q = vals**2 / (vals**2).sum()
        d = np.array([[1 - p_flip, p_flip], [p_flip, 1 - p_flip]])
        kernel = np.ones((1, 1))
        for _ in range(n):
            kernel = np.kron(kernel, d)
        q_tilde = kernel @ q
        index = target.strings.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
        expected = float(np.sum(target.probs * (np.log(target.probs) - np.log(q_tilde[index]))))
        assert kl_details(apply_diffusion(m, p_flip), target)[0] == pytest.approx(expected, abs=1e-9)

    def test_smooth_in_p_flip(self):
        m = random_init(6, 2, EncodingMode.AMPLITUDE, seed=6)
        target = self.make_target(6, 7)
        h = 1e-6
        base = kl_details(apply_diffusion(m, 0.05), target)[0]
        assert abs(kl_details(apply_diffusion(m, 0.05 + h), target)[0] - base) < 1e-3

    def test_rejects_bad_p(self):
        m = random_init(4, 2, EncodingMode.AMPLITUDE, seed=8)
        with pytest.raises(ValueError):
            kl_details(apply_diffusion(m, -0.1), self.make_target(4, 9))[0]

    def test_zero_support_reported(self):
        from tneda.mps import Mps

        tensors = []
        for b in (1, 0, 1):
            t = np.zeros((1, 2, 1))
            t[0, b, 0] = 1.0
            tensors.append(t)
        point = Mps(tuple(tensors), EncodingMode.DIRECT_POSITIVE, 1)
        target = FiniteDistribution(np.array([[0, 0, 0], [1, 0, 1]]), np.array([0.5, 0.5]))
        kl, zeros = kl_details(point, target)
        assert kl == math.inf
        assert zeros == 1


def small_run(mutation_rate, mirror, seed=0, reference_cfg=None):
    problem = OneMax(8)
    train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
    primary = BornMachineSampler(train)
    reference = BornMachineSampler(reference_cfg or train)
    cfg = EdaConfig(
        n_parents=40, n_children=40, generations=5, mutation_rate=mutation_rate,
        call_budget=400, n_init=40,
    )
    return list(run_with_reference(
        problem, primary, reference, BoltzmannSelection(AnnealedSchedule()), cfg,
        rng=seed, mirror_reference_rng=mirror,
    ))


class TestRunWithReference:
    def test_identical_configs_mirrored_rng_zero_delta(self):
        records = small_run(mutation_rate=0.0, mirror=True)
        assert records
        for record in records:
            assert record.kl_delta == pytest.approx(0.0, abs=1e-12)

    def test_reports_and_records_align(self):
        records = small_run(mutation_rate=0.01, mirror=False, seed=3)
        assert [rec.generation for rec in records] == list(range(1, len(records) + 1))
        for rec in records:
            assert rec.kl_primary >= 0
            assert rec.kl_reference >= 0
            if rec.kl_delta is not None:
                assert rec.kl_delta == pytest.approx(rec.kl_primary - rec.kl_reference)

    def test_reference_is_bystander(self):
        """The primary trajectory must not depend on the reference config."""
        a = small_run(0.01, mirror=False, seed=5)
        big = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=2)
        b = small_run(0.01, mirror=False, seed=5, reference_cfg=big)
        assert [r.best_objective for r in a] == [r.best_objective for r in b]
        assert [r.kl_primary for r in a] == [r.kl_primary for r in b]

    def test_portfolio_run_with_adaptive_temperature(self):
        sigma = random_covariance(12, seed=1)
        problem = PortfolioProblem(sigma, n_min=3, n_max=5)
        train = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=1)
        cfg = EdaConfig(
            n_parents=50, n_children=50, generations=4, mutation_rate=0.01,
            call_budget=500, n_init=50,
        )
        records = list(run_with_reference(
            problem,
            BornMachineSampler(train),
            BornMachineSampler(train),
            BoltzmannSelection(AdaptiveGapSchedule()),
            cfg,
            rng=9,
        ))
        assert len(records) == 4
        assert all(math.isfinite(r.kl_primary) for r in records)

    def test_kl_primary_matches_dense_oracle(self):
        """The in-run diffused KL equals the full 2^N x 2^N computation.

        A plain run with the same seed replays the primary trajectory (the
        reference is a bystander), exposing each generation's model, pool,
        and temperature for an independent dense recomputation.
        """
        problem = OneMax(8)
        train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
        cfg = EdaConfig(
            n_parents=30, n_children=30, generations=3, mutation_rate=0.01,
            call_budget=300, n_init=30,
        )
        selection = BoltzmannSelection(AnnealedSchedule())
        records = list(run_with_reference(
            problem, BornMachineSampler(train), BornMachineSampler(train),
            selection, cfg, rng=17,
        ))

        captured = [
            (ctx.pool_strings.copy(), ctx.pool_values.copy(), ctx.temperature, ctx.model.model)
            for ctx in generations(problem, BornMachineSampler(train), selection, cfg, rng=17)
        ]

        d = np.array([[0.99, 0.01], [0.01, 0.99]])
        kernel = np.ones((1, 1))
        for _ in range(8):
            kernel = np.kron(kernel, d)
        strings = all_bitstrings(8)
        for record, (pool, values, temperature, model) in zip(records, captured):
            vals = np.empty(256)
            for pos, bits in enumerate(strings):
                v = np.ones((1, 1))
                for site, b in zip(model.tensors, bits):
                    v = v @ site[:, b, :]
                vals[pos] = v[0, 0]
            q_tilde = kernel @ (vals**2 / (vals**2).sum())
            w = np.exp(-(values - values.min()) / temperature)
            w /= w.sum()
            idx = pool.astype(np.int64) @ (1 << np.arange(7, -1, -1))
            oracle = float(np.sum(w * (np.log(w) - np.log(q_tilde[idx]))))
            assert record.kl_primary == pytest.approx(oracle, abs=1e-9)

    def test_requires_boltzmann_selection(self):
        from tneda.evolve import TournamentSelection

        with pytest.raises(ValueError):
            list(run_with_reference(
                OneMax(6),
                BornMachineSampler(TrainConfig(learning_rate=0.1, chi_max=2)),
                BornMachineSampler(TrainConfig(learning_rate=0.1, chi_max=2)),
                TournamentSelection(3),
                EdaConfig(n_parents=10, n_children=10, generations=2, call_budget=100, n_init=10),
                rng=0,
            ))


@pytest.fixture(params=[True, False], ids=["worker", "inline"])
def bystander_path(request, monkeypatch):
    """Force the KL observer's bystander work into a forked worker, or inline."""
    monkeypatch.setattr(tneda.diagnostics, "_spare_core", lambda: request.param)
    yield request.param
    assert multiprocessing.active_children() == []


class _FailingReference(BornMachineSampler):
    """Born reference whose second fit raises, as a degenerate fit would."""

    def __init__(self, train):
        super().__init__(train)
        self.fits = 0

    def fit(self, parents, rng):
        self.fits += 1
        if self.fits == 2:
            raise DegenerateModelError("reference fit 2 is degenerate")
        super().fit(parents, rng)


class _SlowReference(BornMachineSampler):
    """Born reference that logs each fit to a file and takes a while over it."""

    def __init__(self, train, log):
        super().__init__(train)
        self.log = log

    def fit(self, parents, rng):
        with open(self.log, "a") as fh:
            fh.write("fit\n")
        time.sleep(0.2)
        super().fit(parents, rng)


class _FailingProblem(OneMax):
    """OneMax whose evaluation raises from its ``fail_at``-th batch on."""

    def __init__(self, n_bits, fail_at):
        super().__init__(n_bits)
        self.batches = 0
        self.fail_at = fail_at

    def evaluate_batch(self, x):
        self.batches += 1
        if self.batches >= self.fail_at:
            raise RuntimeError("objective failed")
        return super().evaluate_batch(x)


class TestBystanderWorker:
    """The forked bystander worker and the inline path give the same run."""

    @pytest.mark.parametrize("mutation_rate, mirror", [(0.01, False), (0.0, True), (0.0, False)])
    def test_worker_matches_inline(self, monkeypatch, mutation_rate, mirror):
        results = {}
        for forced in (True, False):
            monkeypatch.setattr(tneda.diagnostics, "_spare_core", lambda forced=forced: forced)
            results[forced] = small_run(mutation_rate, mirror, seed=11)
        assert results[True] == results[False]  # KL floats compare exactly
        if mirror:
            assert all(record.kl_delta == 0.0 for record in results[True])
        assert multiprocessing.active_children() == []

    def test_worker_leaves_the_callers_reference_unfitted(self, bystander_path):
        train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
        reference = BornMachineSampler(train)
        cfg = EdaConfig(n_parents=20, n_children=20, generations=2, call_budget=200, n_init=20)
        list(run_with_reference(OneMax(6), BornMachineSampler(train), reference,
                                BoltzmannSelection(AnnealedSchedule()), cfg, rng=1))
        assert (reference.model is None) == bystander_path

    def test_reference_error_keeps_type_and_message(self, bystander_path):
        train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
        cfg = EdaConfig(n_parents=20, n_children=20, generations=4, call_budget=400, n_init=20)
        with pytest.raises(DegenerateModelError, match="reference fit 2 is degenerate"):
            list(run_with_reference(OneMax(6), BornMachineSampler(train), _FailingReference(train),
                                    BoltzmannSelection(AnnealedSchedule()), cfg, rng=2))

    def test_loop_error_cancels_pending_tasks(self, bystander_path, tmp_path):
        train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
        cfg = EdaConfig(n_parents=20, n_children=20, generations=10, call_budget=400, n_init=20)
        log = tmp_path / "fits.log"
        # batch 1 is the initial population, so generations 1-7 finish and 8 raises
        with pytest.raises(RuntimeError, match="objective failed"):
            list(run_with_reference(_FailingProblem(8, fail_at=9), BornMachineSampler(train),
                                    _SlowReference(train, log), BoltzmannSelection(AnnealedSchedule()), cfg, rng=3))
        fits = len(log.read_text().splitlines())
        if bystander_path:
            # the running task and the two the pool queues behind it may finish; the rest are cancelled
            assert 1 <= fits <= 3
        else:
            assert fits == 7

    def test_closing_after_the_first_record_leaves_no_child(self, bystander_path, tmp_path):
        train = TrainConfig(learning_rate=0.1, chi_max=2, sweeps=1)
        cfg = EdaConfig(n_parents=20, n_children=20, generations=10, call_budget=400, n_init=20)
        log = tmp_path / "fits.log"
        records = run_with_reference(OneMax(8), BornMachineSampler(train), _SlowReference(train, log),
                                     BoltzmannSelection(AnnealedSchedule()), cfg, rng=3)
        first = next(records)
        records.close()
        assert first.generation == 1 and first.kl_primary is not None
        assert multiprocessing.active_children() == []
        fits = len(log.read_text().splitlines())
        # inline, generation 1's record comes before generation 2 starts; a worker never runs all ten
        assert (1 <= fits < 10) if bystander_path else fits == 1


class TestSpareCore:
    BLAS = tneda.diagnostics._BLAS_THREAD_VARS

    def test_unpinned_blas_runs_inline(self, monkeypatch):
        for var in self.BLAS:
            monkeypatch.setenv(var, "1")
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert not tneda.diagnostics._spare_core()
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert not tneda.diagnostics._spare_core()

    def test_pinned_blas_needs_two_cpus(self, monkeypatch):
        for var in self.BLAS:
            monkeypatch.setenv(var, "1")
        spare = len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1
        assert tneda.diagnostics._spare_core() == spare

    def test_other_threads_run_inline(self, monkeypatch):
        for var in self.BLAS:
            monkeypatch.setenv(var, "1")
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert not tneda.diagnostics._spare_core()
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_multiprocessing_child_runs_inline(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        for var in self.BLAS:
            monkeypatch.setenv(var, "1")
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(tneda.diagnostics._spare_core).result(timeout=60) is False
