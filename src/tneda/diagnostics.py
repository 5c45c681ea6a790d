"""Exact KL diagnostics for generative quality during a run.

Every generation the parents are iid draws from a known Boltzmann
distribution over the selection pool, so KL(selection distribution ||
model) can be summed exactly over the pool. A reference model is trained
on the same parents as a bystander: it sees identical data but its own
random stream, and nothing it does feeds back into the run.

The model actually driving the run is "sample, then flip bits", whose
distribution is the diffused model; its KL scores every pool string with
the exact diffusion construction, for a Born machine of bond chi a DIRECT
network of bond chi(chi+1)/2 (:func:`tneda.mps.apply_diffusion`).

:func:`run_with_reference` consumes :func:`tneda.evolve.generations` and
yields each generation's record with its KL fields filled as soon as its
scores are known.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import replace
from functools import partial

import numpy as np

from .evolve import BoltzmannSelection, EdaConfig, RunRecord, boltzmann_weights, generations
from .evolve import run_eda  # noqa: F401  unused here; bench/tracing.py patches this binding
from .models import FiniteDistribution, model_log_probability
from .mps import Mps, apply_diffusion


def kl_details(model, target: FiniteDistribution) -> tuple[float, int]:
    """KL(target || model) plus the count of zero-probability support points.

    The sum runs exactly over the target's support; the KL is ``inf`` when
    the model puts zero probability on a point the target weights. For
    the model of "sample, then flip each bit with probability p", pass
    ``apply_diffusion(model, p)``.
    """
    mask = target.probs > 0
    t = target.probs[mask]
    logm = np.atleast_1d(model_log_probability(model, target.strings[mask]))
    zeros = int(np.isneginf(logm).sum())
    if zeros:
        return math.inf, zeros
    return float(np.sum(t * (np.log(t) - logm))), 0


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spare_core() -> bool:
    """Whether a forked worker can run beside this process on a core of its own.

    Not when BLAS may start threads of its own (they would contend with the
    worker) or the process runs other threads (forking a process with
    threads is unsafe), when fewer than two CPUs are usable, when there is
    no fork start method, or inside a multiprocessing child, such as a seed
    of ``run_experiment(jobs > 1)``.
    """
    if any(os.environ.get(var) != "1" for var in _BLAS_THREAD_VARS) or threading.active_count() > 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return False
    import multiprocessing  # only here: it costs about 13 ms to import

    return "fork" in multiprocessing.get_all_start_methods() and multiprocessing.parent_process() is None


def _score_generation(
    reference, mutation_rate, parents, ref_seed, primary_model, pool_strings, pool_values, temperature
) -> tuple[float, int, float, int]:
    """One generation's bystander work: fit the reference, score both models.

    Returns (KL, zero-support count) of the primary model diffused at
    ``mutation_rate`` and of the reference, against the Boltzmann
    distribution over the pool at ``temperature``.
    """
    target = FiniteDistribution(pool_strings, boltzmann_weights(pool_values, temperature))
    reference.fit(parents, np.random.default_rng(ref_seed))
    if mutation_rate > 0:
        primary_model = apply_diffusion(primary_model, mutation_rate)
    return (*kl_details(primary_model, target), *kl_details(reference.model, target))


_held_score = None  # in a bystander worker: the run's scoring task, reference included


def _hold(score) -> None:
    global _held_score
    _held_score = score


def _score_held(*args):
    return _held_score(*args)


def _with_kl(record: RunRecord, scores: tuple[float, int, float, int]) -> RunRecord:
    """``record`` with the KL fields of its generation's scores filled.

    ``kl_delta = kl_primary - kl_reference`` when both are finite, else ``None``.
    """
    kl_primary, _, kl_reference, _ = scores
    finite = math.isfinite(kl_primary) and math.isfinite(kl_reference)
    delta = kl_primary - kl_reference if finite else None
    return replace(record, kl_primary=kl_primary, kl_reference=kl_reference, kl_delta=delta)


def run_with_reference(
    problem,
    primary,
    reference,
    selection: BoltzmannSelection,
    cfg: EdaConfig,
    rng,
    mirror_reference_rng: bool = False,
):
    """Run the EDA on ``primary`` while training ``reference`` in parallel.

    Each generation both models train on the identical parent sample; only
    the primary's samples drive the run. Both exact KLs against that
    generation's Boltzmann selection distribution are recorded.

    The reference fit and both KLs never feed back into the run, so when a
    core is spare (see :func:`_spare_core`) they run in one forked worker
    process beside the loop, one task per generation; otherwise each runs
    inline when its generation ends. Both ways yield the same records. A
    worker error is raised with its type and message when its generation's
    record is due. The reference is then fitted in the worker, so the
    caller's ``reference.model`` is not updated. Closing the generator
    early cancels the tasks not yet started and waits for the worker to
    exit.

    Args:
        problem: objective to optimize.
        primary: sampler adapter used by the run.
        reference: bystander sampler adapter, same model family.
        selection: must be Boltzmann (the target distribution is the
            selection distribution).
        cfg: loop configuration; the primary's KL is scored on its model
            diffused at ``cfg.mutation_rate``, the rate of the mutation
            that follows its sampling.
        rng: generator or seed for the run.
        mirror_reference_rng: give the reference the same per-generation
            training stream as the primary, so identical configs produce
            delta = 0 exactly.

    Yields:
        The run's records in generation order, KL fields filled: inline at
        once, with a worker as soon as the oldest pending task is done,
        never waiting on the newest; the rest after the last generation.
    """
    if not isinstance(selection, BoltzmannSelection):
        raise ValueError("KL diagnostics require Boltzmann selection")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    ref_stream = rng.spawn(1)[0]
    score = partial(_score_generation, reference, cfg.mutation_rate)
    pool = None
    if _spare_core():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked, the worker inherits the task and the reference sampler it holds for the run
        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(1, mp_context=context, initializer=_hold, initargs=(score,))
    submit = score if pool is None else partial(pool.submit, _score_held)
    pending = deque()  # (record, its scores or in a worker their future), oldest first
    try:
        for ctx in generations(problem, primary, selection, cfg, rng):
            ref_seed = ctx.fit_seed if mirror_reference_rng else int(ref_stream.integers(0, 2**63 - 1))
            primary_model = ctx.model.model
            if cfg.mutation_rate > 0 and not isinstance(primary_model, Mps):
                raise NotImplementedError("diffused KL is implemented for tensor-network models only")
            # a worker's arrays are sent after the loop moves on; banked rows and parents are never rewritten
            args = (ctx.parents, ref_seed, primary_model, ctx.pool_strings, ctx.pool_values, ctx.temperature)
            pending.append((ctx.record, submit(*args)))
            while pending and (pool is None or pending[0][1].done()):
                record, scores = pending.popleft()
                yield _with_kl(record, scores if pool is None else scores.result())
        for record, future in pending:
            yield _with_kl(record, future.result())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
