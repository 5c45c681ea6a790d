"""Exact KL diagnostics for generative quality during a run.

Every generation the parents are iid draws from a known Boltzmann
distribution over the selection pool, so KL(selection distribution ||
model) can be summed exactly over the pool. A reference model is trained
on the same parents as a bystander: it sees identical data but its own
random stream, and nothing it does feeds back into the run.

The model actually driving the run is "sample, then flip bits", whose
distribution is the diffused model; its KL uses the exact diffusion
construction rather than the raw network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolve import BoltzmannSelection, EdaConfig, RunRecord, boltzmann_weights, run_eda, top_k_pool
from .models import FiniteDistribution, model_log_probability, model_kl_vs_target
from .mps import Mps, apply_diffusion


@dataclass(frozen=True)
class KlReport:
    """Per-generation KL of the run's model and the reference model.

    ``delta = kl_primary - kl_reference`` when both are finite, else
    ``None``; the ``*_zero_support`` counts say on how many pool strings
    each model put probability zero (nonzero count means infinite KL).
    """

    generation: int
    kl_primary: float
    kl_reference: float
    delta: float | None
    primary_zero_support: int
    reference_zero_support: int


@dataclass(frozen=True)
class ReferenceRunResult:
    records: list[RunRecord]
    reports: list[KlReport]


def boltzmann_target(bank, temperature: float, pool_size: int | None = None) -> FiniteDistribution:
    """The selection distribution as an explicit finite distribution."""
    strings, values = top_k_pool(bank, pool_size)
    return FiniteDistribution(strings.copy(), boltzmann_weights(values, temperature))


def kl_details(model, target: FiniteDistribution) -> tuple[float, int]:
    """KL(target || model) plus the count of zero-probability support points."""
    mask = target.probs > 0
    t = target.probs[mask]
    logm = np.atleast_1d(model_log_probability(model, target.strings[mask]))
    zeros = int(np.isneginf(logm).sum())
    if zeros:
        return math.inf, zeros
    return float(np.sum(t * (np.log(t) - logm))), 0


def diffused_kl(model: Mps, p_flip: float, target: FiniteDistribution | dict) -> float:
    """KL(target || model-followed-by-bit-flips), exactly.

    The diffusion operator is contracted into the probability network and
    per-string probabilities are evaluated by ordinary contraction; the
    cost is polynomial in N regardless of the support size.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    diffused = model if p_flip == 0.0 else apply_diffusion(model, p_flip)
    return model_kl_vs_target(diffused, target)


def run_with_reference(
    problem,
    primary,
    reference,
    selection: BoltzmannSelection,
    cfg: EdaConfig,
    rng,
    kl_p_flip: float | None = None,
    mirror_reference_rng: bool = False,
    observer=None,
) -> ReferenceRunResult:
    """Run the EDA on ``primary`` while training ``reference`` in parallel.

    Each generation both models train on the identical parent sample; only
    the primary's samples drive the run. Both exact KLs against that
    generation's Boltzmann selection distribution are recorded.

    Args:
        problem: objective to optimize.
        primary: sampler adapter used by the run.
        reference: bystander sampler adapter, same model family.
        selection: must be Boltzmann (the target distribution is the
            selection distribution).
        cfg: loop configuration; ``cfg.mutation_rate`` doubles as the
            diffusion rate for the primary's KL unless ``kl_p_flip``
            overrides it.
        rng: generator or seed for the run.
        kl_p_flip: diffusion applied to the primary model when scoring its
            KL; default ``cfg.mutation_rate``.
        mirror_reference_rng: give the reference the same per-generation
            training stream as the primary, so identical configs produce
            delta = 0 exactly.

    Returns:
        Run records (KL fields filled) and one :class:`KlReport` per
        generation.
    """
    if not isinstance(selection, BoltzmannSelection):
        raise ValueError("KL diagnostics require Boltzmann selection")
    diffusion = cfg.mutation_rate if kl_p_flip is None else kl_p_flip
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    ref_stream = rng.spawn(1)[0]

    records: list[RunRecord] = []
    reports: list[KlReport] = []

    def observe(ctx):
        target = FiniteDistribution(
            ctx.pool_strings.copy(), boltzmann_weights(ctx.pool_values, ctx.temperature)
        )
        ref_seed = ctx.fit_seed if mirror_reference_rng else int(ref_stream.integers(0, 2**63 - 1))
        reference.fit(ctx.parents, np.random.default_rng(ref_seed))

        primary_model = ctx.model.model
        if diffusion > 0:
            if not isinstance(primary_model, Mps):
                raise NotImplementedError(
                    "diffused KL is implemented for tensor-network models only"
                )
            primary_model = apply_diffusion(primary_model, diffusion)
        kl_primary, zeros_primary = kl_details(primary_model, target)
        kl_reference, zeros_reference = kl_details(reference.model, target)
        delta = (
            kl_primary - kl_reference
            if math.isfinite(kl_primary) and math.isfinite(kl_reference)
            else None
        )
        reports.append(
            KlReport(
                generation=ctx.generation,
                kl_primary=kl_primary,
                kl_reference=kl_reference,
                delta=delta,
                primary_zero_support=zeros_primary,
                reference_zero_support=zeros_reference,
            )
        )
        records.append(
            replace(
                ctx.record,
                kl_primary=kl_primary,
                kl_reference=kl_reference,
                kl_delta=delta,
            )
        )
        if observer is not None:
            observer(ctx)

    run_eda(problem, primary, selection, cfg, rng, observer=observe)
    return ReferenceRunResult(records=records, reports=reports)
