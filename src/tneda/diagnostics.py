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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolve import BoltzmannSelection, EdaConfig, RunRecord, boltzmann_weights, run_eda
from .models import FiniteDistribution, model_log_probability
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


def run_with_reference(
    problem,
    primary,
    reference,
    selection: BoltzmannSelection,
    cfg: EdaConfig,
    rng,
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
        cfg: loop configuration; the primary's KL is scored on its model
            diffused at ``cfg.mutation_rate``, the rate of the mutation
            that follows its sampling.
        rng: generator or seed for the run.
        mirror_reference_rng: give the reference the same per-generation
            training stream as the primary, so identical configs produce
            delta = 0 exactly.

    Returns:
        Run records (KL fields filled) and one :class:`KlReport` per
        generation.
    """
    if not isinstance(selection, BoltzmannSelection):
        raise ValueError("KL diagnostics require Boltzmann selection")
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
        if cfg.mutation_rate > 0:
            if not isinstance(primary_model, Mps):
                raise NotImplementedError(
                    "diffused KL is implemented for tensor-network models only"
                )
            primary_model = apply_diffusion(primary_model, cfg.mutation_rate)
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
