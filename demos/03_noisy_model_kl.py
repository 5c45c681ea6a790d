"""Mutation makes the generative model worse and the optimizer better.

A small equal-weighted portfolio run with bit-flip mutation, alongside a
noiseless reference model trained each generation on the same parents.
The diffused (noisy) model sits farther from the selection distribution
in KL, yet the run converges well: exploration is doing useful work.

Run: python3 demos/03_noisy_model_kl.py   (about half a minute)
"""


from tneda import (
    AdaptiveGapSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    EdaConfig,
    PortfolioProblem,
    TrainConfig,
    random_covariance,
    run_with_reference,
)

sigma = random_covariance(24, seed=5)
problem = PortfolioProblem(sigma, n_min=5, n_max=8)
train = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=1, svd_cutoff=1e-6)
cfg = EdaConfig(
    n_parents=300, n_children=300, generations=12,
    mutation_rate=0.01, call_budget=5000, n_init=100,
)

records = list(run_with_reference(
    problem,
    BornMachineSampler(train),
    BornMachineSampler(train),
    BoltzmannSelection(AdaptiveGapSchedule()),
    cfg,
    rng=3,
))

print("gen   best objective   KL(noisy)   KL(noiseless)   delta")
for record in records:
    print(
        f"{record.generation:3d}   {record.best_objective:14.6e}"
        f"   {record.kl_primary:9.4f}   {record.kl_reference:13.4f}"
        f"   {record.kl_delta:+.4f}"
    )

deltas = [r.kl_delta for r in records if r.kl_delta is not None]
print(f"\nKL delta positive in {sum(d > 0 for d in deltas)}/{len(deltas)} generations:")
print("the mutated model is consistently the worse generative model,")
print("even while the optimization run converges.")
