"""Tensor-network estimation-of-distribution algorithms for binary optimization.

MPS generative models (Born machine and direct positive), a chain Bayesian
network and genetic-algorithm baselines, the selection/mutation machinery
around them, exact KL diagnostics including the bit-flip diffusion
construction, and a config-driven benchmark harness.

The package namespace holds what the README's quick tour and the demos
use; everything else is imported from its submodule (``tneda.mps``,
``tneda.models``, ``tneda.evolve``, ``tneda.diagnostics``,
``tneda.experiment``, ``tneda.problems``, ``tneda.ordering``).
"""

from .diagnostics import run_with_reference
from .evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    EdaConfig,
    mutate,
    run_eda,
)
from .experiment import SOLVER_PRESETS
from .models import TrainConfig, born_nll, train_born_machine
from .mps import (
    EncodingMode,
    apply_diffusion,
    partition_function,
    perfect_sample,
    probability,
    random_init,
)
from .ordering import correlation_distance, distance_matrix, leaf_order, ward_linkage
from .problems import OneMax, PortfolioProblem, knapsack_optimum_dp, random_covariance, random_knapsack

__version__ = "0.1.0"
