"""The benchmark's view of tneda: names it looks up must exist.

``bench/tracing.py`` wraps tneda functions at the sites where callers look
them up (``tneda.evolve.perfect_sample``, ``tneda.models.pair_nll_gradient``
and so on), and the workload and check modules import tneda names. A
rename in ``src/`` that misses one of them breaks the benchmark command,
so these tests make it fail here first. Nothing under ``bench/`` is run
beyond the tracer's install and uninstall.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tneda.diagnostics  # noqa: F401  (the tracer patches these modules in place)
import tneda.evolve  # noqa: F401
import tneda.experiment  # noqa: F401
import tneda.models  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracing import SPANS, Tracer, _owner  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = {(path, attr): getattr(_owner(path), attr) for path, attr, _, _ in SPANS}
    einsum = np.einsum
    tracer = Tracer()
    tracer.install()
    try:
        for (path, attr), fn in originals.items():
            assert getattr(_owner(path), attr) is not fn, f"{path}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (path, attr), fn in originals.items():
        assert getattr(_owner(path), attr) is fn, f"{path}.{attr} was not restored"
    assert np.einsum is einsum


def test_born_sweep_calls_traced_layers_per_pair():
    # The per-layer metrics count the trainer's calls through these names;
    # a fit that bypassed them would read zero there. One sweep over N sites
    # visits 2N - 3 pairs.
    bits = np.random.default_rng(0).integers(0, 2, size=(40, 8))
    tracer = Tracer()
    tracer.install()
    try:
        tneda.models.train_born_machine(bits, tneda.models.TrainConfig(0.05, 3, sweeps=1), rng=1)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("models.pair_nll_gradient") == 2 * 8 - 3
    assert names.count("mps.canonicalize_split") == 2 * 8 - 3


def test_tn3_generation_is_one_fit_and_one_sample():
    # tn3-knapsack's per-layer metrics divide by generations: each one must
    # fit the positive MPS once and sample it once, through the traced names.
    problem = tneda.experiment.build_problem({"kind": "onemax", "n_bits": 12})
    tracer = Tracer()
    tracer.install()
    try:
        records = tneda.experiment.run_single(problem, {"preset": "TN3", "generations": 5}, 1, None)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert len(records) == 5
    assert names.count("models.train_positive_mps") == 5
    assert names.count("mps.perfect_sample") == 5


@pytest.mark.parametrize("stanza", [
    {"preset": "BN1"},
    {"preset": "BN2"},
    {"model": "chain_bayes", "selection": "greedy"},
])
def test_generation_is_one_select(stanza):
    # evolve.select_s sums the traced boltzmann_select, tournament_select
    # and greedy_select spans: each selection kind must call one per generation.
    problem = tneda.experiment.build_problem({"kind": "onemax", "n_bits": 12})
    sizes = {"n_parents": 20, "n_children": 20, "n_init": 20, "generations": 4, "call_budget": 4000}
    tracer = Tracer()
    tracer.install()
    try:
        records = tneda.experiment.run_single(problem, {**stanza, **sizes}, 1, None)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert len(records) == 4
    assert names.count("evolve.select") == 4


@pytest.mark.parametrize("script", ["workloads.py", "checks.py", "setup_probe.py"])
def test_bench_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    modules = {}  # local name -> tneda module imported under it
    imported = [
        (node.module, alias)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "tneda"
        for alias in node.names
    ]
    assert imported, f"{script} imports nothing from tneda"
    for module, alias in imported:
        value = getattr(importlib.import_module(module), alias.name, None)
        assert value is not None, f"{script}: {module}.{alias.name} is missing"
        if isinstance(value, types.ModuleType):
            modules[alias.asname or alias.name] = value
    # attributes read off an imported tneda module, e.g. experiment.run_single
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{script}: {module.__name__}.{node.attr} is missing"
