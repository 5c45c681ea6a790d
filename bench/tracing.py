"""Spans around the public functions of each tneda module, installed from outside.

Callers bind imported names in their own module (``from .mps import
perfect_sample``), so a wrapper must replace the name where the call looks
it up: ``tneda.evolve.perfect_sample``, not ``tneda.mps.perfect_sample``.
:data:`SPANS` lists those lookup sites. Spans (name, start, end, parent) are
kept in memory and written once, after the run; per-layer metrics are
derived from them. ``numpy.einsum`` is too frequent and too small for a
span, so it gets a call counter and an accumulated time instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (owner, attribute, span name, row counter or None). A row counter maps a
# call's result to the number of bit strings the call handled.
SPANS = [
    ("tneda.experiment", "build_problem", "experiment.build_problem", None),
    ("tneda.experiment", "resolve_optimum", "experiment.resolve_optimum", None),
    ("tneda.experiment", "order_assets", "ordering.order_assets", None),
    ("tneda.experiment", "run_eda", "evolve.run_eda", None),
    ("tneda.evolve", "boltzmann_select", "evolve.select", None),
    ("tneda.evolve", "tournament_select", "evolve.select", None),
    ("tneda.evolve", "greedy_select", "evolve.select", None),
    ("tneda.evolve", "mutate", "evolve.mutate", lambda out: out.shape[0]),
    ("tneda.evolve.CrossoverSampler", "sample", "evolve.crossover", None),
    ("tneda.evolve", "train_born_machine", "models.train_born_machine", None),
    ("tneda.evolve", "train_positive_mps", "models.train_positive_mps", None),
    ("tneda.evolve", "fit_chain_bayes", "models.chain_bayes", None),
    ("tneda.evolve", "sample_chain_bayes", "models.chain_bayes", None),
    ("tneda.evolve", "perfect_sample", "mps.perfect_sample", lambda out: out.shape[0]),
    ("tneda.models", "pair_nll_gradient", "models.pair_nll_gradient", None),
    ("tneda.models", "canonicalize_split", "mps.canonicalize_split", None),
    ("tneda.models", "log_probability", "mps.log_probability", lambda out: np.size(out)),
    ("tneda.diagnostics", "apply_diffusion", "mps.apply_diffusion", None),
    ("tneda.diagnostics", "kl_details", "diagnostics.kl_details", None),
]


def _owner(path: str):
    if path in sys.modules:
        return sys.modules[path]
    parent, attr = path.rsplit(".", 1)
    return getattr(_owner(parent), attr)


class Tracer:
    """In-memory span store with a parent stack, plus per-name row counts.

    ``install`` replaces the lookup sites with traced wrappers and
    ``uninstall`` puts the originals back, so untraced and traced rounds
    can alternate in one process.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack = [-1]
        self.rows: dict[str, int] = defaultdict(int)
        self.einsum_calls = 0
        self.einsum_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, rows=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1]]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if rows is not None:
                tracer.rows[name] += int(rows(result))
            return result

        return traced

    def _observed(self, observer):
        """The KL observer as a span, counting the selection-pool strings it scores."""
        traced = self.wrap(observer, "diagnostics.observer")

        def observe(ctx):
            self.rows["diagnostics.observer"] += ctx.pool_strings.shape[0]
            traced(ctx)

        return observe

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every lookup site in :data:`SPANS`, the diagnostics observer and einsum."""
        for path, attr, name, rows in SPANS:
            owner = _owner(path)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, rows))

        diagnostics = _owner("tneda.diagnostics")
        run_eda = self.wrap(diagnostics.run_eda, "evolve.run_eda")

        def run_eda_observed(*args, observer=None, **kwargs):
            if observer is not None:
                observer = self._observed(observer)
            return run_eda(*args, observer=observer, **kwargs)

        self._patch(diagnostics, "run_eda", run_eda_observed)

        einsum = np.einsum

        @functools.wraps(einsum)
        def counted_einsum(*args, **kwargs):
            start = time.perf_counter()
            try:
                return einsum(*args, **kwargs)
            finally:
                self.einsum_s += time.perf_counter() - start
                self.einsum_calls += 1

        self._patch(np, "einsum", counted_einsum)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive seconds and call counts by span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def self_seconds(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(
            (end - start) - child[i]
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        )

    def seconds_under(self, name: str, parent_name: str) -> float:
        """Total time of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            end - start
            for span_name, start, end, parent in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def dump(self, fh, label: str) -> None:
        """Write the spans as JSON lines tagged with ``label``."""
        for name, start, end, parent in self.spans:
            record = {"round": label, "name": name, "start": start, "end": end, "parent": parent}
            fh.write(json.dumps(record) + "\n")
