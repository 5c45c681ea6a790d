"""The four benchmark workloads and one measured run of each.

A workload writes seeded instance files in the formats ``tneda run`` reads,
then calls ``tneda.experiment.build_problem``, ``resolve_optimum`` and
``run_single`` in this process, as ``tneda run`` does for one seed. A round
is one ``run_single`` call per solver; a run repeats whole rounds until its
time is up. Every round uses the same seed, so every round does the same
work and its records must repeat exactly.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import inputs
from tneda import experiment
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # instance family: knapsack, portfolio or maxsat
    solvers: tuple[dict, ...]
    runs_per_solver: int = 1  # run_single seeds per solver in one round

    def run_seeds(self, seed: int) -> list[int]:
        return [seed * self.runs_per_solver + j for j in range(self.runs_per_solver)]


# Generation counts are fixed and stop well short of the call budget, so a
# run does the same amount of work whatever its arithmetic rounds to.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tn1-knapsack",
            "knapsack",
            ({"preset": "TN1", "generations": 30, "n_init": 1000, "call_budget": 60_000},),
        ),
        Workload(
            "tn3-knapsack",
            "knapsack",
            ({"preset": "TN3", "generations": 200, "n_init": 100, "call_budget": 60_000},),
        ),
        Workload(
            "kl-portfolio",
            "portfolio",
            (
                {
                    "preset": "TN1",
                    "chi": 5,
                    "learning_rate": 0.1,
                    "schedule": "adaptive",
                    "pool_size": None,
                    "mutation_rate": 0.01,
                    "n_init": 100,
                    "generations": 8,
                    "call_budget": 40_000,
                    "diagnostics": {"reference": {}},
                },
            ),
            # the pool the KL observer scores grows at a rate set by the run's
            # own trajectory; six seeds per round even that out
            runs_per_solver=6,
        ),
        Workload(
            "baselines-maxsat",
            "maxsat",
            tuple(
                {"preset": preset, "generations": 40, "n_init": 1000, "call_budget": 60_000}
                for preset in ("BN1", "BN2", "GA1", "GA2")
            ),
        ),
    )
}


@dataclass
class Instance:
    """A workload's inputs on disk plus the benchmark's own oracle for them."""

    workload: Workload
    seed: int
    problem_spec: dict
    oracle: object

    def objective(self, order=None):
        if self.workload.kind == "portfolio":
            return lambda x: self.oracle.objective(x, order)
        return self.oracle.objective

    def optimum(self) -> float | None:
        return None if self.workload.kind == "portfolio" else self.oracle.optimum()


def write_instance(workload: Workload, seed: int, directory: Path) -> Instance:
    directory.mkdir(parents=True, exist_ok=True)
    if workload.kind == "knapsack":
        oracle = inputs.knapsack(seed)
        path = directory / "knapsack.txt"
        spec = {"kind": "knapsack", "path": str(path)}
    elif workload.kind == "portfolio":
        oracle = inputs.portfolio(seed)
        path = directory / "covariance.csv"
        spec = {
            "kind": "portfolio",
            "path": str(path),
            "mode": "covariance",
            "n_min": inputs.PORTFOLIO_N_MIN,
            "n_max": inputs.PORTFOLIO_N_MAX,
            "penalty_c": inputs.PORTFOLIO_PENALTY,
            "ward_ordering": True,
        }
    else:
        oracle = inputs.planted_cnf(seed)
        path = directory / "planted.cnf"
        spec = {"kind": "maxsat", "path": str(path)}
    path.write_text(oracle.text())
    for solver in workload.solvers:  # the same run through the CLI: tneda run --config <file>
        config = {"problem": spec, "solver": solver, "seeds": workload.run_seeds(seed), "out": str(directory / "results")}
        (directory / f"{solver['preset']}.json").write_text(json.dumps(config, indent=1) + "\n")
    return Instance(workload, seed, spec, oracle)


def measure_setup(instance: Instance, directory: Path) -> list[float]:
    """Set-up seconds in fresh interpreters, one per repeat (see setup_probe.py)."""
    spec_path = directory / "setup.json"
    spec_path.write_text(json.dumps({"problem": instance.problem_spec, "solvers": instance.workload.solvers}))
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(probe), str(SRC), str(spec_path)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Run:
    spec: dict
    seed: int
    records: list[dict] | None  # None when run_single raised
    speed: float  # host-speed factor of this call, see hostspeed.py


class Checker:
    """Checks each run as soon as it ends, so only one run's strings are held."""

    def __init__(self, instance: Instance, order):
        self.instance = instance
        self.order = order
        self.first_records: dict[int, list[dict]] = {}  # by position in the round
        self.failures: list[str] = []

    def __call__(self, position: int, run: Run, recorder: checks.RecordingProblem) -> None:
        instance = self.instance
        portfolio = instance.workload.kind == "portfolio"
        if run.records is None or (portfolio and self.order is None):
            return
        found = checks.check_run(
            run.records,
            recorder,
            instance.objective(self.order),
            n_init=run.spec["n_init"],
            call_budget=run.spec["call_budget"],
            optimum=instance.optimum(),
            rtol=1e-9 if portfolio else 0.0,
            kl="diagnostics" in run.spec,
            max_relative_error=(
                checks.TN1_MAX_RELATIVE_ERROR if instance.workload.name == "tn1-knapsack" else None
            ),
        )
        first = self.first_records.setdefault(position, run.records)
        if not checks.same_records(first, run.records):
            found.append("a repeated round with the same seed gave different records")
        self.failures += [f"{run.spec['preset']} seed {run.seed}: {message}" for message in found]


def run_round(problem, instance: Instance, optimum, check: Checker, tracer: Tracer | None = None):
    """One ``run_single`` call per solver and run seed, each checked after its clock stops.

    Each call's wall time is rescaled with host calibrations taken right
    before and after it. Returns the rescaled and the raw summed wall time
    of the calls, and their runs.
    """
    runs = []
    elapsed = raw = 0.0
    before = hostspeed.calibration_s()
    seeds = instance.workload.run_seeds(instance.seed)
    for position, (spec, seed) in enumerate((spec, seed) for spec in instance.workload.solvers for seed in seeds):
        recorder = checks.RecordingProblem(problem)
        if tracer is not None:
            recorder.evaluate = tracer.wrap(recorder.evaluate, "problems.evaluate_batch", len)
        start = time.perf_counter()
        try:
            records = experiment.run_single(recorder, spec, seed, optimum)
        except Exception:  # a failed operation is counted, not fatal
            records = None
        took = time.perf_counter() - start
        after = hostspeed.calibration_s()
        speed = hostspeed.scale(before, after)
        before = after
        elapsed += took * speed
        raw += took
        runs.append(Run(spec, seed, records, speed))
        check(position, runs[-1], recorder)
    return elapsed, raw, runs


def generation_ms(runs: list[Run]) -> list[float]:
    """Per-generation wall times from the differences of ``wall_time_s``, rescaled."""
    out = []
    for run in runs:
        if run.records is not None:
            wall = [0.0] + [r["wall_time_s"] for r in run.records]
            out += [1000.0 * (b - a) * run.speed for a, b in zip(wall, wall[1:])]
    return out


def layer_metrics(tracer: Tracer, runs: list[Run]) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    seconds, calls = tracer.totals()
    children = tracer.rows["evolve.mutate"]
    new = sum(r["n_new"] for run in runs if run.records for r in run.records)
    return {
        "mps.perfect_sample_s": seconds["mps.perfect_sample"],
        "mps.perfect_sample_calls": calls["mps.perfect_sample"],
        "mps.sampled_strings": tracer.rows["mps.perfect_sample"],
        "mps.log_probability_s": seconds["mps.log_probability"],
        "mps.scored_strings": tracer.rows["mps.log_probability"],
        "mps.apply_diffusion_s": seconds["mps.apply_diffusion"],
        "mps.canonicalize_split_s": seconds["mps.canonicalize_split"],
        "mps.canonicalize_split_calls": calls["mps.canonicalize_split"],
        "models.train_born_machine_s": seconds["models.train_born_machine"],
        "models.train_born_machine_calls": calls["models.train_born_machine"],
        "models.pair_nll_gradient_s": seconds["models.pair_nll_gradient"],
        "models.pair_nll_gradient_calls": calls["models.pair_nll_gradient"],
        "models.train_positive_mps_s": seconds["models.train_positive_mps"],
        "models.chain_bayes_s": seconds["models.chain_bayes"],
        "evolve.run_eda_self_s": tracer.self_seconds("evolve.run_eda"),
        "evolve.select_s": seconds["evolve.select"],
        "evolve.mutate_s": seconds["evolve.mutate"],
        "evolve.crossover_s": seconds["evolve.crossover"],
        "evolve.children": children,
        "evolve.new_evaluations": new,
        "evolve.new_eval_ratio": new / children if children else 0.0,
        "problems.evaluate_batch_s": seconds["problems.evaluate_batch"],
        "problems.evaluated_rows": tracer.rows["problems.evaluate_batch"],
        "diagnostics.observer_s": seconds["diagnostics.observer"],
        "diagnostics.kl_details_s": seconds["diagnostics.kl_details"],
        "diagnostics.reference_fit_s": tracer.seconds_under(
            "models.train_born_machine", "diagnostics.observer"
        ),
        "diagnostics.target_strings": tracer.rows["diagnostics.observer"],
        "numpy.einsum_calls": tracer.einsum_calls,
        "numpy.einsum_s": tracer.einsum_s,
    }


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    seconds, _ = tracer.totals()
    return {
        "ordering.order_assets_s": seconds["ordering.order_assets"],
        "experiment.build_problem_s": seconds["experiment.build_problem"],
        "experiment.resolve_optimum_s": seconds["experiment.resolve_optimum"],
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    failures: list[str]
    notes: list[str]


def _scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Result:
    """Set up, measure rounds for ``seconds``, check every round, and report.

    Untraced: the end-to-end metrics. Traced: untraced and traced rounds
    alternate, and the per-layer metrics come from the traced ones. Times
    are rescaled to the reference host speed (see hostspeed.py).
    """
    workload = WORKLOADS[name]
    directory = work_dir / f"{name}-seed{seed}"
    instance = write_instance(workload, seed, directory)
    before = hostspeed.calibration_s()
    setup_raw = measure_setup(instance, directory)
    setup_scale = hostspeed.scale(before, hostspeed.calibration_s())

    tracers: list[tuple[str, Tracer]] = []
    setup_rows = []
    for repeat in range(SETUP_REPEATS if trace else 1):
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            problem = experiment.build_problem(instance.problem_spec)
            optimum = experiment.resolve_optimum(problem, "auto")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            setup_rows.append(_scaled(setup_metrics(tracer), setup_scale))
            tracers.append((f"setup-{repeat}", tracer))

    order = None
    if workload.kind == "portfolio":
        order, problem_error = checks.recover_order(problem.sigma, instance.oracle.sigma)
    check = Checker(instance, order)
    if order is None and workload.kind == "portfolio":
        check.failures.append(problem_error)

    attempted = failed = 0
    plain_raw, plain_s, traced_s, gen_ms, layer_rows = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if trace and len(plain_s) > len(traced_s) else None
        if tracer is not None:
            tracer.install()
        try:
            elapsed, raw, runs = run_round(problem, instance, optimum, check, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(runs)
        failed += sum(run.records is None for run in runs)
        if tracer is None:
            plain_raw.append(raw)
            plain_s.append(elapsed)
            gen_ms += generation_ms(runs)
        else:
            traced_s.append(elapsed)
            layer_rows.append(_scaled(layer_metrics(tracer, runs), elapsed / raw))
            tracers.append((f"round-{len(traced_s)}", tracer))
        if time.perf_counter() >= deadline and (not trace or traced_s):
            break

    notes = [
        f"unscaled: setup_s {statistics.median(setup_raw):.4f} s (host speed {setup_scale:.3f}), "
        f"run_s {statistics.median(plain_raw):.4f} s (host speed {statistics.median(plain_s) / statistics.median(plain_raw):.3f})"
    ]
    if trace:
        metrics = {**medians(layer_rows), **medians(setup_rows)}
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        with open(directory / "spans.jsonl", "w") as fh:
            for label, tracer in tracers:
                tracer.dump(fh, label)
    else:
        metrics = {
            "setup_s": statistics.median(setup_raw) * setup_scale,
            "run_s": statistics.median(plain_s),
            "gen_p50_ms": statistics.median(gen_ms),
            "peak_rss_mb": peak_rss_mb(),
        }
    return Result(not check.failures, attempted, failed, metrics, check.failures, notes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
