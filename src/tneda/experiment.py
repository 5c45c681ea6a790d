"""Config-driven experiment harness: solver x problem x seed grids.

A JSON config names a problem, a solver (one of the benchmark presets or
fully explicit fields), the seeds, and an output directory. Each seed
produces one JSON-lines file of per-generation records; a CSV summary
aggregates medians, quartiles, means, and standard errors per generation.
The artifact emits data, not plots.

Records are deterministic for a fixed config and seed except for the
``wall_time_s`` field: the seconds from the run's start to the end of
the record's generation, as the loop stamps them on its
:class:`tneda.evolve.RunRecord`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import run_with_reference
from .evolve import (
    AdaptiveGapSchedule,
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    ChainBayesSampler,
    CrossoverSampler,
    EdaConfig,
    GreedyTopK,
    PositiveMpsSampler,
    TournamentSelection,
    run_eda,
)
from .models import TrainConfig
from .ordering import order_assets
from .problems import (
    DeceptiveTrap,
    KnapsackProblem,
    OneMax,
    PortfolioProblem,
    brute_force_optimum,
    knapsack_optimum_dp,
    load_covariance_csv,
    parse_dimacs_cnf,
    parse_knapsack,
    random_covariance,
    random_knapsack,
    relative_error,
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_POPULATION = 1000
_BUDGET = 60_000
_T_MAX = _BUDGET // _POPULATION
_NO_VALUE = object()  # the default of a key a stanza must give, and a value of the wrong type


def _seed_list(value):
    """The seeds of a nonempty list of distinct integers >= 0 or of ``{"start": s, "count": n}``."""
    if type(value) is dict and value.keys() == {"start", "count"} and all(type(v) is int for v in value.values()):
        value = list(range(value["start"], value["start"] + value["count"]))
    valid = type(value) is list and value and all(type(seed) is int and seed >= 0 for seed in value)
    return value if valid and len(set(value)) == len(value) else _NO_VALUE


def _finite(value) -> bool:
    """Whether ``value`` is an int or float within the float range (so no NaN), never a bool.

    The rule of every number in a config.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _optimum(value):
    """``value`` if it is null, ``"auto"`` or a finite number (see :func:`_finite`); else ``_NO_VALUE``."""
    if value is None or (type(value) is str and value == "auto") or _finite(value):
        return value
    return _NO_VALUE


#: The JSON type of a config key: its wording in errors and the conversion
#: to its stored value, ``_NO_VALUE`` for a value that does not have it.
#: ``bool`` is no integer here, an integer fits in int64 (numpy takes no
#: larger size or count), and a number is finite and stored as a float.
_TYPES = {
    int: ("an integer", lambda v: v if type(v) is int and -(2**63) <= v < 2**63 else _NO_VALUE),
    float: ("a number", lambda v: float(v) if _finite(v) else _NO_VALUE),
    bool: ("true or false", lambda v: v if type(v) is bool else _NO_VALUE),
    str: ("a string", lambda v: v if type(v) is str else _NO_VALUE),
    dict: ("an object", lambda v: dict(v) if type(v) is dict else _NO_VALUE),
    "seeds": ("a nonempty list of distinct integers >= 0 or {'start': s, 'count': n}", _seed_list),
    "optimum": ("a number, null or 'auto'", _optimum),
}

#: Every solver key, its type and its default; a preset or a stanza overrides any of them.
_SOLVER_KEYS = {
    "model": (str, None),  # born, positive_mps, chain_bayes or crossover
    "selection": (str, None),  # boltzmann, tournament or greedy
    # training (Born machine and positive MPS), chain-Bayes smoothing
    "chi": (int, 2), "learning_rate": (float, 0.15), "sweeps": (int, 1), "svd_cutoff": (float, 1e-6),
    "smoothing": (float, 1.0),
    # Boltzmann schedule (annealed or adaptive) and pool, tournament arity, greedy k
    "schedule": (str, "annealed"), "t0": (float, None), "t_max": (int, None), "rank": (int, 5),
    "ratio": (float, 3.0), "pool_size": (int, None), "arity": (int, 3), "top_k": (int, 10),
    # the loop, under EdaConfig's field names
    "n_parents": (int, _POPULATION), "n_children": (int, _POPULATION), "n_init": (int, None),
    "generations": (int, 4 * _T_MAX), "mutation_rate": (float, 0.0), "call_budget": (int, _BUDGET),
    "elitism": (bool, False), "target_objective": (float, None),
    "diagnostics": (dict, None),
}
_TRAIN_KEYS = ("chi", "learning_rate", "sweeps", "svd_cutoff")
_DIAGNOSTICS_KEYS = {"reference": (dict, {}), "mirror_rng": (bool, False)}

_BOLTZMANN = {"selection": "boltzmann", "t_max": _T_MAX, "n_init": _POPULATION}
_TOURNAMENT = {"selection": "tournament", "n_init": _POPULATION}

#: The benchmark solver matrix, each preset as its changes to the defaults;
#: any explicit field in the config overrides the preset value.
SOLVER_PRESETS: dict[str, dict] = {
    # Born machine, Boltzmann over the best 1000 banked solutions, mutation
    "TN1": {"model": "born", **_BOLTZMANN, "pool_size": 1000, "mutation_rate": 0.01},
    # Born machine, Boltzmann over every unique banked solution, no mutation
    "TN2": {"model": "born", **_BOLTZMANN},
    # incrementally updated positive MPS, greedy top 10 of 100 samples
    "TN3": {
        "model": "positive_mps", "selection": "greedy", "n_parents": 10, "n_children": 100, "n_init": 100,
        "generations": 2400,
    },
    # chain Bayes networks, maximum likelihood each generation
    "BN1": {"model": "chain_bayes", **_BOLTZMANN, "pool_size": 1000, "mutation_rate": 0.01},
    "BN2": {"model": "chain_bayes", **_TOURNAMENT},
    # genetic algorithms with two-point crossover at rate 1
    "GA1": {"model": "crossover", **_BOLTZMANN, "pool_size": 1000, "mutation_rate": 0.01},
    "GA2": {"model": "crossover", **_TOURNAMENT, "elitism": True},
}

_CARDINALITY = {
    "n_min": (int, _NO_VALUE), "n_max": (int, _NO_VALUE), "penalty_c": (float, 100.0), "ward_ordering": (bool, True),
}
#: Each problem kind's keys, beside ``kind``, with their types and defaults.
_PROBLEM_KEYS = {
    "onemax": {"n_bits": (int, _NO_VALUE)},
    "trap": {"n_blocks": (int, _NO_VALUE)},
    "knapsack": {"path": (str, _NO_VALUE)},
    "knapsack_random": {"n_bits": (int, _NO_VALUE), "seed": (int, 0)},
    "maxsat": {"path": (str, _NO_VALUE)},
    "portfolio": {"path": (str, _NO_VALUE), "mode": (str, "covariance"), **_CARDINALITY},
    "portfolio_random": {"n_assets": (int, _NO_VALUE), "seed": (int, 0), **_CARDINALITY},
}
_CONFIG_KEYS = {
    "problem": (dict, _NO_VALUE), "solver": (dict, _NO_VALUE), "seeds": ("seeds", _NO_VALUE),
    "out": (str, _NO_VALUE), "optimum": ("optimum", "auto"),
}


def _known(name, valid, what: str):
    """``name`` if it is one of ``valid``; else a ConfigError naming the nearest."""
    if isinstance(name, str) and name in valid:
        return name
    import difflib  # only on this error path: the import costs about 1.6 ms

    near = difflib.get_close_matches(str(name), valid, n=1)
    hint = f"did you mean {near[0]!r}?" if near else f"have {', '.join(sorted(valid))}"
    raise ConfigError(f"unknown {what} {name!r} ({hint})")


def _typed(stanza: dict, table: dict, what: str, path: str = "") -> dict:
    """``stanza`` over the defaults of ``table``: the one place a config value is checked and converted.

    ``table`` maps each key to its type in ``_TYPES`` and its default,
    ``_NO_VALUE`` for a key the stanza must give; a key whose default is
    null also takes null. An unknown key, a missing one or a value of the
    wrong type is a ConfigError that names the key as ``path`` + key.
    """
    for key in stanza:
        _known(key, table, f"{what} key")
    typed = {}
    for key, (kind, default) in table.items():
        value = stanza.get(key, default)
        wording, convert = _TYPES[kind]
        typed[key] = None if value is None and default is None else convert(value)
        if typed[key] is _NO_VALUE:
            got = "nothing" if value is _NO_VALUE else repr(value)
            raise ConfigError(f"{path + key!r} must be {wording}, got {got}")
    return typed


def checked_seeds(value) -> list[int]:
    """``value`` as a config's seeds, or a ConfigError naming ``'seeds'``."""
    return _typed({"seeds": value}, {"seeds": _CONFIG_KEYS["seeds"]}, "config")["seeds"]


def _problem_spec(spec: dict) -> dict:
    """A problem stanza with every key of its kind, checked and converted."""
    kind = _known(spec.get("kind"), _PROBLEM_KEYS, "problem kind")
    return _typed(spec, {"kind": (str, _NO_VALUE), **_PROBLEM_KEYS[kind]}, f"{kind} problem")


@dataclass
class ExperimentConfig:
    problem: dict
    solver: dict
    seeds: list[int]
    out_dir: str
    optimum: float | str | None = "auto"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(raw, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir=None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        config = _typed(raw, _CONFIG_KEYS, "config")
        problem = _problem_spec(config["problem"])
        if base_dir is not None and "path" in problem:
            problem["path"] = str((Path(base_dir) / problem["path"]).resolve())
        return cls(problem, config["solver"], config["seeds"], config["out"], config["optimum"])


def build_problem(spec: dict):
    """Problem instance from its config stanza."""
    p = _problem_spec(spec)
    kind = p["kind"]
    try:
        if kind == "onemax":
            return OneMax(p["n_bits"])
        if kind == "trap":
            return DeceptiveTrap(p["n_blocks"])
        if kind == "knapsack":
            return parse_knapsack(Path(p["path"]).read_text())
        if kind == "knapsack_random":
            return random_knapsack(p["n_bits"], p["seed"])
        if kind == "maxsat":
            return parse_dimacs_cnf(Path(p["path"]).read_text())
        if kind == "portfolio":
            mode = _known(p["mode"], ("covariance", "returns"), "portfolio mode")
            sigma = load_covariance_csv(Path(p["path"]).read_text(), mode)
        else:
            sigma = random_covariance(p["n_assets"], p["seed"])
        if p["ward_ordering"]:
            perm = order_assets(sigma)
            sigma = sigma[np.ix_(perm, perm)]
        return PortfolioProblem(sigma, p["n_min"], p["n_max"], p["penalty_c"])
    except FileNotFoundError as exc:
        raise ConfigError(f"problem file not readable: {exc}") from None


def resolve_optimum(problem, requested) -> float | None:
    """None, an explicit value, or "auto" (known value, DP, or enumeration), under the config's rule."""
    if _optimum(requested) is _NO_VALUE:
        raise ConfigError(f"'optimum' must be {_TYPES['optimum'][0]}, got {requested!r}")
    if requested is None:
        return None
    if requested != "auto":
        return float(requested)
    if problem.optimum is not None:
        return float(problem.optimum)
    if isinstance(problem, KnapsackProblem):
        return knapsack_optimum_dp(problem)
    if problem.n_bits <= 24:
        return brute_force_optimum(problem)[1]
    return None  # unknown best; relative errors omitted


@dataclass
class SolverPlan:
    """Everything needed to run one seed: fresh model, policy, loop config."""

    make_model: callable
    selection: object
    cfg: EdaConfig
    diagnostics: dict | None = None
    make_reference: callable | None = None


def _train_config(s: dict) -> TrainConfig:
    return TrainConfig(s["learning_rate"], s["chi"], s["sweeps"], s["svd_cutoff"])


def build_solver(spec: dict) -> SolverPlan:
    """Expand a solver stanza (preset plus overrides, or explicit fields).

    Stanza over preset over the defaults of ``_SOLVER_KEYS``, typed by
    :func:`_typed` into the canonical solver spec; an unknown key or kind,
    a value of the wrong type, or a value a constructor rejects, is a
    ConfigError.
    """
    given = dict(spec)
    preset = given.pop("preset", None)
    if preset is not None:
        given = {**SOLVER_PRESETS[_known(preset, SOLVER_PRESETS, "solver preset")], **given}
    s = _typed(given, _SOLVER_KEYS, "solver")
    try:
        return _solver_plan(s)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad solver value: {exc}") from None


def _solver_plan(s: dict) -> SolverPlan:
    model_kind = _known(s["model"], ("born", "positive_mps", "chain_bayes", "crossover"), "model kind")
    if model_kind == "born":
        train = _train_config(s)
        make_model = lambda: BornMachineSampler(train)  # noqa: E731
    elif model_kind == "positive_mps":
        train = _train_config(s)
        make_model = lambda: PositiveMpsSampler(train)  # noqa: E731
    elif model_kind == "chain_bayes":
        make_model = lambda: ChainBayesSampler(s["smoothing"])  # noqa: E731
    else:
        make_model = CrossoverSampler
    make_model()  # a sampler checks its settings when built

    selection_kind = _known(s["selection"], ("boltzmann", "tournament", "greedy"), "selection kind")
    if selection_kind == "boltzmann":
        if _known(s["schedule"], ("annealed", "adaptive"), "schedule") == "annealed":
            schedule = AnnealedSchedule(t0=s["t0"], t_max=s["t_max"])
        else:
            schedule = AdaptiveGapSchedule(rank=s["rank"], ratio=s["ratio"])
        selection = BoltzmannSelection(schedule, s["pool_size"])
    elif selection_kind == "tournament":
        selection = TournamentSelection(s["arity"])
    else:
        selection = GreedyTopK(s["top_k"])

    cfg = EdaConfig(**{field.name: s[field.name] for field in fields(EdaConfig)})

    diagnostics = make_reference = None
    if s["diagnostics"] is not None:  # any object turns them on, {} with the defaults
        diagnostics = _typed(s["diagnostics"], _DIAGNOSTICS_KEYS, "diagnostics", "diagnostics.")
        reference = {key: (_SOLVER_KEYS[key][0], s[key]) for key in _TRAIN_KEYS}  # the primary's, by default
        reference = _typed(diagnostics["reference"], reference, "diagnostics.reference", "diagnostics.reference.")
        if model_kind != "born":
            raise ConfigError("KL diagnostics are supported for the Born-machine model")
        if selection_kind != "boltzmann":
            raise ConfigError("KL diagnostics require Boltzmann selection")
        ref_train = _train_config(reference)
        make_reference = lambda: BornMachineSampler(ref_train)  # noqa: E731
    return SolverPlan(make_model, selection, cfg, diagnostics, make_reference)


# --- records -----------------------------------------------------------------

RECORD_FIELDS = (
    "seed",
    "generation",
    "best",
    "median",
    "relative_error",
    "calls",
    "n_new",
    "temperature",
    "kl_primary",
    "kl_primary_infinite",
    "kl_reference",
    "kl_reference_infinite",
    "kl_delta",
    "wall_time_s",
)


def _finite_or_none(value):
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def record_to_dict(rec, seed: int, optimum: float | None) -> dict:
    rel = None if optimum is None else relative_error(rec.best_objective, optimum)
    return {
        "seed": seed,
        "generation": rec.generation,
        "best": float(rec.best_objective),
        "median": _finite_or_none(rec.median_objective),
        "relative_error": rel,
        "calls": rec.calls,
        "n_new": rec.n_new,
        "temperature": _finite_or_none(rec.temperature),
        "kl_primary": _finite_or_none(rec.kl_primary),
        "kl_primary_infinite": rec.kl_primary is not None and math.isinf(rec.kl_primary),
        "kl_reference": _finite_or_none(rec.kl_reference),
        "kl_reference_infinite": rec.kl_reference is not None and math.isinf(rec.kl_reference),
        "kl_delta": _finite_or_none(rec.kl_delta),
        "wall_time_s": round(rec.wall_time_s, 6),
    }


def validate_record(record: dict) -> None:
    """Schema check for emitted records; raises ValueError on violations."""
    missing = [k for k in RECORD_FIELDS if k not in record]
    if missing:
        raise ValueError(f"record is missing fields {missing}")
    if not isinstance(record["seed"], int) or not isinstance(record["generation"], int):
        raise ValueError("seed and generation must be integers")
    if record["generation"] < 1 or record["calls"] < 0 or record["n_new"] < 0:
        raise ValueError("generation must be >= 1 and counts nonnegative")
    for key in ("best", "wall_time_s"):
        if not isinstance(record[key], (int, float)) or not math.isfinite(record[key]):
            raise ValueError(f"{key} must be a finite number")
    for key in ("median", "relative_error", "temperature", "kl_primary", "kl_reference", "kl_delta"):
        value = record[key]
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number or null")
    for key in ("kl_primary_infinite", "kl_reference_infinite"):
        if not isinstance(record[key], bool):
            raise ValueError(f"{key} must be a boolean")


def run_single(problem, solver_spec: dict, seed: int, optimum: float | None) -> list[dict]:
    """One seeded run; returns per-generation record dicts."""
    plan = build_solver(solver_spec)
    model = plan.make_model()
    if plan.diagnostics is not None:
        records = run_with_reference(
            problem,
            model,
            plan.make_reference(),
            plan.selection,
            plan.cfg,
            rng=seed,
            mirror_reference_rng=plan.diagnostics["mirror_rng"],
        )
    else:
        records = run_eda(problem, model, plan.selection, plan.cfg, rng=seed)
    return [record_to_dict(rec, seed, optimum) for rec in records]


def _run_seed_task(args):
    problem, solver_spec, seed, optimum = args
    return seed, run_single(problem, solver_spec, seed, optimum)


def _seed_runs(tasks, jobs: int):
    """(seed, records) of each task in order, each as soon as it and those before it are done."""
    if jobs <= 1:
        yield from map(_run_seed_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing, about 13 ms

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_run_seed_task, tasks)


def _write_run(path: Path, records: list[dict]) -> None:
    """Write a run file whole or not at all: through a temp file beside it, then a rename."""
    temp = path.with_name(f".{path.name}.temp")
    try:
        with open(temp, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, allow_nan=False) + "\n")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Execute the full seed grid and write run files plus the summary.

    Each seed's run file is written as soon as its records and those of
    the seeds before it are back, so a failing seed keeps the files of the
    seeds before it. Returns a manifest with the written paths.
    """
    problem = build_problem(config.problem)
    build_solver(config.solver)  # early validation of the solver stanza
    optimum = resolve_optimum(problem, config.optimum)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(problem, config.solver, seed, optimum) for seed in config.seeds]
    run_paths = []
    all_records: list[dict] = []
    for seed, records in _seed_runs(tasks, jobs):
        path = out / f"run_{seed:05d}.jsonl"
        _write_run(path, records)
        run_paths.append(str(path))
        all_records.extend(records)

    summary_rows = summarize(all_records)
    summary_path = out / "summary.csv"
    write_summary_csv(summary_rows, summary_path)
    return {"runs": run_paths, "summary": str(summary_path), "n_records": len(all_records)}


# --- summaries ----------------------------------------------------------------

_STATS = ("median", "q1", "q3", "mean", "stderr")

SUMMARY_FIELDS = (
    "generation",
    "n_runs",
    *(f"best_{name}" for name in _STATS),
    *(f"rel_err_{name}" for name in _STATS),
    "calls_median",
    *(f"kl_primary_{name}" for name in _STATS[:3]),
    "kl_reference_median",
    *(f"kl_delta_{name}" for name in _STATS[:3]),
    "kl_infinite",
    "n_new_median",
)


def _stats(values: list[float]) -> tuple[float, float, float, float, float | None]:
    # sorting first makes every statistic independent of record order
    arr = np.sort(np.asarray(values, dtype=np.float64))
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])  # linear interpolation (type 7)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else None
    return float(med), float(q1), float(q3), mean, stderr


def _columns(prefix: str, values: list[float]) -> dict:
    """``<prefix>_<stat>`` for every statistic of ``_stats``; all None without values."""
    stats = _stats(values) if values else (None,) * len(_STATS)
    return {f"{prefix}_{name}": value for name, value in zip(_STATS, stats)}


def summarize(records: list[dict]) -> list[dict]:
    """Per-generation statistics over runs.

    Quartiles use linear interpolation (numpy's default, quantile type 7);
    the standard error is the ddof-1 standard deviation over runs divided
    by sqrt(runs). A column is empty when no record of its generation
    carries the field: relative errors need an optimum, KL columns need
    diagnostics. KL statistics run over finite values; ``kl_infinite``
    counts the records with an infinite primary or reference KL.
    """
    if not records:
        raise ValueError("no records to summarize")
    by_generation: dict[int, list[dict]] = {}
    for record in records:
        by_generation.setdefault(record["generation"], []).append(record)
    rows = []
    for generation in sorted(by_generation):
        bucket = by_generation[generation]
        present = lambda key: [r[key] for r in bucket if r.get(key) is not None]  # noqa: E731
        infinite = [bool(r.get("kl_primary_infinite") or r.get("kl_reference_infinite")) for r in bucket]
        carries_kl = any(infinite) or bool(present("kl_primary") or present("kl_reference"))
        row = {
            "generation": generation,
            "n_runs": len(bucket),
            **_columns("best", [r["best"] for r in bucket]),
            **_columns("rel_err", present("relative_error")),
            "calls_median": float(np.median([r["calls"] for r in bucket])),
            **_columns("kl_primary", present("kl_primary")),
            **_columns("kl_reference", present("kl_reference")),
            **_columns("kl_delta", present("kl_delta")),
            "kl_infinite": sum(infinite) if carries_kl else None,
            **_columns("n_new", present("n_new")),
        }
        rows.append({key: row[key] for key in SUMMARY_FIELDS})
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in SUMMARY_FIELDS})


def read_records(path) -> list[dict]:
    """Records from one .jsonl file or every run_*.jsonl in a directory."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("run_*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no run_*.jsonl files under {path}")
    else:
        if not path.exists():
            raise FileNotFoundError(str(path))
        files = [path]
    records = []
    for file in files:
        with open(file) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records
