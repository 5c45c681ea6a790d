"""Harness tests: presets, record files, determinism, summaries, CLI."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tneda.experiment
from tneda.cli import main, parse_seed_spec
from tneda.diagnostics import _BLAS_THREAD_VARS
from tneda.evolve import (
    AnnealedSchedule,
    BoltzmannSelection,
    BornMachineSampler,
    ChainBayesSampler,
    CrossoverSampler,
    EdaConfig,
    GreedyTopK,
    PositiveMpsSampler,
    TournamentSelection,
    generations,
)
from tneda.experiment import (
    _DIAGNOSTICS_KEYS,
    _PROBLEM_KEYS,
    _SOLVER_KEYS,
    SOLVER_PRESETS,
    SUMMARY_FIELDS,
    ConfigError,
    ExperimentConfig,
    build_problem,
    build_solver,
    read_records,
    record_to_dict,
    resolve_optimum,
    run_experiment,
    run_single,
    summarize,
    validate_record,
    write_summary_csv,
)
import tneda.mps as mps_module
from tneda.models import TrainConfig
from tneda.evolve import RunRecord
from tneda.problems import OneMax, parse_dimacs_cnf, random_knapsack


def fast_config(tmp_path, seeds=(0, 1), solver_extra=None, problem=None, optimum="auto"):
    solver = {
        "preset": "TN1",
        "n_parents": 40,
        "n_children": 40,
        "n_init": 40,
        "generations": 8,
        "t_max": 8,
        "call_budget": 400,
    }
    solver.update(solver_extra or {})
    return ExperimentConfig(
        problem=problem or {"kind": "onemax", "n_bits": 12},
        solver=solver,
        seeds=list(seeds),
        out_dir=str(tmp_path / "results"),
        optimum=optimum,
    )


class TestPresets:
    def test_all_presets_build(self):
        for name in SOLVER_PRESETS:
            plan = build_solver({"preset": name})
            assert plan.cfg.call_budget == 60_000

    def test_ga2_expansion(self):
        plan = build_solver({"preset": "GA2"})
        assert isinstance(plan.selection, TournamentSelection)
        assert plan.selection.arity == 3
        assert plan.cfg.mutation_rate == 0.0
        assert plan.cfg.elitism
        assert plan.make_model() .__class__ is CrossoverSampler

    def test_tn1_expansion(self):
        plan = build_solver({"preset": "TN1"})
        assert isinstance(plan.selection, BoltzmannSelection)
        assert plan.selection.pool_size == 1000
        assert plan.cfg.n_children == 1000
        assert plan.cfg.mutation_rate == 0.01
        model = plan.make_model()
        assert model.train_cfg.chi_max == 2
        assert model.train_cfg.learning_rate == 0.15

    def test_tn2_uses_full_bank(self):
        plan = build_solver({"preset": "TN2"})
        assert plan.selection.pool_size is None
        assert plan.cfg.mutation_rate == 0.0

    def test_tn3_expansion(self):
        plan = build_solver({"preset": "TN3"})
        assert isinstance(plan.selection, GreedyTopK)
        assert plan.selection.k == 10
        assert plan.cfg.n_children == 100
        assert isinstance(plan.make_model(), PositiveMpsSampler)

    def test_bn_solvers(self):
        bn1 = build_solver({"preset": "BN1"})
        assert isinstance(bn1.make_model(), ChainBayesSampler)
        assert bn1.cfg.mutation_rate == 0.01
        bn2 = build_solver({"preset": "BN2"})
        assert isinstance(bn2.selection, TournamentSelection)

    def test_explicit_fields_override_preset(self):
        plan = build_solver({"preset": "TN1", "mutation_rate": 0.05, "chi": 4})
        assert plan.cfg.mutation_rate == 0.05
        assert plan.make_model().train_cfg.chi_max == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            build_solver({"preset": "TN9"})

    def test_presets_build_pinned_objects(self):
        # Every loop, training and selection setting of each preset, written
        # out in full, so a preset or default that drifts shows up here.
        def loop(**changes):
            return EdaConfig(**{
                "n_parents": 1000, "n_children": 1000, "generations": 240, "mutation_rate": 0.0,
                "call_budget": 60_000, "n_init": 1000, "elitism": False,
                "target_objective": None, **changes,
            })

        def annealed(pool_size):
            return BoltzmannSelection(AnnealedSchedule(t0=None, t_max=60), pool_size)

        train = {"train_cfg": TrainConfig(0.15, 2, sweeps=1, svd_cutoff=1e-6)}
        pinned = {
            "TN1": (loop(mutation_rate=0.01), annealed(1000), BornMachineSampler, train),
            "TN2": (loop(), annealed(None), BornMachineSampler, train),
            "TN3": (
                loop(n_parents=10, n_children=100, generations=2400, n_init=100),
                GreedyTopK(10), PositiveMpsSampler, train,
            ),
            "BN1": (loop(mutation_rate=0.01), annealed(1000), ChainBayesSampler, {"smoothing": 1.0}),
            "BN2": (loop(), TournamentSelection(3), ChainBayesSampler, {"smoothing": 1.0}),
            "GA1": (loop(mutation_rate=0.01), annealed(1000), CrossoverSampler, {}),
            "GA2": (loop(elitism=True), TournamentSelection(3), CrossoverSampler, {}),
        }
        assert set(pinned) == set(SOLVER_PRESETS)
        for name, (cfg, selection, model_type, settings) in pinned.items():
            plan = build_solver({"preset": name})
            model = plan.make_model()
            assert (plan.cfg, plan.selection, type(model)) == (cfg, selection, model_type), name
            assert {k: v for k, v in vars(model).items() if k not in ("model", "_parents")} == settings, name
            assert plan.diagnostics is None and plan.make_reference is None

    def test_explicit_positive_mps_builds(self):
        plan = build_solver({"model": "positive_mps", "selection": "greedy"})
        assert plan.make_model().train_cfg == TrainConfig(0.15, 2)

    def test_diagnostics_reference(self):
        plan = build_solver(
            {"preset": "TN1", "diagnostics": {"reference": {"chi": 20}}}
        )
        assert plan.make_reference().train_cfg.chi_max == 20

    def test_empty_diagnostics_stanza_turns_them_on(self):
        plan = build_solver({"preset": "TN1", "diagnostics": {}})
        assert plan.diagnostics == {"reference": {}, "mirror_rng": False}
        assert plan.make_reference().train_cfg == plan.make_model().train_cfg
        assert build_solver({"preset": "TN1", "diagnostics": None}).diagnostics is None


class _Spy:
    """Forwards to ``inner`` and keeps a copy of what each call saw or made."""

    def __init__(self, inner):
        self.inner = inner
        self.populations, self.samples = [], []

    def select(self, bank, population, generation, cfg, rng):
        self.populations.append((population[0].copy(), population[1].copy()))
        return self.inner.select(bank, population, generation, cfg, rng)

    def fit(self, parents, rng):
        self.inner.fit(parents, rng)

    def sample(self, n, rng):
        self.samples.append(self.inner.sample(n, rng))
        return self.samples[-1]


class TestPopulation:
    @pytest.mark.parametrize("elitism", [False, True])
    @pytest.mark.parametrize("stanza", [
        {"model": "crossover", "selection": "tournament"},
        {"model": "chain_bayes", "selection": "greedy", "top_k": 5},
    ])
    def test_selection_reads_the_last_generation(self, stanza, elitism):
        # generation g selects from generation g - 1's evaluated children,
        # the elite in place of the worst when none of them is as good
        plan = build_solver({**stanza, "n_parents": 10, "n_children": 20, "n_init": 20, "generations": 8,
                             "call_budget": 10_000, "elitism": elitism})
        problem = random_knapsack(16, seed=0)
        selection, model, best = _Spy(plan.selection), _Spy(plan.make_model()), []
        for ctx in generations(problem, model, selection, plan.cfg, rng=3):
            best.append(ctx.bank.best())
        assert len(best) == 8
        elite_used = 0
        for generation in range(2, 9):
            children = model.samples[generation - 2].copy()
            values = problem.evaluate_batch(children)
            best_bits, best_value = best[generation - 2]
            if elitism and values.min() > best_value:
                worst = int(values.argmax())
                children[worst], values[worst] = best_bits, best_value
                elite_used += 1
            strings, pool_values = selection.populations[generation - 1]
            np.testing.assert_array_equal(strings, children)
            np.testing.assert_array_equal(pool_values, values)
        assert elite_used > 0 if elitism else elite_used == 0


class TestBuildProblem:
    def test_file_problems(self, tmp_path):
        knap = tmp_path / "toy.knap"
        knap.write_text("3 5\n6 1\n10 2\n12 3\n")
        p = build_problem({"kind": "knapsack", "path": str(knap)})
        assert p.n_bits == 3
        cnf = tmp_path / "toy.cnf"
        cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
        q = build_problem({"kind": "maxsat", "path": str(cnf)})
        assert q.n_clauses == 1

    def test_portfolio_random_with_ordering(self):
        p = build_problem(
            {"kind": "portfolio_random", "n_assets": 10, "seed": 3, "n_min": 2, "n_max": 4}
        )
        assert p.n_bits == 10

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "tsp"})

    def test_unknown_key_or_mode_names_the_nearest(self):
        with pytest.raises(ConfigError, match="did you mean 'n_max'"):
            build_problem({"kind": "portfolio_random", "n_assets": 6, "n_min": 2, "n_maxx": 4})
        with pytest.raises(ConfigError, match="did you mean 'returns'"):
            build_problem({"kind": "portfolio", "path": "unread.csv", "mode": "retruns", "n_min": 2, "n_max": 4})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "maxsat", "path": "/nonexistent.cnf"})


class TestResolveOptimum:
    def test_null_number_and_bad_string(self):
        problem = OneMax(8)
        assert resolve_optimum(problem, None) is None
        assert resolve_optimum(problem, 3) == 3.0 and type(resolve_optimum(problem, 3)) is float
        with pytest.raises(ConfigError, match="'best'"):
            resolve_optimum(problem, "best")

    @pytest.mark.parametrize("requested", [True, False, math.nan, math.inf, -math.inf, [1.0]])
    def test_the_config_rule_holds_for_python_callers(self, requested):
        # the same rule as the config's "optimum": a finite int or float, never a bool
        with pytest.raises(ConfigError, match=r"^'optimum' must be a number, null or 'auto', got "):
            resolve_optimum(OneMax(4), requested)

    def test_bad_optimum_stops_run_experiment_before_any_seed(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(tneda.experiment, "run_single", refuse)
        with pytest.raises(ConfigError, match="'optimum'"):
            run_experiment(fast_config(tmp_path, optimum=True))
        assert not (tmp_path / "results").exists()

    def test_auto_enumerates_a_small_maxsat(self):
        # x1 and not x1 cannot both hold: the best string leaves one clause unsatisfied
        problem = parse_dimacs_cnf("p cnf 3 3\n1 0\n-1 0\n2 3 0\n")
        assert problem.optimum is None
        assert resolve_optimum(problem, "auto") == 1.0

    def test_auto_on_a_large_maxsat_has_no_optimum(self, tmp_path):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 25 2\n1 2 3 0\n-25 24 0\n")
        assert resolve_optimum(build_problem({"kind": "maxsat", "path": str(cnf)}), "auto") is None
        config = fast_config(tmp_path, seeds=(0,), problem={"kind": "maxsat", "path": str(cnf)})
        run_experiment(config)
        records = read_records(tmp_path / "results")
        assert records and all(record["relative_error"] is None for record in records)


class TestRunExperiment:
    def test_writes_runs_and_summary(self, tmp_path):
        config = fast_config(tmp_path, seeds=range(3))
        manifest = run_experiment(config)
        assert len(manifest["runs"]) == 3
        assert Path(manifest["summary"]).exists()
        records = read_records(tmp_path / "results")
        assert records
        for record in records:
            validate_record(record)

    def test_relative_error_against_known_optimum(self, tmp_path):
        config = fast_config(tmp_path, seeds=(0,))
        manifest = run_experiment(config)
        records = read_records(manifest["runs"][0])
        for record in records:
            assert record["relative_error"] == pytest.approx(
                (record["best"] + 12.0) / 12.0
            )

    def test_rerun_identical_except_wall_time(self, tmp_path):
        config_a = fast_config(tmp_path / "a", seeds=(3, 4))
        config_b = fast_config(tmp_path / "b", seeds=(3, 4))
        run_experiment(config_a)
        run_experiment(config_b)

        def strip(path):
            lines = []
            for line in Path(path).read_text().splitlines():
                record = json.loads(line)
                record.pop("wall_time_s")
                lines.append(json.dumps(record, sort_keys=True))
            return "\n".join(lines)

        for seed in (3, 4):
            a = strip(tmp_path / "a" / "results" / f"run_{seed:05d}.jsonl")
            b = strip(tmp_path / "b" / "results" / f"run_{seed:05d}.jsonl")
            assert a == b

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # BLAS pinned as bench.py pins it: with diagnostics a sequential run
        # scores its KLs in a forked worker, each --jobs 2 worker inline
        for var in _BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        for name, extra in (("plain", None), ("kl", {"diagnostics": {"reference": {"chi": 3}}})):
            config_a = fast_config(tmp_path / name / "seq", seeds=(0, 1), solver_extra=extra)
            config_b = fast_config(tmp_path / name / "par", seeds=(0, 1), solver_extra=extra)
            run_experiment(config_a, jobs=1)
            run_experiment(config_b, jobs=2)
            for seed in (0, 1):
                a = [
                    {k: v for k, v in json.loads(l).items() if k != "wall_time_s"}
                    for l in (tmp_path / name / "seq" / "results" / f"run_{seed:05d}.jsonl").read_text().splitlines()
                ]
                b = [
                    {k: v for k, v in json.loads(l).items() if k != "wall_time_s"}
                    for l in (tmp_path / name / "par" / "results" / f"run_{seed:05d}.jsonl").read_text().splitlines()
                ]
                assert a == b
                assert (a[0]["kl_primary"] is not None) == (extra is not None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_seed_keeps_the_files_before_it(self, tmp_path, monkeypatch, jobs):
        whole = run_experiment(fast_config(tmp_path / "whole", seeds=(0,)))
        run_single = tneda.experiment.run_single

        def fail_on_seed_1(problem, solver_spec, seed, optimum):
            if seed == 1:
                raise RuntimeError("seed 1 failed")
            return run_single(problem, solver_spec, seed, optimum)

        monkeypatch.setattr(tneda.experiment, "run_single", fail_on_seed_1)
        with pytest.raises(RuntimeError, match="seed 1 failed"):
            run_experiment(fast_config(tmp_path / "grid", seeds=(0, 1, 2)), jobs=jobs)
        out = tmp_path / "grid" / "results"
        assert [p.name for p in out.iterdir()] == ["run_00000.jsonl"]  # no temp file, no seed 2, no summary
        strip = lambda path: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in read_records(path)]  # noqa: E731
        assert strip(out / "run_00000.jsonl") == strip(whole["runs"][0])

    def test_budget_must_exceed_init(self, tmp_path):
        config = fast_config(tmp_path, solver_extra={"call_budget": 40})
        with pytest.raises(ConfigError, match="budget"):
            run_experiment(config)

    def test_diagnostics_fields_emitted(self, tmp_path):
        config = fast_config(
            tmp_path,
            seeds=(0,),
            solver_extra={"diagnostics": {"reference": {"chi": 4}}},
        )
        manifest = run_experiment(config)
        records = read_records(manifest["runs"][0])
        assert any(r["kl_primary"] is not None or r["kl_primary_infinite"] for r in records)
        for record in records:
            validate_record(record)


class TestLapackRecords:
    """Records are the same whether the Born trainer calls LAPACK directly or through np.linalg."""

    C06_LIKE = {
        "preset": "TN1", "chi": 5, "learning_rate": 0.1, "schedule": "adaptive", "pool_size": None,
        "mutation_rate": 0.01, "n_init": 100, "generations": 4, "call_budget": 40_000,
        "diagnostics": {"reference": {}},
    }

    @pytest.mark.parametrize(
        "problem, solver",
        [
            (lambda: random_knapsack(30, seed=2024), {"preset": "TN1", "generations": 4}),
            (
                lambda: build_problem({"kind": "portfolio_random", "n_assets": 40, "seed": 77,
                                       "n_min": 8, "n_max": 12, "ward_ordering": True}),
                C06_LIKE,
            ),
        ],
        ids=["tn1-knapsack30", "c06-like"],
    )
    def test_same_records_through_np_linalg(self, monkeypatch, problem, solver):
        def records():
            runs = [run_single(problem(), solver, seed, None) for seed in (1, 2, 3)]
            return json.dumps([[{k: v for k, v in r.items() if k != "wall_time_s"} for r in run] for run in runs])

        direct = records()
        for name in ("_svd_s", "_qr_r_raw", "_qr_reduced"):
            monkeypatch.setattr(mps_module, name, None)
        assert records() == direct


class TestSummarize:
    def test_single_run_median_equals_mean(self):
        records = [
            {"generation": 1, "best": -3.0, "relative_error": 0.5, "calls": 10},
            {"generation": 2, "best": -5.0, "relative_error": 0.25, "calls": 20},
        ]
        rows = summarize(records)
        assert rows[0]["best_median"] == rows[0]["best_mean"] == -3.0
        assert rows[0]["best_stderr"] is None

    def test_quartiles_match_hand_computation(self):
        # five runs at one generation: type-7 quartiles of [1..5] are 2 and 4
        records = [
            {"generation": 1, "best": float(v), "relative_error": None, "calls": 1}
            for v in (1, 2, 3, 4, 5)
        ]
        row = summarize(records)[0]
        assert row["best_q1"] == 2.0
        assert row["best_median"] == 3.0
        assert row["best_q3"] == 4.0
        # and of [1..4]: 1.75 / 2.5 / 3.25
        row4 = summarize(records[:4])[0]
        assert row4["best_q1"] == pytest.approx(1.75)
        assert row4["best_median"] == pytest.approx(2.5)
        assert row4["best_q3"] == pytest.approx(3.25)

    def test_standard_error_definition(self):
        values = [1.0, 2.0, 4.0, 9.0]
        records = [
            {"generation": 1, "best": v, "relative_error": v, "calls": 1} for v in values
        ]
        row = summarize(records)[0]
        expected = np.std(values, ddof=1) / math.sqrt(4)
        assert row["best_stderr"] == pytest.approx(expected)
        assert row["rel_err_stderr"] == pytest.approx(expected)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        records = [
            {"generation": g, "best": float(rng.normal()), "relative_error": None, "calls": g}
            for g in (1, 2, 3) for _ in range(7)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_csv_roundtrip_fields(self, tmp_path):
        records = [{"generation": 1, "best": -1.0, "relative_error": 0.1, "calls": 5}]
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(records), path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("generation,n_runs,best_median")

    def test_kl_columns_match_records(self, tmp_path):
        manifest = run_experiment(fast_config(tmp_path, solver_extra={"diagnostics": {"reference": {}}}))
        records = read_records(tmp_path / "results")
        with open(manifest["summary"], newline="") as fh:
            written = list(csv.DictReader(fh))
        rows = summarize(records)
        assert len(rows) == len(written) == 8

        def quartiles(values):
            return [float(q) for q in np.quantile(values, [0.5, 0.25, 0.75])] if values else [None] * 3

        for row, line in zip(rows, written):
            bucket = [r for r in records if r["generation"] == row["generation"]]
            assert len(bucket) == 2
            kl_keys = ("kl_primary", "kl_reference", "kl_delta")
            finite = {k: [r[k] for r in bucket if r[k] is not None] for k in kl_keys}
            assert any(finite.values())
            expected = {
                "kl_infinite": sum(r["kl_primary_infinite"] or r["kl_reference_infinite"] for r in bucket),
                "kl_reference_median": quartiles(finite["kl_reference"])[0],
                "n_new_median": float(np.median([r["n_new"] for r in bucket])),
            }
            for key in ("kl_primary", "kl_delta"):
                expected.update(zip((f"{key}_median", f"{key}_q1", f"{key}_q3"), quartiles(finite[key])))
            assert {k: row[k] for k in expected} == expected
            as_csv = {k: "" if v is None else str(v) for k, v in expected.items()}
            assert {k: line[k] for k in expected} == as_csv

    def test_kl_columns_empty_without_kl(self):
        records = [{"generation": 1, "best": -1.0, "relative_error": None, "calls": 5, "n_new": 3}]
        row = summarize(records)[0]
        assert all(row[k] is None for k in SUMMARY_FIELDS if k.startswith("kl_"))
        assert row["n_new_median"] == 3.0


class TestCli:
    def write_config(self, tmp_path, **kwargs):
        config = fast_config(tmp_path, **kwargs)
        payload = {
            "problem": config.problem,
            "solver": config.solver,
            "seeds": config.seeds,
            "out": config.out_dir,
            "optimum": config.optimum,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_seed_spec_forms(self):
        assert parse_seed_spec("0..3") == [0, 1, 2, 3]
        assert parse_seed_spec("5") == [5]
        assert parse_seed_spec("1,9,4") == [1, 9, 4]

    def test_run_and_summarize(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path, seeds=(0,))
        assert main(["run", "--config", str(config_path), "--seeds", "0..1"]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "run_00000.jsonl").exists()
        assert (out_dir / "run_00001.jsonl").exists()
        summary = tmp_path / "again.csv"
        assert main(["summarize", "--in", str(out_dir), "--out", str(summary)]) == 0
        assert summary.exists()

    def test_out_overrides_the_config(self, tmp_path):
        config_path = self.write_config(tmp_path, seeds=(0,))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "run_00000.jsonl").exists()
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("seeds", ["5..3", "a,b", "-1..1", "1,-2", "3,3"])
    def test_malformed_seeds_override_exits_2(self, tmp_path, capsys, seeds):
        config_path = self.write_config(tmp_path, seeds=(0,))
        assert main(["run", "--config", str(config_path), f"--seeds={seeds}"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad --seeds value")
        assert not (tmp_path / "results").exists()

    def test_bad_preset_is_config_error(self, tmp_path):
        config_path = self.write_config(tmp_path, solver_extra={"preset": "XX"})
        assert main(["run", "--config", str(config_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_records_dir(self, tmp_path):
        code = main(["summarize", "--in", str(tmp_path / "void"), "--out", str(tmp_path / "s.csv")])
        assert code == 3

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_covariance_is_exit_3(self, tmp_path, capsys, cell):
        # A symmetric non-finite pair passes the asymmetry check, so the
        # parser must name it before the run makes its output directory.
        rows = [["0.04", "0.01", "0.0", "0.0"], ["0.01", "0.05", "0.0", "0.0"],
                ["0.0", "0.0", "0.06", cell], ["0.0", "0.0", cell, "0.03"]]
        csv_path = tmp_path / "sigma.csv"
        csv_path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        payload = {
            "problem": {"kind": "portfolio", "path": str(csv_path), "n_min": 1, "n_max": 3},
            "solver": {"preset": "TN1", "n_parents": 20, "n_children": 20, "n_init": 20, "generations": 2},
            "seeds": [0],
            "out": str(tmp_path / "results"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path)]) == 3
        assert "input error: line 3: non-finite cell" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_numerical_failure_is_exit_4(self, tmp_path, capsys):
        # Huge projected steps clamp so many entries to zero that a parent
        # gets zero value, and training raises DegenerateModelError mid-run.
        payload = {
            "problem": {"kind": "onemax", "n_bits": 12},
            "solver": {"preset": "TN3", "learning_rate": 1000.0, "generations": 50},
            "seeds": [0],
            "out": str(tmp_path / "results"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path)]) == 4
        assert "numerical error" in capsys.readouterr().err

    def test_positive_trainer_failure_is_exit_4(self, tmp_path, capsys):
        # The same run as above, held to the positive trainer's own message.
        payload = {
            "problem": {"kind": "onemax", "n_bits": 12},
            "solver": {"preset": "TN3", "learning_rate": 1000.0, "generations": 50},
            "seeds": [0],
            "out": str(tmp_path / "results"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path)]) == 4
        assert "numerical error: a training sample has zero value under the model" in capsys.readouterr().err

    def test_born_step_overflow_is_exit_4(self, tmp_path, capsys):
        # The first gradient step overflows the merged tensor of pair 0.
        payload = {
            "problem": {"kind": "onemax", "n_bits": 12},
            "solver": {"preset": "TN1", "learning_rate": 1e308, "generations": 2,
                       "n_parents": 30, "n_children": 30, "n_init": 30},
            "seeds": [0],
            "out": str(tmp_path / "results"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path)]) == 4
        assert "numerical error: pair 0: merged tensor is non-finite" in capsys.readouterr().err


class TestStrictConfig:
    """A key, kind or value the harness does not know stops the run with exit 2."""

    def run_cli(self, tmp_path, capsys, solver=(), problem=(), top=()):
        payload = {
            "problem": {"kind": "onemax", "n_bits": 12, **dict(problem)},
            "solver": {"preset": "TN1", "n_parents": 20, "n_children": 20, "n_init": 20, "generations": 2,
                       **dict(solver)},
            "seeds": [0],
            "out": str(tmp_path / "results"),
            **dict(top),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = main(["run", "--config", str(path)])
        assert not (tmp_path / "results").exists()  # rejected before anything ran
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("change, typo, nearest", [
        ({"solver": {"learning_rat": 0.9}}, "learning_rat", "learning_rate"),
        ({"solver": {"chii": 7}}, "chii", "chi"),
        ({"solver": {"mutaton_rate": 0.5}}, "mutaton_rate", "mutation_rate"),
        ({"solver": {"diagnostics": {"referense": {"chi": 20}}}}, "referense", "reference"),
        ({"solver": {"diagnostics": {"reference": {"chii": 20}}}}, "chii", "chi"),
        ({"problem": {"nbits_typo": 3}}, "nbits_typo", "n_bits"),
        ({"top": {"optimun": 0}}, "optimun", "optimum"),
        ({"solver": {"schedule": "adaptve"}}, "adaptve", "adaptive"),
    ])
    def test_misspelling_exits_2_naming_it(self, tmp_path, capsys, change, typo, nearest):
        code, err = self.run_cli(tmp_path, capsys, **change)
        assert code == 2
        assert f"'{typo}'" in err and f"did you mean '{nearest}'" in err

    @pytest.mark.parametrize("solver, message", [
        ({"chi": 0}, "chi_max must be >= 1"),
        ({"mutation_rate": 2}, "mutation_rate must lie in [0, 1]"),
        ({"preset": "GA2", "arity": 0}, "arity must be >= 1"),
        ({"chi": "two"}, "'chi' must be an integer, got 'two'"),
        ({"selection": "tournament", "diagnostics": {"reference": {}}}, "KL diagnostics require Boltzmann selection"),
        ({"t0": -1}, "t0 must be positive"),
        ({"t_max": 0}, "t_max must be >= 1"),
        ({"t_max": "abc"}, "'t_max' must be an integer, got 'abc'"),
        ({"schedule": "adaptive", "rank": 1}, "rank must be >= 2"),
        ({"schedule": "adaptive", "ratio": 1}, "ratio must be > 1"),
        ({"pool_size": 0}, "pool_size must be >= 1"),
        ({"preset": "BN1", "smoothing": -1}, "smoothing must be >= 0"),
        ({"alpha_noise": 0.1}, "unknown solver key 'alpha_noise'"),
        ({"diagnostics": {"reference": {"alpha_noise": 0.1}}}, "unknown diagnostics.reference key 'alpha_noise'"),
        ({"population_update": "replace"}, "unknown solver key 'population_update'"),
        ({"fresh_init": False}, "unknown solver key 'fresh_init'"),
        ({"grad_steps_per_pair": 1}, "unknown solver key 'grad_steps_per_pair'"),
        ({"diagnostics": True}, "'diagnostics' must be an object, got True"),
        ({"diagnostics": "on"}, "'diagnostics' must be an object, got 'on'"),
        ({"diagnostics": {"reference": 5}}, "'diagnostics.reference' must be an object, got 5"),
        ({"diagnostics": {"mirror_rng": "no"}}, "'diagnostics.mirror_rng' must be true or false, got 'no'"),
        ({"preset": "BN1", "diagnostics": {}}, "KL diagnostics are supported for the Born-machine model"),
    ])
    def test_rejected_value_exits_2(self, tmp_path, capsys, solver, message):
        code, err = self.run_cli(tmp_path, capsys, solver=solver)
        assert code == 2
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("top, key, expected", [
        # problem stanza
        ({"problem": {"kind": "knapsack_random", "n_bits": 12, "seed": "abc"}}, "seed", "an integer, got 'abc'"),
        ({"problem": {"kind": "knapsack_random", "n_bits": 12, "seed": None}}, "seed", "an integer, got None"),
        ({"problem": {"kind": "knapsack", "path": 5}}, "path", "a string, got 5"),
        ({"problem": {"kind": "onemax", "n_bits": "x"}}, "n_bits", "an integer, got 'x'"),
        ({"problem": {"kind": "onemax", "n_bits": 12.7}}, "n_bits", "an integer, got 12.7"),
        ({"problem": {"kind": "onemax", "n_bits": True}}, "n_bits", "an integer, got True"),
        ({"problem": {"kind": "onemax"}}, "n_bits", "an integer, got nothing"),
        ({"problem": {"kind": "portfolio_random", "n_assets": 6, "n_min": 2, "n_max": 4, "penalty_c": "x"}},
         "penalty_c", "a number, got 'x'"),
        ({"problem": {"kind": "portfolio_random", "n_assets": 6, "n_min": 2, "n_max": 4, "ward_ordering": "false"}},
         "ward_ordering", "true or false, got 'false'"),
        # solver stanza
        ({"solver": {"preset": "TN1", "elitism": "false"}}, "elitism", "true or false, got 'false'"),
        ({"solver": {"preset": "TN1", "n_parents": 20.9}}, "n_parents", "an integer, got 20.9"),
        # top level
        ({"seeds": [1.5]}, "seeds", "got [1.5]"),
        ({"seeds": [True]}, "seeds", "got [True]"),
        ({"optimum": True}, "optimum", "a number, null or 'auto', got True"),
        ({"out": 5}, "out", "a string, got 5"),
        ({"optimum": math.nan}, "optimum", "a number, null or 'auto', got nan"),  # json.dumps writes NaN
        ({"optimum": math.inf}, "optimum", "a number, null or 'auto', got inf"),
        # a number key takes finite values only (json.dumps writes NaN and Infinity)
        ({"solver": {"preset": "TN1", "learning_rate": math.nan}}, "learning_rate", "a number, got nan"),
        ({"solver": {"preset": "TN1", "learning_rate": math.inf}}, "learning_rate", "a number, got inf"),
        ({"solver": {"preset": "TN1", "svd_cutoff": math.nan}}, "svd_cutoff", "a number, got nan"),
        ({"solver": {"preset": "TN1", "t0": math.inf}}, "t0", "a number, got inf"),
        ({"solver": {"preset": "TN1", "target_objective": math.nan}}, "target_objective", "a number, got nan"),
        ({"solver": {"preset": "TN1", "t0": 10**400}}, "t0", "a number, got 1000"),  # beyond the float range
        # seeds are distinct and nonnegative, checked before any seed runs
        ({"seeds": [1, -2]}, "seeds", "distinct integers >= 0 or {'start': s, 'count': n}, got [1, -2]"),
        ({"seeds": [3, 3]}, "seeds", "got [3, 3]"),
        ({"seeds": {"start": -1, "count": 2}}, "seeds", "got {'start': -1, 'count': 2}"),
    ])
    def test_wrong_json_type_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch, top, key, expected):
        monkeypatch.chdir(tmp_path)  # where a config with "out": 5 would write
        code, err = self.run_cli(tmp_path, capsys, top=top)
        assert code == 2
        assert err.startswith(f"config error: '{key}' must be ") and expected in err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]  # no results anywhere

    @pytest.mark.parametrize("top, field", [
        ({"seeds": {"begin": 0, "count": 2}}, "'seeds'"),
        ({"seeds": "0..3"}, "'seeds'"),
        ({"seeds": []}, "'seeds'"),
        ({"problem": "onemax"}, "'problem'"),
        ({"solver": "TN1"}, "'solver'"),
    ])
    def test_malformed_top_level_field_exits_2(self, tmp_path, capsys, top, field):
        code, err = self.run_cli(tmp_path, capsys, top=top)
        assert code == 2
        assert err.startswith("config error: ") and field in err

    def test_seed_range_form(self):
        config = ExperimentConfig.from_dict(
            {"problem": {"kind": "onemax", "n_bits": 4}, "solver": {"preset": "TN1"},
             "seeds": {"start": 3, "count": 2}, "out": "unused"}
        )
        assert config.seeds == [3, 4]

    def test_readme_lists_every_solver_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Solver stanzas take", 1)[1].split("\n\n", 1)[0]
        listed = set(re.findall(r"`([a-z_.0-9]+)`", paragraph))
        assert listed == {"preset", *_SOLVER_KEYS, *(f"diagnostics.{key}" for key in _DIAGNOSTICS_KEYS)}

    def test_readme_lists_every_problem_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullets = readme.split("Problem stanzas have", 1)[1].split("\n\n", 2)[1].split("\n- ")
        listed = {}
        for bullet in bullets:
            kind, *keys = re.findall(r"`([a-z_.0-9]+)`", bullet)
            listed[kind] = set(keys)
        assert listed == {kind: set(keys) for kind, keys in _PROBLEM_KEYS.items()}


class TestValidateRecord:
    """Each rejection of the record schema that bench/checks.py relies on."""

    def valid(self):
        rec = RunRecord(generation=3, best_objective=-5.0, median_objective=-4.0, calls=120, n_new=30,
                        temperature=None, wall_time_s=0.25)
        return record_to_dict(rec, seed=7, optimum=-6.0)

    def test_a_valid_record_passes(self):
        record = self.valid()
        validate_record(record)
        assert record["wall_time_s"] == 0.25 and record["relative_error"] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("change, message", [
        (lambda record: record.pop("best"), "missing fields ['best']"),
        (lambda record: record.update(seed=7.0), "seed and generation must be integers"),
        (lambda record: record.update(generation=0), "generation must be >= 1 and counts nonnegative"),
        (lambda record: record.update(wall_time_s=math.inf), "wall_time_s must be a finite number"),
        (lambda record: record.update(kl_delta="0.1"), "kl_delta must be a number or null"),
        (lambda record: record.update(kl_primary_infinite=0), "kl_primary_infinite must be a boolean"),
    ])
    def test_rejection(self, change, message):
        record = self.valid()
        change(record)
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_record(record)
