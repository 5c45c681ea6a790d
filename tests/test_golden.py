"""Golden records: fixed-seed runs whose records must not change.

Each case runs one solver preset at small scale through ``run_single`` and
compares its records, minus ``wall_time_s``, line for line with the JSON
lines stored in ``tests/golden/``. A refactor that keeps the order of
floating-point operations must leave them byte-identical. The knapsack
cases run out of call budget part-way through a generation; the trap cases
run every generation, with many tied objectives.

TN1 and TN2 are not here: their Born-machine fits amplify rounding, so
their records move with any change in summation order.

Regenerate, only after a deliberate change of behaviour, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from tneda.experiment import build_problem, resolve_optimum, run_single

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 11

KNAPSACK = {"kind": "knapsack_random", "n_bits": 30, "seed": 2024}
TRAP = {"kind": "trap", "n_blocks": 8}
SMALL = {"n_parents": 100, "n_children": 100, "n_init": 100, "generations": 12, "t_max": 12}
BUDGET_CUT = {"call_budget": 950}  # 100 + 12 x 100 children would exceed it


def _cases() -> dict[str, tuple[dict, dict]]:
    cases = {}
    for problem_name, problem, extra in (("knapsack", KNAPSACK, BUDGET_CUT), ("trap", TRAP, {})):
        for preset in ("BN1", "GA1"):
            cases[f"{preset}-{problem_name}"] = (problem, {"preset": preset, **SMALL, "pool_size": 60, **extra})
        for preset in ("BN2", "GA2"):
            cases[f"{preset}-{problem_name}"] = (problem, {"preset": preset, **SMALL, **extra})
        cases[f"TN3-{problem_name}"] = (problem, {"preset": "TN3", "generations": 60, **extra})
    return cases


CASES = _cases()


def record_lines(problem_spec: dict, solver_spec: dict) -> list[str]:
    problem = build_problem(problem_spec)
    optimum = resolve_optimum(problem, "auto")
    records = run_single(problem, solver_spec, SEED, optimum)
    return [
        json.dumps({k: v for k, v in record.items() if k != "wall_time_s"}, allow_nan=False)
        for record in records
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden(name):
    expected = (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
    assert record_lines(*CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (problem_spec, solver_spec) in sorted(CASES.items()):
        lines = record_lines(problem_spec, solver_spec)
        (GOLDEN_DIR / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines))
        print(f"{name}: {len(lines)} records")
