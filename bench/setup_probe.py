"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <setup.json>

Set-up is importing tneda, then ``build_problem`` and ``resolve_optimum``
on the workload's problem stanza and ``build_solver`` on each solver
stanza. numpy is imported before the clock starts: its import time is the
same for every version of tneda. Prints the seconds as the last line.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported untimed, see above)


def main() -> None:
    src, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, src)
    start = time.perf_counter()
    from tneda import experiment

    problem = experiment.build_problem(spec["problem"])
    experiment.resolve_optimum(problem, "auto")
    for solver in spec["solvers"]:
        experiment.build_solver(solver)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
