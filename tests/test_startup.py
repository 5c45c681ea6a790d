"""Start-up path: what importing tneda loads, and the set-up probe still runs.

Each check runs in a fresh interpreter, because this test session has
already imported whatever other tests needed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(*args):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_does_not_load_the_process_pool():
    # The pool is imported inside run_experiment's jobs > 1 branch only.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import tneda, tneda.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    assert run_python("-c", code).strip() == "[]"


def test_setup_probe_prints_seconds(tmp_path):
    spec = {"problem": {"kind": "onemax", "n_bits": 8},
            "solvers": [{"preset": "TN1", "n_parents": 10, "n_children": 10, "n_init": 10, "generations": 1}]}
    spec_path = tmp_path / "setup.json"
    spec_path.write_text(json.dumps(spec))
    last = run_python(str(ROOT / "bench" / "setup_probe.py"), str(SRC), str(spec_path)).splitlines()[-1]
    assert float(last) > 0.0
