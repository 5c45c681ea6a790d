"""Property test over the config key tables: one spoiled key is a ConfigError that names it.

Hypothesis picks a key of ``_CONFIG_KEYS``, of ``_PROBLEM_KEYS[kind]``, of
``_SOLVER_KEYS`` or of ``_DIAGNOSTICS_KEYS`` and spoils it in a valid
stanza: a value of the wrong JSON type, NaN or +-Infinity for a number, a
bool or a value beyond int64 for an integer, a negative or repeated seed,
or a near-miss key name.
Values are drawn for each key's type in the table, so a key added to a
table is covered without a new case. The checks run no solver; two CLI
tests also check that a spoiled config writes no file.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tneda.cli import main
from tneda.experiment import (
    _CONFIG_KEYS,
    _DIAGNOSTICS_KEYS,
    _NO_VALUE,
    _PROBLEM_KEYS,
    _SOLVER_KEYS,
    ConfigError,
    ExperimentConfig,
    build_solver,
)

#: Values that are not of each config type. ``None`` is wrong only for a
#: key whose default is not null.
WRONG = {
    # a bool or a float is no integer, nor is one beyond int64
    int: ["x", 1.5, 2.0, True, False, [1], {}, math.nan, math.inf, None, 10**30, -(2**63) - 1],
    float: ["x", True, [0.5], {}, math.nan, math.inf, -math.inf, 10**400, None],
    bool: [0, 1, "true", [True], {}, None],
    str: [5, 0.5, True, ["x"], {}, None],
    dict: ["x", 5, True, [], None],
    "seeds": [
        "0..3", [], [1.5], [True], [-1], [1, -2], [3, 3], [0, 1, 0],
        {"start": -1, "count": 2}, {"begin": 0, "count": 2}, {"start": 0, "count": 0}, None,
    ],
    "optimum": [True, "7", math.nan, math.inf, -math.inf, [1], {}],
}
#: A valid value of each type, for the keys a stanza must give.
VALID = {int: 4, str: "unused"}

SMALL_SOLVER = {"preset": "TN1", "n_parents": 20, "n_children": 20, "n_init": 20, "generations": 2}


def valid_payloads(out="unused"):
    """Each key table with a valid stanza to spoil, where its keys go, and the error's prefix for a key."""
    config = {"problem": {"kind": "onemax", "n_bits": 4}, "solver": dict(SMALL_SOLVER), "seeds": [0], "out": out}
    yield _CONFIG_KEYS, config, (), ""
    for kind, table in _PROBLEM_KEYS.items():
        required = {key: VALID[kind_] for key, (kind_, default) in table.items() if default is _NO_VALUE}
        yield table, {**config, "problem": {"kind": kind, **required}}, ("problem",), ""
    yield _SOLVER_KEYS, config, ("solver",), ""
    with_diagnostics = {**config, "solver": {**SMALL_SOLVER, "diagnostics": {}}}
    yield _DIAGNOSTICS_KEYS, with_diagnostics, ("solver", "diagnostics"), "diagnostics."


TABLES = list(valid_payloads())


def near_misses(key):
    """Keys one edit from ``key``: a letter dropped, doubled or swapped with the next one."""
    out = set()
    for i in range(len(key)):
        out.add(key[:i] + key[i + 1:])
        out.add(key[:i] + key[i] + key[i:])
        if i + 1 < len(key):
            out.add(key[:i] + key[i + 1] + key[i] + key[i + 2:])
    return sorted(out)


@st.composite
def spoiled_configs(draw, out="unused"):
    """A config with one key of one table spoiled, and the name its error must give."""
    index = draw(st.integers(0, len(TABLES) - 1))
    table, payload, where, prefix = list(valid_payloads(out))[index]
    key = draw(st.sampled_from(sorted(table)))
    stanza = payload
    for part in where:
        stanza = stanza[part]
    kind, default = table[key]
    near = [name for name in near_misses(key) if name and name not in table and name not in ("kind", "preset")]
    wrong = [value for value in WRONG[kind] if value is not None or default is not None]
    if draw(st.booleans()):
        typo = draw(st.sampled_from(near))
        stanza[typo] = stanza.pop(key, VALID.get(kind, 0))
        return payload, repr(typo)
    stanza[key] = draw(st.sampled_from(wrong))
    return payload, repr(prefix + key)


@settings(max_examples=300, deadline=None, database=None)
@given(case=spoiled_configs())
def test_one_spoiled_key_is_a_config_error_naming_it(case):
    payload, name = case
    with pytest.raises(ConfigError) as err:
        config = ExperimentConfig.from_dict(payload)
        build_solver(config.solver)
    assert name in str(err.value)


def test_every_key_type_has_wrong_values():
    assert {kind for table, *_ in TABLES for kind, _ in table.values()} <= set(WRONG)


@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_spoiled_config_exits_2_and_writes_nothing(data):
    with tempfile.TemporaryDirectory() as tmp:
        payload, name = data.draw(spoiled_configs(out=str(Path(tmp) / "results")))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        err, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)  # where a config with "out": 5 would write
        try:
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(path)])
        finally:
            os.chdir(cwd)
        assert code == 2
        assert err.getvalue().startswith("config error: ") and name in err.getvalue()
        assert list(Path(tmp).iterdir()) == [path]


@pytest.mark.parametrize("solver", [{"chi": 10**30}, {"generations": 2**63}])
def test_integer_beyond_int64_exits_2_and_creates_no_directory(tmp_path, capsys, solver):
    key, value = next(iter(solver.items()))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {"kind": "onemax", "n_bits": 4}, "solver": {**SMALL_SOLVER, **solver},
        "seeds": [0], "out": str(tmp_path / "results"),
    }))
    assert main(["run", "--config", str(path)]) == 2
    assert f"'{key}' must be an integer, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
