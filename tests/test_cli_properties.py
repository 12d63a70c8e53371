"""Hostile configuration values never crash the CLI.

``pdnet run`` is driven with ``--set`` overrides on every configuration
key, with values that break naive parsing or arithmetic (nan, inf,
negative, empty, huge, tiny, text): each key-value pair alone, then
hypothesis-drawn combinations of up to three. ``pdnet sweep`` is driven
with each of those values on every sweep parameter. Whatever the input,
the command must end with exit code 0, 2 or 3, and an input error must
be reported as a single ``error:`` line instead of a traceback.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from pdnet import cli, config as cfgmod

#: a run small enough for hundreds of examples in a few seconds
TINY = {"problem.n": "6", "graph.k": "2", "graph.rows": "2",
        "graph.cols": "3", "graph.p": "0.5", "run.T": "20",
        "run.record_every": "5", "reference.iterations": "50"}

#: keys whose value sets an array size or a loop length: a huge value
#: there is a legitimate (if slow) request, not a malformed one
SIZE_KEYS = {"problem.n", "graph.n", "problem.d", "graph.k", "graph.rows",
             "graph.cols", "graph.bridges", "run.T", "reference.iterations"}

HOSTILE = ["nan", "inf", "-inf", "-1", "-5", "0", "", "  ", "none", "abc",
           "true", "1.5", "1e300", "-1e300", "1e-300", "5e-324",
           "99999999999999999999", "0x10", "1_000"]

#: the hostile values a size key may take: huge integers are left out
SIZE_HOSTILE = [v for v in HOSTILE if v != "99999999999999999999"]


def _values(key):
    return SIZE_HOSTILE if key in SIZE_KEYS else HOSTILE


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cfgmod.DEFAULTS)),
                         min_size=1, max_size=3, unique=True))
    out = {}
    for key in keys:
        values = st.sampled_from(_values(key))
        if key in SIZE_KEYS:
            values |= st.integers(-3, 12).map(str)
        out[key] = draw(values)
    return out


def _set_args(sets):
    return [arg for key, value in sets.items()
            for arg in ("--set", f"{key}={value}")]


def _check_cli(argv, case):
    """Run the CLI on ``argv`` and check how it ends."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {cli.OUTPUT_ROOT_ENV: root}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED), case
    if code == cli.EXIT_CONFIG:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, lines)


def _run_cli(sets):
    """``pdnet run`` on the tiny config plus ``sets``."""
    _check_cli(["run", "--out", "run", *_set_args({**TINY, **sets})], sets)


def test_run_survives_each_hostile_value():
    # every single override, so no one key-value pair is left to chance
    for key in sorted(cfgmod.DEFAULTS):
        for value in _values(key):
            _run_cli({key: value})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(overrides())
def test_run_survives_hostile_config_values(sets):
    _run_cli(sets)


def test_sweep_survives_each_hostile_value():
    # --values=V keeps argparse from reading a value such as -inf as an option
    for param in cli.SWEEP_PARAMS:
        for value in SIZE_HOSTILE if param == "T" else HOSTILE:
            _check_cli(["sweep", "--out", "sweep", *_set_args(TINY),
                        "--param", param, f"--values={value}"], (param, value))
