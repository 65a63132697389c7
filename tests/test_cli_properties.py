"""Property test: any speed given to `speed` or `envelope` ends in an exit
code of 0-4, with a one-line message on stderr when it is not 0, and never in
a traceback or a numpy warning.  Runs in process through `cli.main`, one case
at a time."""
import contextlib
import io
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sdwave import cli

MODEL = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7
"""


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """critical -> config path, both writing their CSVs to one directory."""
    tmp = tmp_path_factory.mktemp("speeds")
    paths = {}
    for critical in (False, True):
        path = tmp / f"critical_{critical}.cfg"
        path.write_text(MODEL + ("\n[profile]\ncritical = true\n" if critical else "")
                        + f"\n[output]\ndir = {tmp / 'out'}\n")
        paths[critical] = path
    return paths


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(command=st.sampled_from(["speed", "envelope"]), critical=st.booleans(),
       c=st.none() | st.floats())
@example(command="envelope", critical=True, c=None)
@example(command="envelope", critical=False, c=-1.0)
@example(command="speed", critical=False, c=-1.0)
@example(command="speed", critical=False, c=float("nan"))
@example(command="speed", critical=False, c=float("-inf"))
@example(command="envelope", critical=False, c=5e-324)
@example(command="envelope", critical=False, c=1e154)
@example(command="speed", critical=True, c=1.7e308)
def test_any_speed_ends_with_an_exit_code_and_a_message(configs, command,
                                                       critical, c):
    argv = ["--config", str(configs[critical]), "--json", command]
    if c is not None:
        argv.append(f"--c={c!r}")     # '=' keeps '-inf' from reading as a flag
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert isinstance(code, int) and 0 <= code <= 4
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1
