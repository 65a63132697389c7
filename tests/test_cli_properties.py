"""Property tests: any speed given to `speed` or `envelope`, any Ricker model
given to them, and any step or bump datum under a frozen or translated
history given to `simulate`, ends in an exit code of 0-4, with a one-line
message on stderr when it is not 0, and never in a traceback or a numpy
warning.  Runs in process through `cli.main`, one case at a time."""
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


def assert_ends_cleanly(argv):
    """cli.main(argv) returns 0-4, with one stderr line when not 0, and
    raises no RuntimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert isinstance(code, int) and 0 <= code <= 4
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1


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
    assert_ends_cleanly(argv)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(command=st.sampled_from(["speed", "envelope"]),
       d=st.floats(0.1, 10.0), ratio=st.floats(1.0, 1000.0, exclude_min=True),
       lag=st.sampled_from(["constant", "saturating_rational",
                            "saturating_exponential"]),
       m=st.floats(0.0, 1.0), spread=st.floats(0.0, 2.0))
@example(command="envelope", d=1.0, ratio=100.0, lag="saturating_rational",
         m=0.2, spread=0.5)
@example(command="envelope", d=0.1, ratio=1000.0, lag="saturating_exponential",
         m=1.0, spread=2.0)
@example(command="speed", d=10.0, ratio=1.0 + 2.0**-52, lag="constant",
         m=0.0, spread=0.0)
def test_any_ricker_model_ends_with_an_exit_code_and_a_message(
        model_dir, command, d, ratio, lag, m, spread):
    # d in [0.1, 10], p/d in (1, 1000], every lag kind with m in [0, 1] and
    # M - m in [0, 2]; a constant lag reads only m
    cfg = model_dir / "model.cfg"
    cfg.write_text(f"[model]\nd = {d!r}\nbirth.kind = ricker\n"
                   f"birth.p = {ratio * d!r}\ndelay.kind = {lag}\n"
                   f"delay.m = {m!r}\ndelay.M = {m + spread!r}\n"
                   f"[output]\ndir = {model_dir / 'out'}\n")
    assert_ends_cleanly(["--config", str(cfg), "--json", command])


finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datum")


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(kind=st.sampled_from(["step", "bump"]),
       history=st.sampled_from(["frozen", "translate"]),
       location=finite, width=finite, low=finite, height=finite, speed=finite)
@example(kind="step", history="frozen", location=0.0, width=0.0, low=0.0,
         height=1e200, speed=0.0)
@example(kind="bump", history="translate", location=0.0, width=1e308,
         low=0.0, height=-1e308, speed=-1.7e308)
@example(kind="step", history="translate", location=-1e308, width=0.0,
         low=3.35e153, height=0.0, speed=1.7e308)
def test_any_datum_and_history_end_with_an_exit_code_and_a_message(
        sim_dir, kind, history, location, width, low, height, speed):
    # `simulate` on a tiny grid, from every initial datum and history the
    # CLI reads; `low` is the step's value beyond its location
    if kind == "step":
        datum = (f"initial.location = {location!r}\ninitial.low = {low!r}\n"
                 f"initial.high = {height!r}\n")
    else:
        datum = (f"initial.center = {location!r}\ninitial.width = {width!r}\n"
                 f"initial.height = {height!r}\n")
    if history == "translate":
        datum += f"history.speed = {speed!r}\n"
    cfg = sim_dir / "sim.cfg"
    cfg.write_text(MODEL + "[pde]\nx_min = -5\nx_max = 5\nnx = 16\nt_end = 0.5\n"
                   f"snapshot_count = 3\ninitial.kind = {kind}\n"
                   f"history.kind = {history}\n" + datum)
    argv = ["--config", str(cfg), "simulate", "--out-dir", str(sim_dir / "run")]
    assert_ends_cleanly(argv)
