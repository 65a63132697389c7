"""Checks on the checkout itself, not on the library."""
import ast
import importlib.util
import inspect
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sdwave"

needs_git = pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout")


def git_ls_files(*args):
    return subprocess.run(["git", "ls-files", *args], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@needs_git
def test_no_tracked_file_is_ignored():
    assert git_ls_files("-ci", "--exclude-standard") == ""


@needs_git
def test_no_generated_sources_tracked():
    # the kernels are plain Python: no C, extension source or binary in git
    assert git_ls_files("src/*.c", "src/*.pyx", "src/*.so") == ""


def _references(node):
    """How often each name appears as a name or an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_function_in_src_is_named_elsewhere_in_src():
    # src/ holds only what a command runs: a function or method that only
    # the tests reach belongs in the tests.  Names are matched without
    # scopes, so this cannot prove that a call happens; it catches every
    # function that nothing in src/ names outside its own body
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    refs = sum((_references(tree) for tree in trees), Counter())
    unreferenced = [
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name]]
    assert unreferenced == []


# the public functions the benchmark's per-layer metrics are named after
PER_LAYER_FUNCTIONS = (
    ("sdwave.profile", ("apply_F", "residual", "gamma_membership")),
    ("sdwave.dispersion", ("critical_speed", "decay_roots", "choose_beta",
                           "char_min")),
    ("sdwave.model", ("validate_hypotheses",)),
    ("sdwave._kernels", ("exp_conv_pair", "solve_tridiagonal")),
    ("sdwave.pdesim", ("front_position",)),
    ("sdwave.reporting", ("write_csv",)),
)


def test_traced_targets_exist():
    # the tracer skips a target that is gone, and its metrics then read 0
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, cls, attr, name, _ in tracing.EXTRA_TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert owner is not None and attr in vars(owner), name
    for module, names in PER_LAYER_FUNCTIONS:
        mod = importlib.import_module(module)
        for attr in names:
            obj = getattr(mod, attr, None)
            assert callable(obj) and not inspect.isclass(obj), f"{module}.{attr}"
            assert (obj.__module__, obj.__name__) not in tracing.UNWRAPPED
            layer = tracing.MODULE_LAYER[obj.__module__]
            assert f"{layer}.{obj.__name__}" == f"{tracing.MODULE_LAYER[module]}.{attr}"


def test_hypothesis_reports_under_the_warning_filters(tmp_path):
    # to print a falsifying example, hypothesis imports
    # hypothesis.extra._patching, which imports libcst; a DeprecationWarning
    # there, turned into an error by pyproject's filters, would end the run
    # in an INTERNALERROR that hides the example
    pytest.importorskip("hypothesis")
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed, so nothing can warn")
    probe = tmp_path / "test_probe.py"
    probe.write_text("def test_import():\n"
                     "    import hypothesis.extra._patching  # noqa: F401\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr


def test_readme_names_every_config_key():
    # the README's key reference has one row per key (a row may name
    # several sections and keys) and names no key the schema lacks
    from sdwave.config import SCHEMA

    text = (ROOT / "README.md").read_text()
    table = text.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in table.splitlines():
        cells = row.split("|")
        if len(cells) > 3 and "`" in cells[1]:
            sections = re.findall(r"`\[(\w+)\]`", cells[1])
            keys = re.findall(r"`([^`]+)`", cells[2])
            documented |= {(s, k) for s in sections for k in keys}
    assert documented == {(s, k) for s in SCHEMA for k in SCHEMA[s]}


def test_each_exit_code_has_one_error_class():
    from sdwave import errors

    classes = [cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.SdwaveError)
               and cls is not errors.SdwaveError]
    assert sorted(cls.exit_code for cls in classes) == [1, 2, 3, 4]
    assert len({cls.label for cls in classes}) == 4


def test_readme_names_each_exit_code():
    # with its class and the label main prints
    from sdwave import errors

    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = text.split("Exit codes:", 1)[1].split(". ", 1)[0]
    assert sentence.startswith(" 0 ok;")
    for cls in (errors.ConfigError, errors.ModelInvalidError,
                errors.VerificationError, errors.NonconvergenceError):
        assert f'{cls.exit_code} `{cls.__name__}` ("{cls.label}")' in sentence


def test_no_module_raises_the_bare_base_class():
    # each failure carries the exit code of its own class
    bare = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and node.exc is not None
            and "SdwaveError" in _references(node.exc)]
    assert bare == []
