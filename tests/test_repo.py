"""Checks on the checkout itself, not on the library."""
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

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
