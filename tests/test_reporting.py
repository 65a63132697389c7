import math
import re

import numpy as np
import pytest

from sdwave import reporting
from sdwave.errors import ConfigError


def per_value_csv(header, columns):
    """The writer's former formatting: one f-string per value."""
    cols = [np.asarray(c) for c in columns]
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(f"{float(v):.15g}" for v in row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_value_formatting(tmp_path):
    floats = np.array([
        -0.0, 0.0, 1e-300, 5e-324, 1e17, -1e17, 1e15, 123456789012345.67,
        0.1 + 0.2, 1.0000000000000005, 0.99999999999999994, 2.5e-16,
        9.999999999999995e22, 1.2345678901234549, math.pi, -math.e,
        math.inf, -math.inf, math.nan, 6.02214076e23,
    ])
    n = floats.shape[0]
    ints = np.array([0, -1, 7, 2**53 + 1, -2**62, 10**15, 10**16 - 1, 42,
                     3, 2**31, -5, 999999999999999, 1000000000000001, 1, 2,
                     -(10**17), 12, 13, 14, 15], dtype=np.int64)
    bools = np.arange(n) % 3 == 0
    singles = floats.astype(np.float32)
    listed = [0.5 * k for k in range(n)]
    columns = [floats, ints, bools, singles, listed]
    path = tmp_path / "edge.csv"
    reporting.write_csv(path, "f,i,b,s,l", columns)
    assert path.read_text() == per_value_csv("f,i,b,s,l", columns)


def test_write_csv_across_blocks(tmp_path):
    rng = np.random.default_rng(2)
    n = 2 * reporting.CSV_BLOCK_ROWS + 5
    columns = [np.linspace(-40.0, 140.0, n), rng.uniform(-1.0, 1.0, n) ** 9]
    path = tmp_path / "long.csv"
    reporting.write_csv(path, "xi,phi", columns)
    assert path.read_text() == per_value_csv("xi,phi", columns)


def test_write_csv_single_column_and_empty(tmp_path):
    path = tmp_path / "one.csv"
    reporting.write_csv(path, "x", [np.array([1.5, -0.0])])
    assert path.read_text() == "x\n1.5\n-0\n"
    reporting.write_csv(path, "x,u", [np.empty(0), np.empty(0)])
    assert path.read_text() == "x,u\n"


def genfromtxt_columns(path):
    """The reader's former parser: numpy's Python-level genfromtxt."""
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    return {name: data[name] for name in data.dtype.names}


def assert_bitwise_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float64
        assert got[name].view(np.uint64).tolist() == \
            want[name].view(np.uint64).tolist(), name


def test_read_csv_bitwise_equal_to_genfromtxt(tmp_path):
    rng = np.random.default_rng(3)
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e17, -1e17, math.nan,
                     math.inf, -math.inf, 1e-300, 0.1 + 0.2, math.pi])
    n = edge.shape[0] + 500
    columns = [np.concatenate([edge, rng.standard_normal(500) * 1e3]),
               np.concatenate([edge[::-1], rng.uniform(-1.0, 1.0, 500) ** 7]),
               np.linspace(-40.0, 140.0, n)]
    path = tmp_path / "three.csv"
    reporting.write_csv(path, "x,u,w", columns)
    assert_bitwise_equal(reporting.read_csv(path), genfromtxt_columns(path))


def test_read_csv_one_row_and_padded_header(tmp_path):
    path = tmp_path / "one.csv"
    reporting.write_csv(path, "xi , phi ", [np.array([-0.0]), np.array([1e17])])
    cols = reporting.read_csv(path)
    assert_bitwise_equal(cols, genfromtxt_columns(path))
    assert list(cols) == ["xi", "phi"] and cols["xi"].shape == (1,)


@pytest.mark.parametrize("text, where", [
    ("x,u\n1,2\n3\n", "line 3: 1 values"),
    ("x,u\n1,2\n3,abc\n", "line 3: not a number: 'abc'"),
    ("x,u\n1,2\n3,\n", "line 3: not a number: ''"),
    ("x,u\n1,2,5\n", "line 2: 3 values"),
    ("x,u\n", "no data rows"),
    ("", "line 1: expected a header row"),
    ("x,x\n1,2\n", "line 1: expected a header row"),
])
def test_read_csv_malformed_is_config_error(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}")) as err:
        reporting.read_csv(path)
    assert where in str(err.value)


def test_read_csv_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        reporting.read_csv(tmp_path / "absent.csv")
