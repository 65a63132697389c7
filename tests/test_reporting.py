import math

import numpy as np

from sdwave import reporting


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
