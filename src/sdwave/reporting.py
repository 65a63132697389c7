"""Deterministic report and table serialization.

Floats are rounded to 15 significant digits and then printed in shortest
round-trip form, so reports and CSVs are byte-stable across runs and
platforms.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError

CSV_BLOCK_ROWS = 4096     # rows formatted per write in write_csv


def canonical_float(x: float) -> float:
    return float(f"{float(x):.15g}")


def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return canonical_float(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def dumps(obj) -> str:
    return json.dumps(_clean(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj))


def block_formats(first, ncols: int) -> list:
    """write_csv's per-block format strings with the first column printed.

    A run that writes many CSVs sharing their first column (the snapshots'
    `x`) prints that column once here and passes the result to write_csv
    as `formats`; the bytes are the same.
    """
    rest = ",%.15g" * (ncols - 1) + "\n"
    first = np.asarray(first)
    return ["".join(["%.15g" % v + rest
                     for v in first[i:i + CSV_BLOCK_ROWS].tolist()])
            for i in range(0, first.shape[0], CSV_BLOCK_ROWS)]


def write_csv(path, header: str, columns, formats=None) -> None:
    """One row per index of the equal-length columns, each value as %.15g.

    Rows are formatted a block at a time, with one `%` over the block's
    Python scalars (`tolist`), so only one block of them is alive at once.
    `formats`, from block_formats, already holds the first column.
    """
    cols = [np.asarray(c) for c in columns]
    n = min((c.shape[0] for c in cols), default=0)
    if formats is not None:
        cols = cols[1:]
    row = ",".join(["%.15g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, i in enumerate(range(0, n, CSV_BLOCK_ROWS)):
            block = [c[i:i + CSV_BLOCK_ROWS].tolist() for c in cols]
            fmt = formats[k] if formats is not None else row * min(n - i, CSV_BLOCK_ROWS)
            fh.write(fmt % tuple(chain.from_iterable(zip(*block))))


def _first_bad_line(path, lines, ncols: int) -> str:
    """Where and why the data lines (file lines 2...) do not parse, or ''."""
    for lineno, line in enumerate(lines, start=2):
        fields = line.split("#", 1)[0].strip()
        if not fields:
            continue
        fields = fields.split(",")
        if len(fields) != ncols:
            return (f"{path}, line {lineno}: {len(fields)} values where the "
                    f"header names {ncols}")
        for cell in fields:
            try:
                float(cell)
            except ValueError:
                return f"{path}, line {lineno}: not a number: {cell.strip()!r}"
    return ""


def read_csv(path) -> dict:
    """Columns of a numeric CSV by header name, as float64 arrays.

    The header's comma-separated names are stripped of surrounding blanks;
    the data lines go through numpy's C parser, which reads `nan` and
    `inf` as write_csv prints them.  A file without data rows, a row of the
    wrong length or a cell that is not a number raises ConfigError naming
    the file and the line.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    header, _, body = text.partition("\n")
    names = [name.strip() for name in header.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise ConfigError(f"{path}, line 1: expected a header row of distinct "
                          f"column names, not {header.strip()!r}")
    lines = body.splitlines()
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2) if body.strip() else None
    except ValueError as exc:
        raise ConfigError(_first_bad_line(path, lines, len(names))
                          or f"{path}: {exc}")
    if data is None or data.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows after the header line")
    if data.shape[1] != len(names):
        raise ConfigError(_first_bad_line(path, lines, len(names))
                          or f"{path}: {data.shape[1]} columns where the header "
                             f"names {len(names)}")
    return {name: data[:, k] for k, name in enumerate(names)}


@dataclass
class Report:
    command: str
    config_digest: str
    results: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    version: str = ""
    started: float = field(default_factory=time.perf_counter, repr=False)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config_digest": self.config_digest,
            "results": self.results,
            "invariants": self.invariants,
            "timings": self.timings,
            "version": self.version,
        }

    def elapsed(self) -> float:
        """Seconds since the report was made."""
        return canonical_float(time.perf_counter() - self.started)


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
