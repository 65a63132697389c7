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
from pathlib import Path

import numpy as np

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


def write_csv(path, header: str, columns) -> None:
    """One row per index of the equal-length columns, each value as %.15g.

    Rows are formatted a block at a time from Python scalars (`tolist`),
    so only one block of them is alive at once.
    """
    cols = [np.asarray(c) for c in columns]
    n = min((c.shape[0] for c in cols), default=0)
    fmt = ",".join(["%.15g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, n, CSV_BLOCK_ROWS):
            block = [c[i:i + CSV_BLOCK_ROWS].tolist() for c in cols]
            fh.write("".join(fmt % row for row in zip(*block)))


def read_csv(path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names is None:
        raise ValueError(f"{path}: expected a header row")
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


@dataclass
class Report:
    command: str
    config_digest: str
    results: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    version: str = ""

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config_digest": self.config_digest,
            "results": self.results,
            "invariants": self.invariants,
            "timings": self.timings,
            "version": self.version,
        }


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Stopwatch:
    def __init__(self):
        self._t0 = time.perf_counter()
        self.laps = {}

    def lap(self, name: str):
        now = time.perf_counter()
        self.laps[name] = canonical_float(now - self._t0)
        self._t0 = now
        return self.laps[name]
