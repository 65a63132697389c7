"""Key-value run configuration: sectioned text format with a strict schema.

Every key is either consumed or rejected; no silent defaults beyond the
documented ones.  Paths are resolved against the config file's directory
before execution.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (ConstantDelay, ExponentialDelay, ModelSpec, RationalDelay,
                    RickerBirth, TabulatedBirth)
from .reporting import read_csv

# value kinds: f float, i int, b bool, s string, fl float list, p path
SCHEMA = {
    "model": {
        "d": "f",
        "birth.kind": "s", "birth.p": "f", "birth.table_path": "p",
        "delay.kind": "s", "delay.m": "f", "delay.M": "f",
    },
    "dispersion": {
        "tol": "f", "exponent": "s", "speeds": "fl",
    },
    "profile": {
        "c": "f", "critical": "b", "c_factor": "f", "h": "f", "tol": "f",
        "max_iters": "i", "damping": "f", "mode": "s", "phase_level": "f",
        "left_width": "f", "right_width": "f", "beta": "f",
    },
    "pde": {
        "x_min": "f", "x_max": "f", "nx": "i", "t_end": "f", "dt": "f",
        "boundary": "s", "dirichlet_left": "f", "dirichlet_right": "f",
        "initial.kind": "s", "initial.location": "f", "initial.low": "f",
        "initial.high": "s", "initial.path": "p",
        "history.kind": "s", "history.speed": "f",
        "snapshot_count": "i", "store_every": "i", "track_every": "i",
        "front_level": "f", "level": "f",
    },
    "comparison": {
        "D1": "f", "D2": "f", "D3": "f", "m": "f",
        "x_min": "f", "x_max": "f", "nx": "i", "t_end": "f", "dt": "f",
        "initial.kind": "s", "initial.center": "f", "initial.width": "f",
        "initial.height": "f", "initial.location": "f", "initial.low": "f",
        "initial.high": "s",
        "snapshot_count": "i", "probe_speed_fraction": "f",
    },
    "sweep": {
        "p": "fl", "m": "fl", "M": "fl", "c_factor": "f",
        "nx": "i", "t_end": "f", "x_min": "f", "x_max": "f",
    },
    "output": {
        "dir": "p",
    },
}


@dataclass
class RunConfig:
    """Parsed configuration: raw per-section values plus provenance."""

    sections: dict
    path: Path
    text: str

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        try:
            return self.sections[section][key]
        except KeyError:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")


def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"not a finite number: {raw!r}")
    return val


def _parse_value(raw: str, kind: str, base: Path, where: str):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if kind == "f":
            return _finite(raw)
        if kind == "i":
            return int(raw)
        if kind == "b":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "fl":
            return [_finite(tok) for tok in raw.replace(",", " ").split()]
        if kind == "p":
            return (base / raw).resolve()
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}")


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    sections = {}
    for sec in parser.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}] in {path}")
        out = {}
        for key, raw in parser.items(sec):
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}] of {path}")
            val = _parse_value(raw, SCHEMA[sec][key], path.parent, f"[{sec}] {key}")
            if val is not None:
                out[key] = val
        sections[sec] = out
    return RunConfig(sections=sections, path=path, text=text)


def build_model(cfg: RunConfig) -> ModelSpec:
    sec = cfg.section("model")
    d = cfg.require("model", "d")
    kind = sec.get("birth.kind", "ricker")
    if kind == "ricker":
        if "birth.p" not in sec:
            raise ConfigError("birth.kind = ricker requires birth.p")
        birth = RickerBirth(sec["birth.p"])
    elif kind == "tabulated":
        table = sec.get("birth.table_path")
        if table is None:
            raise ConfigError("birth.kind = tabulated requires birth.table_path")
        birth = TabulatedBirth(_read_table(table))
    else:
        raise ConfigError(f"unknown birth.kind {kind!r}")
    dkind = sec.get("delay.kind", "constant")
    m = sec.get("delay.m", 0.0)
    M = sec.get("delay.M", m)
    if dkind == "constant":
        delay = ConstantDelay(m)
    elif dkind == "saturating_rational":
        delay = RationalDelay(m, M)
    elif dkind == "saturating_exponential":
        delay = ExponentialDelay(m, M)
    else:
        raise ConfigError(f"unknown delay.kind {dkind!r}")
    return ModelSpec(d=d, birth=birth, delay=delay)


def _read_table(path: Path):
    if not Path(path).exists():
        raise ConfigError(f"birth table not found: {path}")
    cols = read_csv(path)
    if list(cols) != ["u", "b"]:
        raise ConfigError(f"birth table {path} must have header 'u,b'")
    return np.column_stack([cols["u"], cols["b"]])
