"""Command-line entry point: one executable, eight subcommands.

speed       threshold speed, decay roots, kernel parameters
profile     solve a wave profile and write CSV + sidecar report
verify      re-check a stored profile (residual + membership)
envelope    birth envelopes, their equilibria, and the profile bounds
simulate    run the delayed dynamics, persist snapshots
frontspeed  fit a front speed from a stored run
compare     run the fixed-delay comparison system
sweep       grid of (p, m, M): threshold / profile / measured speed

`main` makes each command's report, starting its clock, and `_emit` stamps
the total time.  `_resolve_speed` alone decides `profile`/`envelope` speeds.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bounds, dispersion, pdesim, profile, reporting
from .config import RunConfig, _parse_value, build_model, load_config
from .errors import ConfigError, ModelInvalidError, SdwaveError, VerificationError
from .model import equilibrium, validate_hypotheses


def _solver_config(cfg: RunConfig) -> profile.SolverConfig:
    sec = cfg.section("profile")
    kwargs = {key: sec[key] for key in ("tol", "max_iters", "h")
              if key in sec}
    try:
        return profile.SolverConfig(**kwargs)
    except ModelInvalidError as exc:
        raise ModelInvalidError(f"[profile] {exc}") from None


def _checked_speed(c, source: str, ctx) -> float:
    # the characteristic function must stay finite on its root bracket, out to
    # twice lambda_hi ~ c: lam^2 and lam * c * tau(0) must not overflow
    c, top = float(c), 0.25 * math.sqrt(sys.float_info.max / max(1.0, ctx.lag_at_zero))
    if not 0.0 < c <= top:
        raise ConfigError(f"{source} must be a finite positive speed of at most "
                          f"{top:.4g}, not {c!r}")
    return c


def _checked_size(n: int, least: int, where: str) -> int:
    """A grid size from the config, checked before anything is allocated."""
    if not least <= n <= profile.MAX_GRID_POINTS:
        raise ConfigError(f"{where} must lie in [{least}, "
                          f"{profile.MAX_GRID_POINTS:,}], not {n}")
    return n


def _resolve_speed(cfg: RunConfig, model, explicit_c=None, critical=False):
    """(speed, threshold result): the near-critical surrogate when critical
    (the flag or [profile] critical), else --c, [profile] c or c_factor c*."""
    source, c = (("--c", explicit_c) if explicit_c is not None
                 else ("[profile] c", cfg.get("profile", "c")))
    critical = critical or cfg.get("profile", "critical", False)
    if critical and c is not None:
        raise ConfigError(f"--critical / [profile] critical and {source} "
                          "exclude each other")
    ctx = dispersion.CharacteristicContext.from_model(model)
    if c is not None:
        c = _checked_speed(c, source, ctx)
    sr = dispersion.critical_speed(ctx)
    if critical:
        return profile.near_critical_speed(sr), sr
    if c is None:
        factor = cfg.get("profile", "c_factor", 1.2)
        c = _checked_speed(factor * sr.c_star, "[profile] c_factor times c*", ctx)
    return c, sr


def _out_dir(cfg: RunConfig, args) -> Path:
    d = Path(getattr(args, "out_dir", None) or cfg.get("output", "dir")
             or "sdwave_out")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _emit(report: reporting.Report, args, human_lines, json_path=None) -> None:
    report.timings["total"] = report.elapsed()
    if json_path is not None:
        reporting.write_json(json_path, report.as_dict())
    if args.json:
        sys.stdout.write(reporting.dumps(report.as_dict()))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands

def cmd_speed(cfg: RunConfig, args, rep: reporting.Report) -> None:
    model = build_model(cfg)
    source = "--c" if args.c else "[dispersion] speeds"
    ctx = dispersion.CharacteristicContext.from_model(model)
    speeds = [_checked_speed(c, source, ctx)
              for c in args.c or cfg.get("dispersion", "speeds") or []]
    sr = dispersion.critical_speed(ctx)
    speeds = speeds or [1.1 * sr.c_star, 1.5 * sr.c_star, 2.0 * sr.c_star]
    # the paper's kernel rates, on [0, level] of the model's envelopes: their
    # beta sets membership's Lipschitz bound (the solve iterates at the
    # smaller 1.01 (d + 1))
    level = bounds.build_envelopes(
        model, validate_hypotheses(model).monotone).level
    roots_rows, beta_rows = [], []
    for c in speeds:
        rp = dispersion.decay_roots(c, ctx)
        kr = dispersion.choose_beta(c, model, range_end=level, speed=sr)
        roots_rows.append({"c": c, "lambda1": rp.lambda1, "lambda2": rp.lambda2})
        beta_rows.append({"c": c, "beta": kr.beta,
                          "gamma1": kr.gamma1, "gamma2": kr.gamma2})
    rep.results = {"c_star": sr.c_star, "lambda_star": sr.lambda_star,
                   "char_residual": sr.char_residual,
                   "slope_residual": sr.slope_residual, "roots": roots_rows,
                   "beta": beta_rows}
    json_path = None
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        reporting.write_csv(out, "c,lambda1,lambda2",
                            [np.array([r["c"] for r in roots_rows]),
                             np.array([r["lambda1"] for r in roots_rows]),
                             np.array([r["lambda2"] for r in roots_rows])])
        json_path = out.with_suffix(".json")
    lines = [f"threshold speed c* = {sr.c_star:.12g}",
             f"double root lambda* = {sr.lambda_star:.12g}"]
    lines += [f"c = {r['c']:.9g}: lambda1 = {r['lambda1']:.9g}, "
              f"lambda2 = {r['lambda2']:.9g}" for r in roots_rows]
    _emit(rep, args, lines, json_path)


def cmd_profile(cfg: RunConfig, args, rep: reporting.Report) -> None:
    model = build_model(cfg)
    sc = _solver_config(cfg)
    c, sr = _resolve_speed(cfg, model, explicit_c=args.c, critical=args.critical)
    sol = profile.solve(model, c, sc, speed=sr)
    out = Path(args.out) if args.out else _out_dir(cfg, args) / "profile.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    reporting.write_csv(out, "xi,phi", [sol.profile.xi, sol.profile.values])
    rep.results = {
        "c": sol.c, "c_star": sr.c_star, "beta": sol.beta,
        "iteration_beta": sol.iteration_beta,
        "lambda1": sol.lambda1, "lambda2": sol.lambda2,
        "residual_sup": sol.residual_sup, "iterations": sol.iterations,
        "mode": sol.mode, "phase_shift": sol.shift, "note": sol.note,
        "exact_anchor_from": sol.exact_anchor_from,
        "anderson_steps": sol.anderson_steps, "csv": str(out),
    }
    mem = sol.membership
    rep.invariants = {"sandwich_ok": mem.sandwich_ok,
                      "lipschitz_ok": mem.lipschitz_ok,
                      "monotone_ok": mem.monotone_ok,
                      "f_consistency": sol.f_consistency,
                      "clamp_excess": sol.clamp_excess}
    _emit(rep, args, [
        f"profile at c = {sol.c:.9g} (c* = {sr.c_star:.9g}), mode {sol.mode}",
        f"converged in {sol.iterations} iterations, residual {sol.residual_sup:.3e}",
        f"wrote {out} and {out.with_suffix('.json')}",
    ], out.with_suffix(".json"))


def cmd_verify(cfg: RunConfig, args, rep: reporting.Report) -> None:
    model = build_model(cfg)
    csv_path = Path(args.profile)
    if not csv_path.exists():
        raise ConfigError(f"profile CSV not found: {csv_path}")
    sidecar = csv_path.with_suffix(".json")
    if not sidecar.exists():
        raise ConfigError(f"sidecar report not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())["results"]
        c, shift, recorded = (float(meta[key]) for key in
                              ("c", "phase_shift", "residual_sup"))
        mode = meta["mode"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sidecar report {sidecar} lacks a usable value: {exc}")
    if mode not in ("monotone", "nonmonotone"):
        raise ConfigError(f"sidecar report {sidecar} names an unknown mode {mode!r}")
    ctx = dispersion.CharacteristicContext.from_model(model)
    c = _checked_speed(c, f"sidecar report {sidecar}: c", ctx)
    for key, value, ok, rule in (
            ("phase_shift", shift, math.isfinite(shift), "finite"),
            ("residual_sup", recorded, 0.0 <= recorded < math.inf,
             "finite and non-negative")):
        if not ok:
            raise ConfigError(f"sidecar report {sidecar}: {key} must be {rule}, "
                              f"not {value!r}")
    cols = reporting.read_csv(csv_path)
    if set(cols) != {"xi", "phi"}:
        raise ConfigError(f"{csv_path}: expected header 'xi,phi'")
    xi, values = cols["xi"], cols["phi"]
    grid = profile.ProfileGrid(xi=xi, values=values, left_limit=0.0,
                               right_limit=float(values[-1]))
    res_sup, res_arr = profile.residual(grid, c, model)
    # the solve's sandwich at the recorded speed, for the mode it ran, and
    # the paper's beta on its level: the model and c fix the Lipschitz bound
    roots = dispersion.decay_roots(c, ctx)
    monotone = mode == "monotone"
    upper, lower, pair = bounds.sandwich(model, roots, monotone)
    beta = dispersion.choose_beta(c, model, range_end=pair.level,
                                  speed=dispersion.critical_speed(ctx)).beta
    mem = profile.gamma_membership(grid, c, beta, model, shift=shift, upper=upper,
                                   lower=lower, require_monotone=monotone)
    tol = max(2.0 * recorded, 1e-9)
    failures = {}
    if res_sup > tol:
        worst = int(np.argmax(np.abs(res_arr)))
        failures["residual"] = {
            "recomputed": res_sup, "recorded": recorded,
            "xi": float(grid.xi[2 + worst])}
    if not mem.member:
        failures["membership"] = mem.margins
    rep.results = {"csv": str(csv_path), "residual_sup": res_sup,
                   "recorded_residual_sup": recorded}
    rep.invariants = {"residual_ok": res_sup <= tol,
                      "sandwich_ok": mem.sandwich_ok,
                      "monotone_ok": mem.monotone_ok,
                      "lipschitz_ok": mem.lipschitz_ok}
    lines = [f"re-verified {csv_path}: residual {res_sup:.3e} "
             f"(recorded {recorded:.3e})"]
    lines.append(f"FAILED: {failures}" if failures else "all checks passed")
    _emit(rep, args, lines, csv_path.with_name(csv_path.stem + "_verify.json"))
    if failures:
        raise VerificationError(f"profile verification failed: {failures}")


def cmd_envelope(cfg: RunConfig, args, rep: reporting.Report) -> None:
    model = build_model(cfg)
    c, sr = _resolve_speed(cfg, model, explicit_c=args.c)
    roots = dispersion.decay_roots(
        c, dispersion.CharacteristicContext.from_model(model))
    up, low, pair = bounds.sandwich(model, roots,
                                    validate_hypotheses(model).monotone)
    rep.results = {"kcal": pair.level, "k": pair.k, "c": c,
                   "eta": low.eta, "q": low.q, "c_star": sr.c_star}
    out_dir = _out_dir(cfg, args)
    u = np.linspace(0.0, pair.level, 2001)
    reporting.write_csv(out_dir / "envelopes.csv", "u,b,b_upper,b_lower",
                        [u, model.birth.value(u), pair.upper.value(u),
                         pair.lower.value(u)])
    # cover the lower bound's positive window plus the upper plateau onset
    xi = np.linspace(low.xi0 - 20.0 / low.lam1, up.kinks[0] + 10.0, 2001)
    reporting.write_csv(out_dir / "profile_bounds.csv", "xi,phi_upper,phi_lower",
                        [xi, up.value(xi), low.value(xi)])
    _emit(rep, args, [
        f"envelope equilibria: k = {pair.k:.9g}, level = {pair.level:.9g}",
        f"lower-profile parameters at c = {c:.9g}: eta = {low.eta:.9g}, "
        f"q = {low.q:.9g}",
        f"wrote {out_dir / 'envelopes.csv'} and {out_dir / 'profile_bounds.csv'}",
    ], out_dir / "envelope.json")


def _sim_config_from(cfg: RunConfig, section: str,
                     high: float) -> pdesim.SimConfig:
    """The section's simulation config, its datum, history and snapshot times
    resolved; `high` is the datum's default height, also spelled
    `equilibrium` or `plateau`."""
    sec = cfg.section(section)
    x_min, x_max, nx, t_end = (cfg.require(section, key)
                               for key in ("x_min", "x_max", "nx", "t_end"))
    _checked_size(nx, 8, f"[{section}] nx")

    kind = sec.get("initial.kind", "step")
    if kind == "step":
        raw = sec.get("initial.high", "equilibrium")
        if raw not in ("equilibrium", "plateau"):
            high = _parse_value(raw, "f", cfg.path.parent,
                                f"[{section}] initial.high")
        loc, low = sec.get("initial.location", 0.0), sec.get("initial.low", 0.0)

        def initial(x, loc=loc, low=float(low), high=float(high)):
            return np.where(x <= loc, high, low)
    elif kind == "bump":
        center = sec.get("initial.center", 0.0)
        width = sec.get("initial.width", 10.0)
        height = sec.get("initial.height", high)

        def initial(x, center=center, width=width, height=height):
            return np.where(np.abs(x - center) < width, height, 0.0)
    elif kind in ("profile", "table"):
        path = sec.get("initial.path")
        if path is None:
            raise ConfigError(f"initial.kind = {kind} requires initial.path")
        cols = reporting.read_csv(path)
        xcol = "xi" if "xi" in cols else "x"
        ycol = "phi" if "phi" in cols else "u"
        if xcol not in cols or ycol not in cols:
            raise ConfigError(f"{path}: expected columns 'xi,phi' or 'x,u'")
        xs, ys = cols[xcol], cols[ycol]

        def initial(x, xs=xs, ys=ys):
            return np.interp(x, xs, ys, left=float(ys[0]), right=float(ys[-1]))
    else:
        raise ConfigError(f"unknown initial.kind {kind!r}")
    hkind = sec.get("history.kind", "frozen")
    if hkind == "frozen":
        history_speed = 0.0
    elif hkind == "translate":
        history_speed = sec.get("history.speed")
        if history_speed is None:
            raise ConfigError("history.kind = translate requires history.speed")
    else:
        raise ConfigError(f"unknown history.kind {hkind!r}")
    # times round to steps, so no run needs more than one snapshot a step
    n_snap = _checked_size(sec.get("snapshot_count", 41), 2,
                           f"[{section}] snapshot_count")
    return pdesim.SimConfig(
        x_min=x_min, x_max=x_max, nx=nx, t_end=t_end, dt=sec.get("dt"),
        boundary=sec.get("boundary", "neumann"),
        dirichlet=(sec.get("dirichlet_left", 0.0), sec.get("dirichlet_right", 0.0)),
        initial=initial, history_speed=history_speed,
        snapshot_times=list(np.linspace(0.0, t_end, n_snap)),
        front_level=sec.get("front_level"))


def _persist_run(record: pdesim.RunRecord, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    formats = reporting.block_formats(record.x, 2)
    for t, u in zip(record.times, record.snapshots):
        name = f"snapshot_t{reporting.canonical_float(t):g}.csv"
        reporting.write_csv(out_dir / name, "x,u", [record.x, u], formats=formats)
        files.append(name)
    run_meta = {
        "times": record.times, "files": files, "level": record.level,
        "dt": record.dt, "warnings": record.warnings,
        "meta": {"kind": record.kind},
        "track": {"times": record.track.times, "positions": record.track.positions},
    }
    reporting.write_json(out_dir / "run.json", run_meta)
    return run_meta


def cmd_simulate(cfg: RunConfig, args, rep: reporting.Report) -> None:
    model = build_model(cfg)
    sim_cfg = _sim_config_from(cfg, "pde", equilibrium(model))
    record = pdesim.run(sim_cfg, model)
    out_dir = _out_dir(cfg, args)
    _persist_run(record, out_dir)
    rep.results = {"snapshots": len(record.times), "t_end": record.times[-1],
                   "dt": record.dt, "out_dir": str(out_dir),
                   "warnings": record.warnings}
    _emit(rep, args, [
        f"simulated to t = {record.times[-1]:.6g} with dt = {record.dt:.6g}",
        f"wrote {len(record.times)} snapshots to {out_dir}",
    ], out_dir / "report.json")


def _series(run_json: Path, name: str, values) -> np.ndarray:
    """A run.json list of finite numbers as a 1-D float array."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != 1 or not np.all(np.isfinite(out)):
        raise ConfigError(f"{run_json}: {name} must be a list of finite numbers")
    return out


def _load_run(run_dir: Path) -> tuple:
    """(front track, [(time, snapshot file)]) of a stored run, checked."""
    run_json = run_dir / "run.json"
    if not run_json.exists():
        raise ConfigError(f"run metadata not found: {run_json}")
    try:
        meta = json.loads(run_json.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{run_json}: not readable JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{run_json}: expected a JSON object")
    missing = [key for key in ("track", "times", "files") if key not in meta]
    if missing:
        raise ConfigError(f"{run_json}: missing {', '.join(missing)}")
    raw = meta["track"]
    if not (isinstance(raw, dict) and "times" in raw and "positions" in raw):
        raise ConfigError(f"{run_json}: track must hold times and positions")
    times = _series(run_json, "track.times", raw["times"])
    positions = _series(run_json, "track.positions", raw["positions"])
    if times.shape != positions.shape:
        raise ConfigError(f"{run_json}: track has {times.shape[0]} times but "
                          f"{positions.shape[0]} positions")
    snap_times = _series(run_json, "times", meta["times"])
    files = meta["files"]
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise ConfigError(f"{run_json}: files must be a list of file names")
    if snap_times.shape[0] != len(files):
        raise ConfigError(f"{run_json}: {snap_times.shape[0]} times but "
                          f"{len(files)} files")
    return (pdesim.FrontTrack(times=times, positions=positions),
            list(zip(snap_times.tolist(), files)))


def cmd_frontspeed(cfg: RunConfig, args, rep: reporting.Report) -> None:
    if not 0.0 < args.window <= 1.0:          # also rejects nan
        raise ConfigError(f"--window must lie in (0, 1], not {args.window!r}")
    run_dir = Path(args.run)
    track, snapshots = _load_run(run_dir)
    if args.level is not None:
        # re-derive positions from the stored snapshots at the requested level
        times, positions = [], []
        for t, name in snapshots:
            cols = reporting.read_csv(run_dir / name)
            if set(cols) != {"x", "u"}:
                raise ConfigError(f"{run_dir / name}: expected header 'x,u'")
            pos = pdesim.front_position(cols["x"], cols["u"], float(args.level))
            if pos is not None:
                times.append(t)
                positions.append(pos)
        track = pdesim.FrontTrack(times=np.asarray(times),
                                  positions=np.asarray(positions))
    speed, stderr = pdesim.front_speed(track, window_fraction=args.window)
    rep.results = {"speed": speed, "stderr": stderr,
                   "samples": int(track.times.shape[0]),
                   "window": args.window}
    _emit(rep, args, [f"front speed {speed:.9g} +/- {stderr:.3g} "
                      f"({track.times.shape[0]} samples)"],
          run_dir / "frontspeed.json")


def cmd_compare(cfg: RunConfig, args, rep: reporting.Report) -> None:
    sec = cfg.section("comparison")
    D1, D2, D3 = (cfg.require("comparison", key) for key in ("D1", "D2", "D3"))
    params = pdesim.ComparisonParams(D1=D1, D2=D2, D3=D3, m=sec.get("m", 0.0))
    frac = sec.get("probe_speed_fraction", 0.9)
    if not frac > 0.0:
        raise ConfigError("[comparison] probe_speed_fraction must be positive, "
                          f"not {frac!r}")
    sim_cfg = _sim_config_from(cfg, "comparison", params.plateau)
    record = pdesim.simulate_comparison(params, sim_cfg)
    out_dir = _out_dir(cfg, args)
    _persist_run(record, out_dir)
    lin_ctx = dispersion.CharacteristicContext(
        d=params.D1, growth_at_zero=params.D2, lag_at_zero=params.m)
    c_comp = dispersion.critical_speed(lin_ctx).c_star
    try:
        cone = pdesim.spreading_probe(record, frac * c_comp)
    except SdwaveError:
        cone = (float("nan"), float("nan"))
    rep.results = {"plateau": params.plateau, "spreading_speed": c_comp,
                   "cone_inf": cone[0], "cone_sup": cone[1],
                   "probe_speed": frac * c_comp,
                   "out_dir": str(out_dir), "warnings": record.warnings}
    _emit(rep, args, [
        f"comparison run: plateau {params.plateau:.9g}, spreading speed "
        f"{c_comp:.9g}",
        f"cone extrema at {frac:.2g}x speed: [{cone[0]:.6g}, {cone[1]:.6g}]",
        f"wrote snapshots to {out_dir}",
    ], out_dir / "report.json")


def _sweep_row(cfg: RunConfig, p: float, m: float, M: float) -> dict:
    row = {"p": p, "m": m, "M": M, "c_star": float("nan"),
           "measured_speed": float("nan"), "residual_sup": float("nan"),
           "error": ""}
    # the row's config: [model] a Ricker birth p with the row's lags, on the
    # base's d and delay kind, and [pde] on the sweep's grid
    sweep = cfg.section("sweep")
    row_cfg = RunConfig(sections={
        **cfg.sections,
        "model": {**cfg.section("model"), "birth.kind": "ricker",
                  "birth.p": p, "delay.m": m, "delay.M": M},
        "pde": {**cfg.section("pde"), **{key: sweep[key] for key in (
            "nx", "t_end", "x_min", "x_max") if key in sweep}},
    }, path=cfg.path, text=cfg.text)
    try:
        model = build_model(row_cfg)
        ctx = dispersion.CharacteristicContext.from_model(model)
        sr = dispersion.critical_speed(ctx)
        row["c_star"] = sr.c_star
        c = _checked_speed(cfg.get("sweep", "c_factor", 1.2) * sr.c_star,
                           "[sweep] c_factor times c*", ctx)
        sol = profile.solve(model, c, _solver_config(cfg), speed=sr)
        row["residual_sup"] = sol.residual_sup
        sim_cfg = _sim_config_from(row_cfg, "pde", equilibrium(model))
        record = pdesim.run(sim_cfg, model)
        speed, _ = pdesim.front_speed(record.track)
        row["measured_speed"] = speed
    except SdwaveError as exc:
        row["error"] = str(exc)
    return row


def _timed_row(cfg: RunConfig, point: tuple) -> tuple:
    """(`_sweep_row`'s row, its seconds), timed in the process that ran it."""
    t0 = time.perf_counter()
    row = _sweep_row(cfg, *point)
    return row, time.perf_counter() - t0


def cmd_sweep(cfg: RunConfig, args, rep: reporting.Report) -> None:
    import concurrent.futures
    import multiprocessing

    sec = cfg.section("sweep")
    ps = sec.get("p") or []
    ms = sec.get("m") or []
    Ms = sec.get("M") or []
    if not ps or not ms or not Ms:
        raise ConfigError("sweep needs nonempty p, m, and M lists")
    if "nx" in sec:
        _checked_size(sec["nx"], 8, "[sweep] nx")
    grid = [(p, m, M) for p in ps for m in ms for M in Ms]
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cores = os.cpu_count() or 1
    workers = min(len(grid), cores)
    # forked workers start with the parent's modules loaded, where spawned
    # ones would import numpy and sdwave again (about 0.2 s each), and leave
    # no server process behind, as forkserver would; map keeps grid order
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        done = list(pool.map(functools.partial(_timed_row, cfg), grid))
    rows = [row for row, _ in done]
    out_dir = _out_dir(cfg, args)
    path = out_dir / "sweep.csv"
    keys = ("p", "m", "M", "c_star", "measured_speed", "residual_sup")
    reporting.write_csv(path, ",".join(keys),
                        [[float(r[k]) for r in rows] for k in keys])
    n_fail = sum(1 for r in rows if r["error"])
    rep.results = {"rows": rows, "csv": str(path)}
    rep.timings.update(rows=[seconds for _, seconds in done], workers=workers)
    _emit(rep, args, [f"swept {len(rows)} rows ({n_fail} failed), wrote {path}"],
          out_dir / "sweep.json")
    if n_fail == len(rows):
        raise ConfigError("every sweep row failed")


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdwave",
        description="traveling waves for a reaction-diffusion equation with "
                    "state-dependent delay")
    ap.add_argument("--config", required=True, help="path to the run config file")
    ap.add_argument("--json", action="store_true",
                    help="print the JSON report to stdout")
    ap.add_argument("--out", help="output CSV path of speed and profile, "
                    "with the JSON report beside it; no other command reads it")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("speed", help="threshold speed and decay roots")
    sp.add_argument("--c", action="append", type=float,
                    help="speed for the roots table (repeatable)")

    pp = sub.add_parser("profile", help="solve a traveling wave profile")
    pp.add_argument("--c", type=float, help="wave speed (> c*)")
    pp.add_argument("--critical", action="store_true",
                    help="near-critical solve at c*(1+1e-6)")

    vp = sub.add_parser("verify", help="re-verify a stored profile CSV")
    vp.add_argument("--profile", required=True, help="profile CSV path")

    sub.add_parser("envelope", help="birth envelopes and profile bounds")
    ep = sub.choices["envelope"]
    ep.add_argument("--c", type=float, help="speed for the bound parameters")

    sim = sub.add_parser("simulate", help="run the delayed dynamics")
    sim.add_argument("--out-dir", help="directory for snapshots + run.json")

    fs = sub.add_parser("frontspeed", help="fit front speed from a stored run")
    fs.add_argument("--run", required=True, help="run directory")
    fs.add_argument("--level", type=float, help="crossing level override")
    fs.add_argument("--window", type=float, default=0.5,
                    help="trailing fraction of samples used in the fit")

    cp = sub.add_parser("compare", help="run the fixed-delay comparison system")
    cp.add_argument("--out-dir", help="directory for snapshots + run.json")

    sub.add_parser("sweep", help="parameter sweep over (p, m, M)")
    return ap


COMMANDS = {
    "speed": cmd_speed,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "envelope": cmd_envelope,
    "simulate": cmd_simulate,
    "frontspeed": cmd_frontspeed,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out and args.command not in ("speed", "profile"):
            raise ConfigError(f"{args.command} does not read --out; only "
                              "speed and profile do")
        cfg = load_config(args.config)
        rep = reporting.Report(command=args.command,
                               config_digest=reporting.config_digest(cfg.text),
                               version=__version__)
        COMMANDS[args.command](cfg, args, rep)
        return 0
    except OSError as exc:      # a path to read or write: str(exc) names it
        print(f"{ConfigError.label}: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except SdwaveError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
