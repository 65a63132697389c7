"""Command-line entry point: one executable, eight subcommands.

speed       threshold speed, decay roots, kernel parameters
profile     solve a wave profile and write CSV + sidecar report
verify      re-check a stored profile (residual + membership)
envelope    birth envelopes, their equilibria, and the profile bounds
simulate    run the delayed dynamics, persist snapshots
frontspeed  fit a front speed from a stored run
compare     run the fixed-delay comparison system
sweep       grid of (p, m, M): threshold / profile / measured speed
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, dispersion, pdesim, profile, reporting
from .config import RunConfig, build_model, load_config
from .errors import (ConfigError, ModelInvalidError, NonconvergenceError,
                     NoRootsError, SchemeError, SdwaveError, VerificationError)
from .model import ConstantDelay, ModelSpec, RickerBirth, equilibrium

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_VERIFY = 3
EXIT_NONCONV = 4


def _ctx(cfg: RunConfig, model):
    mode = cfg.get("dispersion", "exponent", "lambda_c_m")
    return dispersion.CharacteristicContext.from_model(model, exponent_mode=mode)


def _dispersion_tol(cfg: RunConfig) -> float:
    return cfg.get("dispersion", "tol", 1e-10)


def _solver_speed(cfg: RunConfig, model, sr, tol: float):
    """sr if the solvers would compute the same threshold themselves, else None.

    The solvers use the default exponent mode and bisection tolerance.
    """
    same = (_ctx(cfg, model) == dispersion.CharacteristicContext.from_model(model)
            and tol == dispersion.BISECTION_TOL)
    return sr if same else None


def _solver_config(cfg: RunConfig) -> profile.SolverConfig:
    sec = cfg.section("profile")
    kwargs = {key: sec[key] for key in ("c", "tol", "max_iters", "damping",
                                        "phase_level", "h", "left_width",
                                        "right_width", "beta", "mode")
              if key in sec}
    try:
        return profile.SolverConfig(**kwargs)
    except ModelInvalidError as exc:
        raise ModelInvalidError(f"[profile] {exc}") from None


def _resolve_speed(cfg: RunConfig, model, explicit_c=None, critical=False):
    ctx = _ctx(cfg, model)
    sr = dispersion.critical_speed(ctx, tol=_dispersion_tol(cfg))
    if critical or cfg.get("profile", "critical", False):
        return None, sr
    c = explicit_c if explicit_c is not None else cfg.get("profile", "c")
    if c is None:
        factor = cfg.get("profile", "c_factor", 1.2)
        c = factor * sr.c_star
    return float(c), sr


def _out_dir(cfg: RunConfig, args) -> Path:
    if getattr(args, "out_dir", None):
        d = Path(args.out_dir)
    else:
        d = cfg.get("output", "dir") or Path("sdwave_out")
    d = Path(d)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _emit(report: reporting.Report, args, human_lines, json_path=None) -> None:
    if json_path is not None:
        reporting.write_json(json_path, report.as_dict())
    if args.json:
        sys.stdout.write(reporting.dumps(report.as_dict()))
    else:
        for line in human_lines:
            print(line)


def _base_report(cfg: RunConfig, command: str) -> reporting.Report:
    return reporting.Report(command=command,
                            config_digest=reporting.config_digest(cfg.text),
                            version=__version__)


# ---------------------------------------------------------------------------
# commands

def cmd_speed(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    model = build_model(cfg)
    model.validate()
    ctx = _ctx(cfg, model)
    sr = dispersion.critical_speed(ctx, tol=_dispersion_tol(cfg))
    speeds = [float(c) for c in (args.c or [])]
    if not speeds:
        speeds = cfg.get("dispersion", "speeds") or [1.1 * sr.c_star,
                                                     1.5 * sr.c_star,
                                                     2.0 * sr.c_star]
    K = equilibrium(model)
    roots_rows, beta_rows = [], []
    for c in speeds:
        rp = dispersion.decay_roots(c, ctx)
        kr = dispersion.choose_beta(c, model, range_end=K, ctx=ctx, speed=sr)
        roots_rows.append({"c": c, "lambda1": rp.lambda1, "lambda2": rp.lambda2})
        beta_rows.append({"c": c, "beta": kr.beta,
                          "gamma1": kr.gamma1, "gamma2": kr.gamma2})
    rep = _base_report(cfg, "speed")
    rep.results = {"c_star": sr.c_star, "lambda_star": sr.lambda_star,
                   "bracket": list(sr.bracket), "roots": roots_rows,
                   "beta": beta_rows}
    rep.timings["total"] = watch.lap("total")
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
    return EXIT_OK


def cmd_profile(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    model = build_model(cfg)
    model.validate()
    sc = _solver_config(cfg)
    critical = bool(args.critical) or cfg.get("profile", "critical", False)
    c, sr = _resolve_speed(cfg, model, explicit_c=args.c, critical=critical)
    speed = _solver_speed(cfg, model, sr, _dispersion_tol(cfg))
    sol = (profile.solve_critical(model, sc, speed=speed) if critical
           else profile.solve(model, c, sc, speed=speed))
    out = Path(args.out) if args.out else _out_dir(cfg, args) / "profile.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    reporting.write_csv(out, "xi,phi", [sol.profile.xi, sol.profile.values])
    rep = _base_report(cfg, "profile")
    rep.results = {
        "c": sol.c, "c_star": sr.c_star, "beta": sol.beta,
        "lambda1": sol.lambda1, "lambda2": sol.lambda2,
        "residual_sup": sol.residual_sup, "iterations": sol.iterations,
        "mode": sol.mode, "phase_shift": sol.shift, "note": sol.note,
        "exact_anchor_from": sol.exact_anchor_from, "csv": str(out),
    }
    rep.invariants = {"sandwich_ok": sol.sandwich_ok,
                      "lipschitz_ok": sol.lipschitz_ok,
                      "monotone_ok": sol.monotone_ok,
                      "f_consistency": sol.f_consistency,
                      "clamp_excess": sol.clamp_excess}
    rep.timings["total"] = watch.lap("total")
    reporting.write_json(out.with_suffix(".json"), rep.as_dict())
    _emit(rep, args, [
        f"profile at c = {sol.c:.9g} (c* = {sr.c_star:.9g}), mode {sol.mode}",
        f"converged in {sol.iterations} iterations, residual {sol.residual_sup:.3e}",
        f"wrote {out} and {out.with_suffix('.json')}",
    ])
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    model = build_model(cfg)
    model.validate()
    csv_path = Path(args.profile)
    if not csv_path.exists():
        raise ConfigError(f"profile CSV not found: {csv_path}")
    sidecar = csv_path.with_suffix(".json")
    if not sidecar.exists():
        raise ConfigError(f"sidecar report not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())["results"]
        c, beta, shift, recorded = (float(meta[key]) for key in
                                    ("c", "beta", "phase_shift", "residual_sup"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sidecar report {sidecar} lacks a usable value: {exc}")
    cols = reporting.read_csv(csv_path)
    if set(cols) != {"xi", "phi"}:
        raise ConfigError(f"{csv_path}: expected header 'xi,phi'")
    xi, values = cols["xi"], cols["phi"]
    K = equilibrium(model)
    grid = profile.ProfileGrid(xi=xi, values=values, left_limit=0.0,
                               right_limit=float(values[-1]))
    res_sup, res_arr = profile.residual(grid, c, model)
    monotone = meta.get("mode", "monotone") == "monotone"
    level = K if monotone else bounds.build_envelopes(model).level
    mem = profile.gamma_membership(grid, c, beta, model, shift=shift,
                                   level=level, require_monotone=monotone,
                                   sandwich_tol=1e-6)
    tol = max(2.0 * recorded, 1e-9)
    failures = {}
    if res_sup > tol:
        worst = int(np.argmax(np.abs(res_arr)))
        failures["residual"] = {
            "recomputed": res_sup, "recorded": recorded,
            "xi": float(grid.xi[2 + worst])}
    if not mem.member:
        failures["membership"] = mem.margins
    rep = _base_report(cfg, "verify")
    rep.results = {"csv": str(csv_path), "residual_sup": res_sup,
                   "recorded_residual_sup": recorded}
    rep.invariants = {"residual_ok": res_sup <= tol,
                      "sandwich_ok": mem.sandwich_ok,
                      "monotone_ok": mem.monotone_ok,
                      "lipschitz_ok": mem.lipschitz_ok}
    rep.timings["total"] = watch.lap("total")
    lines = [f"re-verified {csv_path}: residual {res_sup:.3e} "
             f"(recorded {recorded:.3e})"]
    if failures:
        lines.append(f"FAILED: {failures}")
        _emit(rep, args, lines, csv_path.with_name(csv_path.stem + "_verify.json"))
        raise VerificationError(f"profile verification failed: {failures}")
    lines.append("all checks passed")
    _emit(rep, args, lines, csv_path.with_name(csv_path.stem + "_verify.json"))
    return EXIT_OK


def cmd_envelope(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    model = build_model(cfg)
    model.validate()
    pair = bounds.build_envelopes(model)
    c, sr = _resolve_speed(cfg, model, explicit_c=args.c)
    low = bounds.build_lower(c, model)
    up = bounds.build_upper(c, model, level=pair.level)
    rep = _base_report(cfg, "envelope")
    rep.results = {"kcal": pair.level, "k": pair.k, "c": c,
                   "eta": low.eta, "q": low.q, "c_star": sr.c_star}
    rep.timings["total"] = watch.lap("total")
    out_dir = _out_dir(cfg, args)
    u = np.linspace(0.0, pair.level, 2001)
    reporting.write_csv(out_dir / "envelopes.csv", "u,b,b_upper,b_lower",
                        [u, model.birth.value(u), pair.upper.value(u),
                         pair.lower.value(u)])
    # cover the lower bound's positive window plus the upper plateau onset
    xi = np.linspace(low.xi0 - 20.0 / low.lam1, up.kinks[0] + 10.0, 2001)
    reporting.write_csv(out_dir / "profile_bounds.csv", "xi,phi_upper,phi_lower",
                        [xi, up.value(xi), low.value(xi)])
    json_path = out_dir / "envelope.json"
    _emit(rep, args, [
        f"envelope equilibria: k = {pair.k:.9g}, level = {pair.level:.9g}",
        f"lower-profile parameters at c = {c:.9g}: eta = {low.eta:.9g}, "
        f"q = {low.q:.9g}",
        f"wrote {out_dir / 'envelopes.csv'} and {out_dir / 'profile_bounds.csv'}",
    ], json_path)
    return EXIT_OK


def _sim_config_from(cfg: RunConfig, section: str, model=None,
                     default_high=None) -> pdesim.SimConfig:
    sec = cfg.section(section)
    x_min, x_max, nx, t_end = (cfg.require(section, key)
                               for key in ("x_min", "x_max", "nx", "t_end"))

    def resolve_high(raw):
        if raw is None or (isinstance(raw, str) and raw in ("equilibrium", "plateau")):
            if model is not None:
                return equilibrium(model)
            if default_high is not None:
                return float(default_high)
            raise ConfigError(f"cannot resolve initial height in [{section}]")
        return float(raw)

    kind = sec.get("initial.kind", "step")
    if kind == "step":
        high = resolve_high(sec.get("initial.high"))
        initial = ("step", sec.get("initial.location", 0.0),
                   sec.get("initial.low", 0.0), high)
    elif kind == "bump":
        center = sec.get("initial.center", 0.0)
        width = sec.get("initial.width", 10.0)
        height = sec.get("initial.height")
        height = resolve_high(height)

        def bump(x, center=center, width=width, height=height):
            return np.where(np.abs(x - center) < width, height, 0.0)

        initial = bump
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

        def interp_init(x, xs=xs, ys=ys):
            return np.interp(x, xs, ys, left=float(ys[0]), right=float(ys[-1]))

        initial = interp_init
    else:
        raise ConfigError(f"unknown initial.kind {kind!r}")
    hkind = sec.get("history.kind", "frozen")
    if hkind == "frozen":
        history = "frozen"
    elif hkind == "translate":
        speed = sec.get("history.speed")
        if speed is None:
            raise ConfigError("history.kind = translate requires history.speed")
        history = ("translate", float(speed))
    else:
        raise ConfigError(f"unknown history.kind {hkind!r}")
    n_snap = sec.get("snapshot_count", 41)
    if n_snap < 2:
        raise ConfigError(f"[{section}] snapshot_count must be >= 2, not {n_snap}")
    return pdesim.SimConfig(
        x_min=x_min, x_max=x_max, nx=nx, t_end=t_end, dt=sec.get("dt"),
        boundary=sec.get("boundary", "neumann"),
        dirichlet=(sec.get("dirichlet_left", 0.0), sec.get("dirichlet_right", 0.0)),
        initial=initial, history=history,
        snapshot_times=list(np.linspace(0.0, t_end, n_snap)),
        store_every=sec.get("store_every", 1),
        track_every=sec.get("track_every", 1),
        level=sec.get("level"), front_level=sec.get("front_level"))


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
        "dt": record.dt, "warnings": record.warnings, "meta": record.meta,
        "track": {"times": record.track.times, "positions": record.track.positions},
    }
    reporting.write_json(out_dir / "run.json", run_meta)
    return run_meta


def cmd_simulate(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    model = build_model(cfg)
    model.validate()
    sim_cfg = _sim_config_from(cfg, "pde", model=model)
    record = pdesim.run(sim_cfg, model, meta={"kind": "delay"})
    out_dir = _out_dir(cfg, args)
    _persist_run(record, out_dir)
    rep = _base_report(cfg, "simulate")
    rep.results = {"snapshots": len(record.times), "t_end": record.times[-1],
                   "dt": record.dt, "out_dir": str(out_dir),
                   "warnings": record.warnings}
    rep.timings["total"] = watch.lap("total")
    _emit(rep, args, [
        f"simulated to t = {record.times[-1]:.6g} with dt = {record.dt:.6g}",
        f"wrote {len(record.times)} snapshots to {out_dir}",
    ], out_dir / "report.json")
    return EXIT_OK


def cmd_frontspeed(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    run_dir = Path(args.run)
    run_json = run_dir / "run.json"
    if not run_json.exists():
        raise ConfigError(f"run metadata not found: {run_json}")
    meta = json.loads(run_json.read_text())
    track = pdesim.FrontTrack(times=np.asarray(meta["track"]["times"]),
                              positions=np.asarray(meta["track"]["positions"]))
    if args.level is not None:
        # re-derive positions from the stored snapshots at the requested level
        times, positions = [], []
        for t, name in zip(meta["times"], meta["files"]):
            cols = reporting.read_csv(run_dir / name)
            if set(cols) != {"x", "u"}:
                raise ConfigError(f"{run_dir / name}: expected header 'x,u'")
            fld = pdesim.Field(x=cols["x"], u=cols["u"], t=t)
            pos = pdesim.front_position(fld, float(args.level))
            if pos is not None:
                times.append(t)
                positions.append(pos)
        track = pdesim.FrontTrack(times=np.asarray(times),
                                  positions=np.asarray(positions))
    speed, stderr = pdesim.front_speed(track, window_fraction=args.window)
    rep = _base_report(cfg, "frontspeed")
    rep.results = {"speed": speed, "stderr": stderr,
                   "samples": int(track.times.shape[0]),
                   "window": args.window}
    rep.timings["total"] = watch.lap("total")
    _emit(rep, args, [f"front speed {speed:.9g} +/- {stderr:.3g} "
                      f"({track.times.shape[0]} samples)"],
          run_dir / "frontspeed.json")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    sec = cfg.section("comparison")
    D1, D2, D3 = (cfg.require("comparison", key) for key in ("D1", "D2", "D3"))
    params = pdesim.ComparisonParams(D1=D1, D2=D2, D3=D3, m=sec.get("m", 0.0))
    sim_cfg = _sim_config_from(cfg, "comparison", default_high=params.plateau)
    record = pdesim.simulate_comparison(params, None, sim_cfg,
                                        meta={"kind": "comparison"})
    out_dir = _out_dir(cfg, args)
    _persist_run(record, out_dir)
    frac = sec.get("probe_speed_fraction", 0.9)
    lin_ctx = dispersion.CharacteristicContext(
        d=params.D1, growth_at_zero=params.D2, lag_at_zero=params.m)
    c_comp = dispersion.critical_speed(lin_ctx).c_star
    try:
        cone = pdesim.spreading_probe(record, frac * c_comp)
    except SdwaveError:
        cone = (float("nan"), float("nan"))
    rep = _base_report(cfg, "compare")
    rep.results = {"plateau": params.plateau, "spreading_speed": c_comp,
                   "cone_inf": cone[0], "cone_sup": cone[1],
                   "probe_speed": frac * c_comp,
                   "out_dir": str(out_dir), "warnings": record.warnings}
    rep.timings["total"] = watch.lap("total")
    _emit(rep, args, [
        f"comparison run: plateau {params.plateau:.9g}, spreading speed "
        f"{c_comp:.9g}",
        f"cone extrema at {frac:.2g}x speed: [{cone[0]:.6g}, {cone[1]:.6g}]",
        f"wrote snapshots to {out_dir}",
    ], out_dir / "report.json")
    return EXIT_OK


def _sweep_row(cfg: RunConfig, p: float, m: float, M: float) -> dict:
    row = {"p": p, "m": m, "M": M, "c_star": float("nan"),
           "measured_speed": float("nan"), "residual_sup": float("nan"),
           "error": ""}
    try:
        base = build_model(cfg)
        birth = RickerBirth(p)
        if base.delay.kind == "constant":
            delay = ConstantDelay(m)
        else:
            delay = type(base.delay)(m, M)
        model = ModelSpec(d=base.d, birth=birth, delay=delay)
        model.validate()
        ctx = _ctx(cfg, model)
        sr = dispersion.critical_speed(ctx)
        row["c_star"] = sr.c_star
        factor = cfg.get("sweep", "c_factor", 1.2)
        speed = _solver_speed(cfg, model, sr, dispersion.BISECTION_TOL)
        sol = profile.solve(model, factor * sr.c_star, _solver_config(cfg),
                            speed=speed)
        row["residual_sup"] = sol.residual_sup
        sweep = cfg.section("sweep")
        pde = dict(cfg.section("pde"))
        for key in ("nx", "t_end", "x_min", "x_max"):
            if key in sweep:
                pde[key] = sweep[key]
        tmp = RunConfig(sections={**cfg.sections, "pde": pde}, path=cfg.path,
                        text=cfg.text)
        sim_cfg = _sim_config_from(tmp, "pde", model=model)
        record = pdesim.run(sim_cfg, model)
        speed, _ = pdesim.front_speed(record.track)
        row["measured_speed"] = speed
    except SdwaveError as exc:
        row["error"] = str(exc)
    return row


def cmd_sweep(cfg: RunConfig, args) -> int:
    watch = reporting.Stopwatch()
    sec = cfg.section("sweep")
    ps = sec.get("p") or []
    ms = sec.get("m") or []
    Ms = sec.get("M") or []
    if not ps or not ms or not Ms:
        raise ConfigError("sweep needs nonempty p, m, and M lists")
    rows = [_sweep_row(cfg, p, m, M) for p in ps for m in ms for M in Ms]
    out_dir = _out_dir(cfg, args)
    path = out_dir / "sweep.csv"
    lines = ["p,m,M,c_star,measured_speed,residual_sup"]
    for r in rows:
        lines.append(",".join(f"{float(r[k]):.15g}" for k in
                              ("p", "m", "M", "c_star", "measured_speed",
                               "residual_sup")))
    path.write_text("\n".join(lines) + "\n")
    n_fail = sum(1 for r in rows if r["error"])
    rep = _base_report(cfg, "sweep")
    rep.results = {"rows": rows, "csv": str(path)}
    rep.timings["total"] = watch.lap("total")
    _emit(rep, args, [f"swept {len(rows)} rows ({n_fail} failed), wrote {path}"],
          out_dir / "sweep.json")
    if n_fail == len(rows):
        raise ConfigError("every sweep row failed")
    return EXIT_OK


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
    ap.add_argument("--out", help="primary output path (command specific)")
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
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelInvalidError, NoRootsError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (NonconvergenceError, SchemeError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except SdwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
