"""sdwave benchmark: one workload of CLI operations, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  sdwave is imported from ./src, and every
operation is an in-process call of `sdwave.cli.main(argv)`, so the measured
path covers config loading, dispatch, the solver or simulator and the
CSV/JSON writing.  Outputs go to a temporary directory under
./.perfbench_out that is removed at the end.

A run repeats whole passes over the workload's operations until --seconds
have elapsed (at least one pass) and checks every pass's outputs against
`oracles`.  With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it makes one untraced pass, then traced
passes with `tracing.Tracer` installed, and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
COMMANDS = ("speed", "profile", "verify", "envelope", "simulate", "frontspeed",
            "compare", "sweep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs CLI operations for a pass and counts attempted and failed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.rec = None
        self.op_seconds = None

    def start(self, rec):
        self.rec = rec
        self.op_seconds = defaultdict(float)

    def __call__(self, label, argv, rows=0):
        command = next(a for a in argv if a in COMMANDS)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an uncaught error is a failed operation
                code = f"uncaught {exc!r}"
        self.op_seconds[command] += time.perf_counter() - t0
        self.attempted += 1 + rows
        self.rec.codes[label] = code
        if code != 0:
            self.failed += 1 + rows
            reason = (err.getvalue().strip() or "no message").splitlines()[0]
            print(f"perfbench: {label} failed ({code}): {reason[:160]}", file=sys.stderr)
            return
        report = json.loads(out.getvalue())
        self.rec.reports[label] = report
        self.failed += sum(1 for row in report["results"].get("rows", []) if row["error"])


@dataclass
class Pass:
    rec: workloads.PassRecord
    wall: float
    cpu: float
    op_seconds: dict
    tracer: tracing.Tracer | None


def run_pass(workload, runner, tracer=None):
    shutil.rmtree(workload.out, ignore_errors=True)
    workload.out.mkdir()
    if tracer is None:
        leftover = tracing.find_wrappers()
        if leftover:
            raise RuntimeError(f"tracer wrappers installed in an untraced pass: {leftover}")
    rec = workloads.PassRecord(workload.out)
    runner.start(rec)
    try:
        if tracer is not None:
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        workload.run_pass(runner)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    workload.check(rec)
    print(f"perfbench: {workload.name} pass: wall {wall:.3f} s, cpu {cpu:.3f} s, "
          f"codes {rec.codes}", file=sys.stderr)
    return Pass(rec, wall, cpu, dict(runner.op_seconds), tracer)


def repeat_passes(workload, runner, seconds, make_tracer=lambda: None):
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, runner, make_tracer()))
    return passes


def probe_setup(src, configs):
    """Seconds from starting a fresh interpreter to sdwave imported and configs loaded."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), *map(str, configs)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    return elapsed


def end_to_end(setup, passes):
    return {
        "setup_s": median(setup),
        "wall_s": median(p.wall for p in passes),
        "cpu_s": median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_figures(p):
    """Figures of one untraced pass that only some workloads produce (0 elsewhere)."""
    sim_s = p.op_seconds.get("simulate", 0.0) + p.op_seconds.get("compare", 0.0)
    return {
        "profile_s": p.op_seconds.get("profile", 0.0),
        "sim_point_steps_per_s": p.rec.point_steps / sim_s if sim_s else 0.0,
        "residual_max": max(p.rec.residuals, default=0.0),
        "front_speed_gap": max(p.rec.front_gaps, default=0.0),
    }


def layer_figures(p):
    """Per-layer figures of one traced pass."""
    stats = p.tracer.stats
    blank = tracing.Stat()

    def get(name):
        return stats.get(name, blank)

    out = {}
    for name in ("dispersion.critical_speed", "dispersion.decay_roots",
                 "dispersion.choose_beta", "model.validate_hypotheses",
                 "profile.apply_F", "bounds.value", "kernels.exp_conv_pair",
                 "kernels.solve_tridiagonal", "pdesim.history_lookup",
                 "pdesim.front_position", "reporting.write_csv"):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.s"] = get(name).self
    for name, key in (("bounds.value", "points"), ("kernels.exp_conv_pair", "bytes"),
                      ("kernels.solve_tridiagonal", "bytes"), ("reporting.write_csv", "bytes")):
        out[f"{name}.{key}"] = get(name).counts[key]
    out["dispersion.char_min.calls"] = get("dispersion.char_min").calls
    out["profile.iterations"] = p.rec.iterations
    out["profile.grid_points"] = p.rec.grid_points
    out["profile.certify.s"] = get("profile.residual").self + get("profile.gamma_membership").self
    out["pdesim.steps"] = get("pdesim.step").calls
    out["pdesim.reaction.s"] = get("pdesim.reaction").self
    out["pdesim.history_clamped"] = p.rec.history_clamped
    row = get("cli.sweep_row")
    out["cli.sweep.row_s"] = row.total
    out["cli.sweep.row_wait_s"] = row.total - row.thread_cpu
    for layer, secs in p.tracer.layer_self_seconds().items():
        out[f"layer.{layer}.s"] = secs
    return out


def per_layer(base, traced):
    figures = [layer_figures(p) for p in traced]
    out = {name: median(f[name] for f in figures) for name in figures[0]}
    out.update(pass_figures(base))
    out["trace.untraced_wall_s"] = base.wall
    out["trace.wall_s"] = median(p.wall for p in traced)
    out["trace.overhead_pct"] = 100.0 * (out["trace.wall_s"] / base.wall - 1.0)
    return out


def declared_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, root, src, tmp):
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    setup = [] if args.trace else [probe_setup(src, workload.configs.values())
                                   for _ in range(SETUP_PROBES)]
    import sdwave
    from sdwave import cli
    if Path(sdwave.__file__).resolve().parent != (src / "sdwave").resolve():
        raise RuntimeError(f"sdwave imported from {sdwave.__file__}, not from {src}")
    print(f"perfbench: {workload.name} seed {args.seed}, kernel backend "
          f"{sdwave.kernel_backend}, {os.cpu_count()} cpus", file=sys.stderr)
    runner = Runner(cli)
    if args.trace:
        base = run_pass(workload, runner)
        passes = repeat_passes(workload, runner, args.seconds, tracing.Tracer)
        values = per_layer(base, passes)
        passes.append(base)
    else:
        passes = repeat_passes(workload, runner, args.seconds)
        values = end_to_end(setup, passes)
    units = declared_metrics(root, args.trace)
    if set(units) != set(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    problems = [msg for p in passes for msg in p.rec.problems]
    for msg in dict.fromkeys(problems):
        print(f"perfbench: INCORRECT: {msg}", file=sys.stderr)
    return {"correct": not problems, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sdwave" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/sdwave and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    os.chdir(tmp)   # nothing the CLI writes can land in the working tree
    try:
        result = measure(args, root, src, tmp)
    finally:
        os.chdir(root)
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
