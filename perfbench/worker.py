"""One benchmark process: set up and run one workload through cli.run_one.

Started by run.py, one fresh process per measurement, so that the import of
hkel is part of set-up and peak RSS is this process's own.  Usage:

    python3 perfbench/worker.py --workload picard2d --seed 0 --mode full \
        --trace 0 --run-id picard2d-s0-1 --out result.json

``--mode setup`` stops right after compatibility_residuals returns inside
run_one, so set-up is timed on exactly the path a full run takes.  The
correctness gate runs after the timed region; the result is one JSON file.
"""

import argparse
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


class _SetupDone(Exception):
    pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(HERE))
    from spec import COMMON, WORKLOADS

    config = dict(COMMON, **WORKLOADS[args.workload]["config"])
    outdir = ROOT / ".bench_out" / args.workload / args.run_id
    shutil.rmtree(outdir, ignore_errors=True)
    result = {"run_id": args.run_id, "mode": args.mode, "trace": args.trace}
    try:
        result.update(measure(args, config, outdir))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))


def measure(args, config, outdir):
    # -- set-up: import, configuration, grid, data, compatibility check ----
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import hkel
    from hkel import cli
    from hkel.config import RunConfig
    from hkel.picard import COMPATIBILITY_TOL

    src = (ROOT / "src" / "hkel").resolve()
    if Path(hkel.__file__).resolve().parent != src:
        raise SystemExit(f"hkel imported from {hkel.__file__}, not from {src}")

    cfg = RunConfig(seed=args.seed, output_dir=str(outdir), **config)
    marks = {}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    compat = cli.compatibility_residuals

    def compat_probe(*a, **k):
        out = compat(*a, **k)
        marks["setup_end"] = time.perf_counter()
        marks["setup_cpu"] = time.process_time()
        if args.mode == "setup":
            raise _SetupDone(max(out))
        return out

    cli.compatibility_residuals = compat_probe
    solver_name = "picard_solve" if cfg.solver == "picard" else "run_direct"
    solver = getattr(cli, solver_name)

    def solver_probe(*a, **k):
        t0, c0 = time.perf_counter(), time.process_time()
        out = solver(*a, **k)
        marks["solve_cpu_s"] = time.process_time() - c0
        marks["solve_end"] = time.perf_counter()
        marks["solve_wall_s"] = marks["solve_end"] - t0
        marks["solver_result"] = out
        return out

    setattr(cli, solver_name, solver_probe)

    # -- timed pipeline -----------------------------------------------------
    try:
        code, artifacts = cli.run_one(cfg)
    except _SetupDone as done:
        residual = done.args[0]
        ok = residual <= COMPATIBILITY_TOL
        return {"setup_s": marks["setup_end"] - started, "ok": ok,
                "reason": "" if ok else f"incompatible data: residual {residual:.2e}"}
    finished = time.perf_counter()
    run_cpu_s = time.process_time() - marks["setup_cpu"]
    spans = list(tracer.spans) if tracer is not None else None  # not the gate's

    out = {
        "setup_s": marks["setup_end"] - started,
        "run_s": finished - marks["setup_end"],
        "run_cpu_s": run_cpu_s,
        "solve_wall_s": marks.get("solve_wall_s"),
        "solve_cpu_s": marks.get("solve_cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
    }
    grid = artifacts.grid if artifacts is not None else None
    reason = gate(cfg, code, grid, marks.get("solver_result"), outdir)
    out["ok"] = reason == ""
    out["reason"] = reason
    if tracer is not None and out["ok"]:
        import tracing

        out["layers"] = tracing.layer_metrics(
            spans, marks["setup_end"], marks["solve_end"],
            solver_facts(cfg, marks["solver_result"]))
        tracing.write_spans(outdir.parent / f"spans_{args.run_id}.jsonl", args.run_id, spans)
    return out


def solver_facts(cfg, result):
    steps = round(cfg.t_end / cfg.dt)
    traj_bytes = (steps + 1) * cfg.dimension**2 * cfg.grid_n**cfg.dimension * 8
    facts = {"traj_mb": traj_bytes / 2**20, "iterations": 0,
             "pressure_iters": 0, "pressure_iters_max": 0}
    if cfg.solver == "picard":
        facts["iterations"] = result.iterations
    else:
        facts["pressure_iters"] = int(sum(result.pressure_iterations))
        facts["pressure_iters_max"] = int(max(result.pressure_iterations))
    return facts


def gate(cfg, code, grid, result, outdir):
    """Correctness checks on one run; returns "" or the first failure."""
    import numpy as np

    from hkel.diagnostics import besov_sup
    from spec import (MAX_CONTRACTION_RATIO, MAX_DET_DRIFT_DIRECT,
                      MAX_DET_RESIDUAL_PICARD)

    if code != 0:
        return f"run_one exited with code {code}"
    if cfg.solver == "picard":
        delta = result.deltas[-1]
        scale = besov_sup(grid, result.state.G, grid.n / 2.0)
        if not result.converged:
            return f"picard not converged after {result.iterations} iterations"
        if not (math.isfinite(delta) and math.isfinite(scale)):
            return f"non-finite final delta {delta} or scale {scale}"
        if delta > cfg.picard_tol * scale:
            return f"final delta {delta:.3e} > picard_tol * scale {cfg.picard_tol * scale:.3e}"
        worst = max(result.ratios, default=0.0)
        if not worst <= MAX_CONTRACTION_RATIO:
            return f"contraction ratio {worst:.3e} > {MAX_CONTRACTION_RATIO}"
        det_bound = MAX_DET_RESIDUAL_PICARD
    else:
        if not result.det_drift <= MAX_DET_DRIFT_DIRECT:
            return f"det drift {result.det_drift:.3e} > {MAX_DET_DRIFT_DIRECT}"
        det_bound = MAX_DET_DRIFT_DIRECT

    nsamples = round(cfg.t_end / cfg.dt) + 1
    rows = len(range(0, nsamples, cfg.diagnostics_every))
    table = np.loadtxt(outdir / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (rows, 6):
        return f"diagnostics.csv has shape {table.shape}, expected ({rows}, 6)"
    if not np.all(np.isfinite(table)):
        return "diagnostics.csv has non-finite values"
    times = cfg.dt * np.arange(0, nsamples, cfg.diagnostics_every)
    if not np.allclose(table[:, 0], times, rtol=0, atol=1e-12):
        return "diagnostics.csv times do not match the sample grid"
    if not table[:, 4].max() <= det_bound:
        return f"max |det(I+G)-1| {table[:, 4].max():.3e} > {det_bound}"
    if cfg.snapshot_every > 0:
        snaps = sorted(outdir.glob("snapshot_*.hkel"))
        want = len(range(0, nsamples, cfg.snapshot_every))
        size = 28 + 8 * cfg.dimension**2 * cfg.grid_n**cfg.dimension
        if len(snaps) != want or any(p.stat().st_size != size for p in snaps):
            return f"expected {want} snapshots of {size} bytes, found {len(snaps)}"
    if not (outdir / "report.txt").is_file():
        return "report.txt missing"
    return ""


if __name__ == "__main__":
    main()
