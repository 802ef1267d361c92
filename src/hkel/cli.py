"""Command-line harness: simulate, sweep, check-data, selftest."""

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, format_config, parse_config
from .diagnostics import (
    VARIATION_MAX_SAMPLES,
    DiagnosticsReport,
    SweepRow,
    data_norm,
    energy,
    gradient_besov_norms,
    gradient_besov_sup,
    s_surrogate,
    solution_norm,
    sweep_report,
)
from .direct import run_direct
from .elastic import (
    InitialData,
    compatibility_residuals,
    det_residual,
    make_shear_data,
    recover_pressure,
)
from .picard import COMPATIBILITY_TOL, compatible, free_wave_state, picard_solve
from .selftest import run_selftest
from .snapshots import read_snapshot, write_snapshot
from .spectral import Grid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


# Trajectory-sized arrays alive at a run's peak: the slope of own-process peak
# RSS against the trajectory size between two 2D N=64 horizons (dt = 0.01),
# rounded up.  Picard reads 7.9 at 300/600 steps: the solve's spectral
# iterates and Duhamel temporaries.  The leapfrog reads 2.3 at 300/600 steps
# and 3.1 at 600/900, where run_direct returns: it holds the physical and
# spectral Y, the velocity's spectrum and the box with its difference
# temporaries.  The 3D slope depends on the horizons (Picard at N=16: 6.1 at
# 30/90 steps, 2.7 at 90/150), because a run's chunk-lattice temporaries do
# not grow with the horizon, so it is not a count of arrays.
PEAK_TRAJECTORY_ARRAYS = {"picard": 8, "direct": 4}

# In-memory products of one simulation, reused by sweep analytics.
SimArtifacts = namedtuple("SimArtifacts", "grid data tg Yh dYh report")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hkel",
        description="Pseudo-spectral incompressible Hookean elastodynamics toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hkel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_cfg in (
        ("simulate", True),
        ("sweep", True),
        ("check-data", True),
        ("selftest", False),
    ):
        p = sub.add_parser(name)
        if needs_cfg:
            p.add_argument("config", help="path to a key = value configuration file")
            p.add_argument("--output", help="override output_dir from the config")
        if name == "sweep":
            p.add_argument(
                "--epsilons",
                help="comma-separated amplitudes (overrides sweep_epsilons)",
            )
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return EXIT_OK if run_selftest() else EXIT_ERROR

    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.output:
        cfg.output_dir = args.output

    try:
        if args.command == "simulate":
            return run_one(cfg)[0]
        if args.command == "check-data":
            return cmd_check_data(cfg)
        if args.command == "sweep":
            epsilons = cfg.sweep_epsilons
            if getattr(args, "epsilons", None):
                epsilons = tuple(float(x) for x in args.epsilons.split(",") if x.strip())
            return cmd_sweep(cfg, epsilons)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    raise AssertionError(f"unhandled command {args.command}")


# -- data loading -----------------------------------------------------------


def load_initial_data(grid, cfg):
    if cfg.init == "shear_composition":
        return make_shear_data(grid, cfg.epsilon, seed=cfg.seed)
    path = cfg.init[len("file:") :]
    n, size, _, comps = read_snapshot(path)
    if n != grid.n or size != grid.size:
        raise ConfigError(
            f"snapshot {path} is {n}d N={size}, config wants {grid.n}d N={grid.size}"
        )
    if comps.shape[0] != 2 * grid.n:
        raise ConfigError(
            f"snapshot {path} must stack f and g ({2 * grid.n} components), "
            f"found {comps.shape[0]}"
        )
    return InitialData(comps[: grid.n], comps[grid.n :])


# -- simulate ----------------------------------------------------------------


def run_one(cfg, subdir=None):
    """Run one simulation; returns (exit code, artifacts or None)."""
    need, have = memory_estimate(cfg), physical_memory()
    if need > have:
        print(f"error: the run needs about {need / 1e9:.3g} GB, "
              f"more than the {have / 1e9:.3g} GB of physical memory", file=sys.stderr)
        return EXIT_ERROR, None
    outdir = Path(cfg.output_dir) if subdir is None else Path(cfg.output_dir) / subdir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(format_config(cfg))

    grid = Grid(cfg.dimension, cfg.grid_n)
    data = load_initial_data(grid, cfg)
    r1, r2 = compatibility_residuals(grid, data)
    if not compatible(r1, r2):
        print(f"error: incompatible initial data: residuals ({r1:.2e}, {r2:.2e})",
              file=sys.stderr)
        return EXIT_ERROR, None

    started = time.perf_counter()
    report = DiagnosticsReport()
    tg = cfg.time_grid()
    if cfg.solver == "picard":
        result = picard_solve(grid, data, cfg, check_compatibility=False)
        if result.reason:
            print(f"not converged: {result.reason}", file=sys.stderr)
            return EXIT_NOT_CONVERGED, None
        traj = result.state
        report.ratios = list(result.ratios)
        report.converged = result.converged
        report.iterations = result.iterations
    else:
        try:
            traj = run_direct(grid, data, cfg)
        except RuntimeError as exc:
            print(f"not converged: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED, None
        report.iterations = int(np.max(traj.pressure_iterations))
    Yh, dYh = traj.Yh, traj.dYh  # both solvers hand over half spectra, time first

    # G = grad Y exists one chunk of the sampled times at a time, for det_residual
    s = grid.n / 2.0
    every = cfg.diagnostics_every
    span = every * grid.samples_per_chunk()
    for m0 in range(0, tg.nsamples, span):
        batch = slice(m0, min(m0 + span, tg.nsamples), every)
        Yb, dYb = Yh[batch], dYh[batch]
        rows = zip(tg.times[batch], gradient_besov_norms(grid, Yb, s),
                   gradient_besov_norms(grid, dYb, s - 1.0), energy(grid, Yb, dYb),
                   map(det_residual, grid.jacobian_of_spectrum(Yb)),
                   recover_pressure(grid, Yb, traj.boxYh[batch]))
        report.rows.extend(tuple(map(float, row)) for row in rows)
    total, variation = s_surrogate(grid, tg, Yh, dYh)
    report.s_surrogate = total
    report.s_variation_part = variation
    report.variation_stride = max(1, -(-tg.nsamples // VARIATION_MAX_SAMPLES))
    report.wall_clock = time.perf_counter() - started

    write_csv(outdir / "diagnostics.csv", DiagnosticsReport.CSV_COLUMNS, report.rows)
    if cfg.snapshot_every > 0:
        for m in range(0, tg.nsamples, cfg.snapshot_every):
            write_snapshot(
                outdir / f"snapshot_{m:06d}.hkel",
                grid.n,
                grid.size,
                tg.times[m],
                grid.jacobian_of_spectrum(Yh[m]).reshape((-1,) + grid.shape),
            )
    write_run_summary(outdir / "report.txt", cfg, report, r1, r2)
    artifacts = SimArtifacts(grid, data, tg, Yh, dYh, report)
    if not report.converged:
        print(f"not converged after {report.iterations} iterations; "
              f"ratios: {', '.join(f'{r:.3f}' for r in report.ratios)}", file=sys.stderr)
        return EXIT_NOT_CONVERGED, artifacts
    return EXIT_OK, artifacts


def memory_estimate(cfg):
    """Peak bytes of one run: its solver's count of (steps+1) n^2 N^n float64 arrays."""
    trajectory = (cfg.steps + 1) * cfg.dimension**2 * cfg.grid_n**cfg.dimension * 8
    return PEAK_TRAJECTORY_ARRAYS[cfg.solver] * trajectory


def physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")


def write_run_summary(path, cfg, report, r1, r2):
    lines = [
        f"hkel {__version__}",
        f"solver = {cfg.solver}",
        f"converged = {report.converged}",
        f"iterations = {report.iterations}",
        f"compatibility_residuals = {r1:.16e} {r2:.16e}",
        f"picard_ratios = {' '.join(f'{r:.16e}' for r in report.ratios)}",
        f"s_surrogate = {report.s_surrogate:.16e}",
        f"s_variation_part = {report.s_variation_part:.16e}",
        f"variation_stride = {report.variation_stride}",
        f"rng = philox (counter-based), seed = {cfg.seed}",
        f"wall_clock_s = {report.wall_clock:.3f}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


# -- sweep ---------------------------------------------------------------------


SWEEP_COLUMNS = (
    "epsilon",
    "data_norm",
    "solution_norm",
    "ratio",
    "first_picard_ratio",
    "iterations",
    "converged",
    "free_deviation",
    "monotone",
)


def cmd_sweep(cfg, epsilons):
    if len(epsilons) < 3:
        raise ConfigError("sweep needs at least 3 amplitudes (key sweep_epsilons or --epsilons)")
    if cfg.init != "shear_composition":
        raise ConfigError("sweep needs init = shear_composition: file data has no amplitude")
    runs = [replace(cfg, epsilon=eps) for eps in epsilons]  # validates each before any run
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = Grid(cfg.dimension, cfg.grid_n)
    rows = []
    all_ok = True
    for run in runs:
        code, art = run_one(run, subdir=f"eps_{run.epsilon:g}")
        if art is None:  # run_one has printed why
            return code
        all_ok = all_ok and code == EXIT_OK
        rows.append(_sweep_row(grid, run.epsilon, art))
    rows = sweep_report(rows)
    with open(outdir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                f"{r.epsilon:.16e},{r.data_norm:.16e},{r.solution_norm:.16e},"
                f"{r.ratio:.16e},{r.first_picard_ratio:.16e},{r.iterations},"
                f"{int(r.converged)},{r.free_deviation:.16e},{int(r.monotone)}\n"
            )
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _sweep_row(grid, eps, art):
    """Sweep analytics from one run's artifacts."""
    free = free_wave_state(grid, art.tg, art.data)
    dn = data_norm(grid, art.data)
    sn = solution_norm(grid, art.Yh, art.dYh)
    return SweepRow(
        epsilon=eps,
        data_norm=dn,
        solution_norm=sn,
        ratio=sn / dn if dn > 0 else 0.0,
        first_picard_ratio=art.report.ratios[0] if art.report.ratios else 0.0,
        iterations=art.report.iterations,
        converged=art.report.converged,
        free_deviation=gradient_besov_sup(grid, art.Yh - free.Yh, grid.n / 2.0),
    )


# -- check-data ------------------------------------------------------------------


def cmd_check_data(cfg):
    grid = Grid(cfg.dimension, cfg.grid_n)
    data = load_initial_data(grid, cfg)
    r1, r2 = compatibility_residuals(grid, data)
    print(f"det(I + grad f) - 1            : {r1:.6e}")
    print(f"velocity residual              : {r2:.6e}")
    ok = compatible(r1, r2)
    print(f"compatible within {COMPATIBILITY_TOL:g}: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
