"""Command-line harness: simulate, sweep, check-data, selftest."""

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, format_config, parse_amplitudes, parse_config
from .diagnostics import (
    DiagnosticsReport,
    SweepRow,
    data_norm,
    energy,
    gradient_besov_norms,
    gradient_besov_sup,
    s_surrogate,
    sweep_report,
    variation_stride,
)
from .direct import run_direct
from .elastic import (
    InitialData,
    compatibility_residuals,
    make_shear_data,
    recover_pressure,
)
from .picard import COMPATIBILITY_TOL, compatible, free_seed, picard_solve
from .selftest import run_selftest
from .snapshots import read_snapshot, write_snapshot
from .spectral import CHUNK_BYTES, Grid, fine_sample_bytes
from .waves import free_wave

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


# Peak bytes of a run: a per-solver count of half-spectrum Y trajectories
# (the slope of own-process peak RSS against their size between two horizons,
# rounded up), one fixed term (the interpreter, numpy, the data and the
# solver's working set) and chunks of G on the product lattice: a map's
# lattice buffers and block temporaries (1.9 chunks at most in 3D, traced; a
# 2D row is not split, so there they grow with the horizon, to 3.1 chunks at
# 500 steps in N=64) and, in 3D, where a chunk is one sample,
# compatibility_residuals' peak of 3.4 samples of G at pad 2.  Picard
# holds three trajectories, and its run peak reads 2.88-3.29 in 2D N=64
# (100-500 steps), 3.00-3.31 in 3D N=16 (30-960) and 3.01-3.02 in 3D N=32
# (50-130), where its estimate is 1.16-1.53x its peak.  In 3D N=16 at T =
# 1.2, 2.4, 4.8 and 9.6 (dt 0.01) the peaks read 86.1, 127.9, 203.8 and
# 356.3 MiB, the estimate 1.21-1.29x the peak; the solve's own slope is
# 3.01-3.02 there, and the surrogate sets the last three peaks.
# The leapfrog holds Y and box Y and reads 2.03-2.06 in 2D N=64 (256-1024
# steps) over about 45.6 MiB, where its estimate is 1.27-1.38x its peak.
TRAJECTORY_ARRAYS = {"picard": 4, "direct": 3}
BASELINE_BYTES, CHUNK_LATTICES = 40 * 2**20, 6

# In-memory products of one simulation, reused by sweep analytics.
SimArtifacts = namedtuple("SimArtifacts", "grid data tg Yh report")


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
            epsilons = parse_amplitudes(args.epsilons) if args.epsilons else cfg.sweep_epsilons
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
        # generated data is compatible in the continuum: its residual is lattice truncation
        hint = (f"; the composed shears are under-resolved at grid_n = {cfg.grid_n}, "
                f"try grid_n = {2 * cfg.grid_n}") if cfg.init == "shear_composition" else ""
        print(f"error: incompatible initial data: residuals ({r1:.2e}, {r2:.2e}){hint}",
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
        report.pressure_iterations_total = int(sum(traj.pressure_iterations))
    # Both solvers hand over the half spectra of Y and box Y, time first, and
    # those of d_t Y through traj.velocity: Picard stores the d_t Y its map
    # forms alongside Y; the leapfrog steps positions only, so its velocity is
    # a difference of Y's spectra, formed a chunk or a block where it is read.
    Yh = traj.Yh
    report.s_surrogate, report.s_variation_part = s_surrogate(grid, traj)

    # G = grad Y exists one chunk of the sampled times at a time, for Picard's
    # det residuals (freed before recover_pressure); the leapfrog hands its over
    s = grid.n / 2.0
    for batch in grid.chunks(tg.nsamples, cfg.diagnostics_every):
        Yb, dYb = Yh[batch], traj.velocity(batch)
        rows = zip(tg.times[batch], gradient_besov_norms(grid, Yb, s),
                   gradient_besov_norms(grid, dYb, s - 1.0), energy(grid, Yb, dYb),
                   traj.det_residuals(batch), recover_pressure(grid, Yb, traj.boxYh[batch]))
        report.rows.extend(tuple(map(float, row)) for row in rows)
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
    artifacts = SimArtifacts(grid, data, tg, Yh, report)
    if not report.converged:
        print(f"not converged after {report.iterations} iterations; "
              f"ratios: {', '.join(f'{r:.3f}' for r in report.ratios)}", file=sys.stderr)
        return EXIT_NOT_CONVERGED, artifacts
    return EXIT_OK, artifacts


def trajectory_bytes(cfg):
    """Bytes of one half-spectrum trajectory of Y: (steps+1) n N^(n-1) (N/2+1) complex128."""
    n, size = cfg.dimension, cfg.grid_n
    return (cfg.steps + 1) * n * size ** (n - 1) * (size // 2 + 1) * 16


def memory_estimate(cfg):
    """Peak bytes of one run: ``trajectory_bytes`` per trajectory held, a fixed term and chunks."""
    chunk = max(CHUNK_BYTES, fine_sample_bytes(cfg.dimension, cfg.grid_n))  # at least one sample
    return (TRAJECTORY_ARRAYS[cfg.solver] * trajectory_bytes(cfg) + BASELINE_BYTES
            + CHUNK_LATTICES * chunk)


def physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def write_csv(path, columns, rows):
    """A header and one line per row: a float as %.16e, an int or bool as str(int(x))."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.16e}" if isinstance(x, float) else str(int(x))
                              for x in row) + "\n")


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
        f"variation_stride = {variation_stride(cfg.steps + 1)}",
        f"rng = philox (counter-based), seed = {cfg.seed}",
        f"wall_clock_s = {report.wall_clock:.3f}",
    ]
    if cfg.solver == "direct":  # the leapfrog's iterations is the most in one step
        lines.append(f"pressure_iterations_total = {report.pressure_iterations_total}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- sweep ---------------------------------------------------------------------


def cmd_sweep(cfg, epsilons):
    if len(epsilons) < 3:
        raise ConfigError("sweep needs at least 3 amplitudes (key sweep_epsilons or --epsilons)")
    if cfg.init != "shear_composition":
        raise ConfigError("sweep needs init = shear_composition: file data has no amplitude")
    if len(set(epsilons)) != len(epsilons):
        raise ConfigError("sweep amplitudes must be distinct")
    runs = [replace(cfg, epsilon=eps) for eps in epsilons]  # validates each before any run
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    all_ok = True
    for run in runs:
        code, art = run_one(run, subdir=f"eps_{run.epsilon!r}")  # shortest repr: one per amplitude
        if art is None:  # run_one has printed why
            return code
        all_ok = all_ok and code == EXIT_OK
        rows.append(_sweep_row(run.epsilon, art))
    columns = [f.name for f in fields(SweepRow)]
    write_csv(outdir / "sweep.csv", columns, map(astuple, sweep_report(rows)))
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _sweep_row(eps, art):
    """Sweep analytics from one run's artifacts."""
    grid, tg = art.grid, art.tg
    seed = free_seed(grid, art.data)
    # the free wave exists one chunk of samples at a time; each sample's norm is its own
    free_deviation = float(np.max([
        gradient_besov_sup(grid, art.Yh[c] - free_wave(grid, seed, tg.times[c])[0], grid.n / 2.0)
        for c in grid.chunks(tg.nsamples)]))
    dn = data_norm(grid, art.data)
    # sup ||grad Y|| + sup ||grad d_t Y|| over the diagnostics rows, whose norms are per sample
    table = np.array(art.report.rows)
    sup_G, sup_dG = (table[:, DiagnosticsReport.CSV_COLUMNS.index(c)].max()
                     for c in ("besov_G", "besov_dG"))
    sn = float(sup_G + sup_dG)
    return SweepRow(
        epsilon=float(eps),  # an int amplitude from the library still writes as a float
        data_norm=dn,
        solution_norm=sn,
        ratio=sn / dn if dn > 0 else 0.0,
        first_picard_ratio=art.report.ratios[0] if art.report.ratios else 0.0,
        iterations=art.report.iterations,
        converged=art.report.converged,
        free_deviation=free_deviation,
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
