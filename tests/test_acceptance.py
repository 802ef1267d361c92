"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and measured values.  The heavy runs (the contraction run and the
amplitude sweep) are session fixtures shared across criteria.
"""

from itertools import combinations

import numpy as np
import pytest

from hkel.diagnostics import (
    besov_sup,
    data_norm,
    loglog_slope,
    pairwise_sq_dists,
    s_surrogate,
    solution_norm,
    two_variation_from_dists,
)
from hkel.config import RunConfig
from hkel.direct import cross_validate, run_direct
from hkel.elastic import InitialData, compatibility_residuals, make_shear_data, minor_sum_total
from hkel.picard import (
    det_deviation_sup,
    free_wave_state,
    picard_solve,
)
from hkel.spectral import Grid, random_mean_free
from hkel.waves import TimeGrid, box_fd, duhamel, duhamel_trajectory, free_wave

N2, N3 = 64, 16
EPS = 1e-2
SWEEP_EPS = (1e-3, 1e-2, 1e-1)


def report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid64():
    return Grid(2, N2)


@pytest.fixture(scope="module")
def contraction_run(grid64):
    """Criterion 5/7 base run: n=2, N=64, T=5, dt=0.01, eps=1e-2."""
    data = make_shear_data(grid64, EPS, seed=101, band=2)
    cfg = RunConfig(
        dimension=2, grid_n=N2, epsilon=EPS, t_end=5.0, dt=0.01,
        picard_tol=1e-9, picard_max_iter=20, seed=101,
    )
    result = picard_solve(grid64, data, cfg)
    return dict(
        cfg=cfg,
        data=data,
        ratios=result.ratios,
        iterations=result.iterations,
        converged=result.converged,
        det_dev=det_deviation_sup(grid64, result.state.G),
    )


@pytest.fixture(scope="module")
def sweep_runs(grid64):
    """Criterion 6/11 sweep: T=10 runs across three amplitude decades."""
    rows = []
    for eps in SWEEP_EPS:
        data = make_shear_data(grid64, eps, seed=202, band=2)
        cfg = RunConfig(
            dimension=2, grid_n=N2, epsilon=eps, t_end=10.0, dt=0.01,
            picard_tol=1e-9, picard_max_iter=25, seed=202,
        )
        result = picard_solve(grid64, data, cfg)
        tg = cfg.time_grid()
        free = free_wave_state(grid64, tg, data)
        rows.append(
            dict(
                eps=eps,
                converged=result.converged,
                iterations=result.iterations,
                first_ratio=result.ratios[0],
                data_norm=data_norm(grid64, data),
                solution_norm=solution_norm(grid64, result.state.G, result.state.dG),
                free_deviation=besov_sup(grid64, result.state.G - free.G, 1.0),
            )
        )
        del result, free
    return rows


def test_criterion_1_spectral_calculus():
    worst = 0.0
    cases = ((Grid(2, 32), 75), (Grid(3, N3), 25))
    for grid, nseeds in cases:
        for seed in range(nseeds):
            rng = np.random.default_rng(1000 + seed)
            u = random_mean_free(grid, rng)
            scale = np.abs(u).max()
            acc = sum(grid.riesz(grid.riesz(u, i), i) for i in range(grid.n))
            worst = max(worst, np.abs(acc + u).max() / scale)
            v = np.stack([random_mean_free(grid, rng) for _ in range(grid.n)])
            pv = grid.leray_project(v)
            worst = max(worst, np.abs(grid.leray_project(pv) - pv).max() / np.abs(v).max())
            worst = max(worst, np.abs(grid.divergence(pv)).max() / grid.l2(v))
            phi = random_mean_free(grid, rng)
            worst = max(
                worst, np.abs(grid.leray_project(grid.gradient(phi))).max() / np.abs(phi).max()
            )
            parts = sum(grid.dyadic_project(u, j) for j in range(grid.nbands))
            worst = max(worst, np.abs(parts - u).max() / scale)
    report("criterion 1 (spectral calculus, 100 seeds)", worst <= 1e-12, f"max error {worst:.2e}")


def cofactor_det(A):
    if A.shape[0] == 1:
        return A[0, 0]
    return sum(
        (-1) ** c * A[0, c] * cofactor_det(np.delete(np.delete(A, 0, 0), c, 1))
        for c in range(A.shape[0])
    )


def test_criterion_2_minor_algebra():
    worst = 0.0
    rng = np.random.default_rng(7)
    grids = {2: Grid(2, 8), 3: Grid(3, 8)}
    for n in (2, 3):
        grid = grids[n]
        for _ in range(100):
            A = rng.normal(size=(n, n))
            field = A.reshape((n, n) + (1,) * n) * np.ones(grid.shape)
            expansion = 1.0 + np.trace(A) + float(minor_sum_total(grid, field).reshape(-1)[0])
            brute_minors = sum(
                cofactor_det(A[np.ix_(s, s)])
                for k in range(2, n + 1)
                for s in combinations(range(n), k)
            )
            brute = 1.0 + np.trace(A) + brute_minors
            det = cofactor_det(np.eye(n) + A)
            scale = max(1.0, abs(det))
            worst = max(worst, abs(det - expansion) / scale, abs(brute - expansion) / scale)
    report("criterion 2 (minor algebra, 200 matrices)", worst <= 1e-12, f"max rel error {worst:.2e}")


def test_criterion_3_propagators():
    grid = Grid(2, 32)
    x = grid.coords
    zero = np.zeros(grid.shape)
    e_free = np.abs(free_wave(grid, np.cos(2 * x[0]), zero, np.pi / 2) + np.cos(2 * x[0])).max()
    e_free = max(e_free, np.abs(free_wave(grid, zero, np.cos(x[1]), np.pi)).max())

    g = np.cos(x[0])
    errs = []
    for steps in (64, 128):
        tg = TimeGrid(np.pi / steps, steps)
        F = np.broadcast_to(g, (tg.nsamples,) + grid.shape)
        errs.append(float(np.abs(duhamel(grid, tg, F, steps) - 2.0 * g).max()))
    duh_order = float(np.log2(errs[0] / errs[1]))

    rng = np.random.default_rng(3)
    F_poly = random_mean_free(grid, rng, band=4)
    errs_box = []
    for steps in (32, 64):
        tg = TimeGrid(1.0 / steps, steps)
        F = np.cos(tg.times).reshape(-1, 1, 1) * F_poly
        traj = duhamel_trajectory(grid, tg, F)
        m = steps // 2
        errs_box.append(float(np.abs(box_fd(grid, tg, traj, m) - F[m]).max()))
    box_order = float(np.log2(errs_box[0] / errs_box[1]))

    ok = e_free <= 1e-10 and abs(duh_order - 2.0) <= 0.1 and box_order >= 1.9
    report(
        "criterion 3 (propagators)",
        ok,
        f"free-wave error {e_free:.2e}, duhamel order {duh_order:.3f}, box order {box_order:.2f}",
    )


def test_criterion_4_compatibility_generators():
    worst1 = worst2 = 0.0
    for n, size, band in ((2, N2, 2), (3, N3, 1)):
        grid = Grid(n, size)
        for seed in range(50):
            data = make_shear_data(grid, EPS, seed=seed, band=band)
            r1, r2 = compatibility_residuals(grid, data)
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
    ok = worst1 <= 1e-10 and worst2 <= 1e-9
    report(
        "criterion 4 (compatibility, 50 seeds x {n=2,3})",
        ok,
        f"worst residuals ({worst1:.2e}, {worst2:.2e})",
    )


def test_criterion_5_picard_contraction(contraction_run, sweep_runs):
    ratios = contraction_run["ratios"]
    ok_run = (
        contraction_run["converged"]
        and contraction_run["iterations"] <= 20
        and all(r < 0.5 for r in ratios)
    )
    firsts = [row["first_ratio"] for row in sweep_runs]
    slope = loglog_slope(SWEEP_EPS, firsts)
    ok = ok_run and abs(slope - 1.0) <= 0.3
    report(
        "criterion 5 (picard contraction)",
        ok,
        f"iterations {contraction_run['iterations']}, max ratio {max(ratios):.3f}, "
        f"first-ratio slope {slope:.3f}",
    )


def test_criterion_6_amplitude_stability_bound(sweep_runs):
    assert all(row["converged"] for row in sweep_runs)
    ratios = [row["solution_norm"] / row["data_norm"] for row in sweep_runs]
    stable = max(ratios) / min(ratios)
    report(
        "criterion 6 (amplitude stability bound)",
        stable <= 2.0,
        f"solution/data ratios {[f'{r:.3f}' for r in ratios]}, spread x{stable:.2f}",
    )


def test_criterion_7_incompressibility(grid64, contraction_run):
    dev = contraction_run["det_dev"]
    ok_fixed_point = dev <= 1e-4
    # order-2 drift of the direct stepper under dt halving
    data = contraction_run["data"]
    drifts = []
    for dt in (0.01, 0.005):
        cfg = RunConfig(
            dimension=2, grid_n=N2, epsilon=EPS, t_end=5.0, dt=dt,
            pressure_tol=1e-11, seed=101,
        )
        drifts.append(run_direct(grid64, data, cfg).det_drift)
    order = float(np.log2(drifts[0] / drifts[1]))
    ok = ok_fixed_point and abs(order - 2.0) <= 0.3
    report(
        "criterion 7 (incompressibility)",
        ok,
        f"fixed-point det residual {dev:.2e}, direct-stepper drift order {order:.2f}",
    )


def test_criterion_8_cross_solver(grid64):
    data = make_shear_data(grid64, 1e-3, seed=303, band=2)
    diffs = []
    for dt in (1 / 128, 1 / 256):
        cfg = RunConfig(
            dimension=2, grid_n=N2, epsilon=1e-3, t_end=1.0, dt=dt,
            picard_tol=1e-10, pressure_tol=1e-11, seed=303,
        )
        diffs.append(cross_validate(grid64, data, cfg).rel_difference)
    order = float(np.log2(diffs[0] / diffs[1]))
    ok = diffs[1] <= 1e-5 and abs(order - 2.0) <= 0.3
    report(
        "criterion 8 (cross-solver oracle)",
        ok,
        f"rel difference {diffs[1]:.2e} at dt=1/256, refinement order {order:.2f}",
    )


def test_criterion_9_continuous_dependence(grid64):
    base_cfg = dict(
        dimension=2, grid_n=N2, t_end=5.0, dt=0.01, picard_tol=1e-10, seed=404
    )
    base_data = make_shear_data(grid64, EPS, seed=404, band=2)
    base = picard_solve(grid64, base_data, RunConfig(epsilon=EPS, **base_cfg))
    dn_per_eps = data_norm(grid64, base_data) / EPS
    constants = []
    for delta in (1e-4, 1e-3):
        eps2 = EPS + delta / dn_per_eps
        data2 = make_shear_data(grid64, eps2, seed=404, band=2)
        run2 = picard_solve(grid64, data2, RunConfig(epsilon=eps2, **base_cfg))
        ddata = data_norm(
            grid64, InitialData(data2.f - base_data.f, data2.g - base_data.g)
        )
        dsol = solution_norm(
            grid64, run2.state.G - base.state.G, run2.state.dG - base.state.dG
        )
        constants.append(dsol / ddata)
        del run2
    spread = max(constants) / min(constants)
    report(
        "criterion 9 (continuous dependence)",
        spread <= 2.0,
        f"stability constants {[f'{c:.3f}' for c in constants]}, spread x{spread:.2f}",
    )


def test_criterion_10_variation_norm(grid64):
    rng = np.random.default_rng(55)
    exact = True
    for _ in range(100):
        m = int(rng.integers(2, 13))
        path = rng.standard_normal((m, 3))
        d2 = pairwise_sq_dists(path)
        best = 0.0
        for r in range(m - 1):
            for subset in combinations(range(1, m - 1), r):
                chain = [0, *subset, m - 1]
                total = 0.0
                for i in range(len(chain) - 1):
                    total = total + d2[chain[i], chain[i + 1]]
                best = max(best, total)
        exact = exact and (two_variation_from_dists(d2) == float(np.sqrt(best)))

    data = make_shear_data(grid64, EPS, seed=77, band=2)
    tg = TimeGrid(0.02, 100)
    free = free_wave_state(grid64, tg, data)
    total, variation = s_surrogate(grid64, tg, free.G, free.dG)
    besov_part = total - variation
    ok = exact and variation < 1e-10 * besov_part
    report(
        "criterion 10 (variation norm)",
        ok,
        f"DP==brute force: {exact}, free-wave variation/besov "
        f"{variation / besov_part:.2e}",
    )


def test_criterion_11_linearization(sweep_runs):
    devs = [row["free_deviation"] for row in sweep_runs]
    slope = loglog_slope(SWEEP_EPS, devs)
    scaled = [d / e**2 for d, e in zip(devs, SWEEP_EPS)]
    report(
        "criterion 11 (linearization)",
        abs(slope - 2.0) <= 0.3,
        f"deviation slope {slope:.3f}, deviation/eps^2 in "
        f"[{min(scaled):.3f}, {max(scaled):.3f}]",
    )
