"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and measured values.  The heavy runs (the contraction run and the
amplitude sweep) are session fixtures shared across criteria.
"""

import numpy as np
import pytest

from hkel.diagnostics import (
    data_norm,
    gradient_besov_sup,
    s_surrogate,
    solution_norm,
)
from hkel.config import RunConfig
from hkel.direct import cross_validate, run_direct
from hkel.elastic import InitialData, det_residual, make_shear_data
from hkel.picard import picard_solve
from hkel.selftest import (
    check_compatibility,
    check_minors,
    check_propagators,
    check_spectral,
    check_variation,
)
from hkel.spectral import Grid
from hkel.waves import TimeGrid

from conftest import free_wave_state, loglog_slope

N2 = 64
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
        det_dev=max(det_residual(grid64.jacobian_of_spectrum(Yh)) for Yh in result.state.Yh),
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
                solution_norm=solution_norm(grid64, result.state.Yh, result.state.dYh),
                free_deviation=gradient_besov_sup(grid64, result.state.Yh - free.Yh, 1.0),
            )
        )
        del result, free
    return rows


def test_criterion_1_spectral_calculus():
    report("criterion 1 (spectral calculus, 100 seeds)", *check_spectral())


def test_criterion_2_minor_algebra():
    report("criterion 2 (minor algebra, 200 matrices)", *check_minors())


def test_criterion_3_propagators():
    report("criterion 3 (propagators)", *check_propagators())


def test_criterion_4_compatibility_generators():
    report("criterion 4 (compatibility, 50 seeds x {n=2,3})", *check_compatibility())


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
        diffs.append(cross_validate(grid64, data, cfg))
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
            grid64, run2.state.Yh - base.state.Yh, run2.state.dYh - base.state.dYh
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
    exact, dp_detail = check_variation()
    data = make_shear_data(grid64, EPS, seed=77, band=2)
    tg = TimeGrid(0.02, 100)
    free = free_wave_state(grid64, tg, data)
    total, variation = s_surrogate(grid64, free)
    besov_part = total - variation
    ok = exact and variation < 1e-10 * besov_part
    report(
        "criterion 10 (variation norm)",
        ok,
        f"{dp_detail}, free-wave variation/besov {variation / besov_part:.2e}",
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
