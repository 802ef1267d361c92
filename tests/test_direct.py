import numpy as np
import pytest

from hkel.config import RunConfig
from hkel.diagnostics import energy
from hkel.direct import (
    DirectState,
    _mat_mat,
    _matT_vec,
    _trace_product,
    cross_validate,
    direct_step,
    run_direct,
    solve_pressure,
)
from hkel.elastic import InitialData, det_residual, inverse_pointwise, make_shear_data
from hkel.spectral import Grid, random_mean_free

from conftest import ComplexGrid, physical_run_direct, random_jacobian, random_vector


def small_config(**overrides):
    base = dict(
        dimension=2,
        grid_n=16,
        epsilon=1e-2,
        t_end=0.5,
        dt=1 / 32,
        picard_tol=1e-10,
        pressure_tol=1e-11,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def identity_minv(grid):
    M = np.zeros((grid.n, grid.n) + grid.shape)
    for a in range(grid.n):
        M[a, a] = 1.0
    return M


def test_pressure_zero_state_single_mode(grid2):
    # single-mode stream function: tr((grad g)^2) = 0, so p = 0 exactly
    x = grid2.coords
    psi = np.cos(x[0] + 2 * x[1])
    dpsi = grid2.gradient(psi)
    g = np.stack([dpsi[1], -dpsi[0]])
    Y = np.zeros((2,) + grid2.shape)
    ph, iters = solve_pressure(grid2, identity_minv(grid2), grid2.laplacian(Y), g, None, 1e-11, 50)
    assert np.abs(grid2.ifft(ph)).max() <= 1e-11
    state = DirectState(Y, g)
    new = direct_step(grid2, state, 0.01, tol=1e-11)
    assert np.abs(new.accel).max() <= 1e-10


def test_pressure_manufactured_solution(grid2, rng):
    # with grad X = I the operator is the Laplacian: feed b = lap(p_true)
    p_true = random_mean_free(grid2, rng, band=5)
    Y = np.zeros((2,) + grid2.shape)
    # velocity whose quadratic term reproduces lap(p_true) is awkward to
    # manufacture; instead check the operator directly via one Richardson
    # pass from the exact right-hand side
    Minv = identity_minv(grid2)
    u = _matT_vec(Minv, grid2.gradient(p_true))
    b = _trace_product(Minv, grid2.jacobian(u))
    assert np.abs(b - grid2.laplacian(p_true)).max() <= 1e-11 * np.abs(p_true).max()


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_pressure_residual_by_parseval_matches_physical_norm(rng, n, size):
    # solve_pressure reads ||project_physical(b - A p)|| from the masked
    # half spectrum; the physical-space route is the oracle
    grid = Grid(n, size)
    gradX = random_jacobian(grid, rng, scale=0.01, band=2)
    for a in range(n):
        gradX[a, a] += 1.0
    Minv = inverse_pointwise(gradX)
    Y, velocity = random_vector(grid, rng), random_vector(grid, rng)
    p = random_mean_free(grid, rng)
    W = _mat_mat(Minv, grid.jacobian(velocity))
    b = _trace_product(Minv, grid.jacobian(grid.laplacian(Y))) - _trace_product(W, W)
    Ap = _trace_product(Minv, grid.jacobian(_matT_vec(Minv, grid.gradient(p))))
    expected = grid.l2(ComplexGrid(grid).project_physical(b - Ap))
    got = grid.spectral_l2(grid.physical_spectrum(b) - grid.physical_spectrum(Ap))
    assert abs(got - expected) <= 1e-13 * expected


@pytest.mark.parametrize(
    "eps, tol, iterations",
    [
        (1e-2, 1e-10, [7] + [6] * 15),
        (1e-1, 1e-10, [14] + [12] * 14 + [11]),
    ],
)
def test_pressure_iterations_per_step_pinned(eps, tol, iterations):
    # recorded from the physical-space Richardson loop that the spectral
    # iterate replaced: the same number of steps, step by step
    grid = Grid(2, 16)
    data = make_shear_data(grid, eps, seed=10, band=1)
    run = run_direct(grid, data, small_config(epsilon=eps, pressure_tol=tol))
    assert run.pressure_iterations == iterations


def test_direct_zero_data_stays_zero(grid2):
    cfg = small_config(grid_n=32, epsilon=0.0)
    data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    run = run_direct(grid2, data, cfg)
    for uh in (run.Yh, run.dYh, run.boxYh):
        assert np.abs(uh).max() == 0.0
    assert run.det_drift == 0.0


def test_run_direct_rejects_mismatched_grid(grid3):
    data = InitialData(np.zeros((3,) + grid3.shape), np.zeros((3,) + grid3.shape))
    with pytest.raises(ValueError, match=r"got Grid\(n=3, size=16\)"):
        run_direct(grid3, data, small_config())


def test_direct_constraint_drift_second_order():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    drifts = []
    for dt in (1 / 32, 1 / 64):
        cfg = small_config(t_end=0.5, dt=dt)
        run = run_direct(grid, data, cfg)
        drifts.append(run.det_drift)
    order = np.log2(drifts[0] / drifts[1])
    assert abs(order - 2.0) <= 0.4


def test_direct_det_drift_is_max_over_samples_bitwise():
    # run_direct keeps a running max per step instead of a trajectory of grad Y
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, small_config())
    assert run.det_drift > 0.0
    assert run.det_drift == max(det_residual(grid.jacobian_of_spectrum(Yh)) for Yh in run.Yh)


def test_run_direct_spectra_transform_the_physical_trajectories_bitwise():
    # velocity and box are differenced on the physical samples, then transformed
    grid = Grid(2, 16)
    cfg = small_config()
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, cfg)
    for uh, u in zip((run.Yh, run.dYh, run.boxYh), physical_run_direct(grid, data, cfg)):
        assert uh.tobytes() == np.stack([grid.fft(um) for um in u]).tobytes()


def test_direct_energy_drift_second_order():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=11, band=1)
    drifts = []
    for dt in (1 / 32, 1 / 64):
        cfg = small_config(t_end=0.5, dt=dt)
        run = run_direct(grid, data, cfg)
        energies = energy(grid, run.Yh, run.dYh)
        drifts.append(max(abs(e - energies[0]) for e in energies) / energies[0])
    order = np.log2(drifts[0] / drifts[1])
    assert abs(order - 2.0) <= 0.5


def test_direct_rejects_large_deformation(grid2):
    x = grid2.coords
    f = np.stack([0.9 * np.sin(x[0]), np.zeros(grid2.shape)])  # det far from 1
    state = DirectState(f, np.zeros_like(f))
    with pytest.raises((RuntimeError, ValueError)):
        for _ in range(3):
            state = direct_step(grid2, state, 0.05, tol=1e-11, max_iter=30)


def test_cross_validate_zero_data(grid2):
    cfg = small_config(grid_n=32, epsilon=0.0)
    data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    cv = cross_validate(grid2, data, cfg)
    assert cv.rel_difference == 0.0


def test_cross_validate_small_run_agrees():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-3, seed=12, band=1)
    diffs = []
    for dt in (1 / 32, 1 / 64):
        cfg = small_config(epsilon=1e-3, t_end=0.5, dt=dt)
        cv = cross_validate(grid, data, cfg)
        diffs.append(cv.rel_difference)
    assert diffs[0] <= 1e-3
    order = np.log2(diffs[0] / diffs[1])
    assert abs(order - 2.0) <= 0.4
