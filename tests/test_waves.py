import numpy as np
import pytest

from hkel.diagnostics import energy
from hkel.spectral import random_mean_free
from hkel.waves import (
    TimeGrid,
    box_trajectory,
    duhamel_trajectory,
    free_wave,
    time_derivative,
)


def duhamel(grid, tg, F, m):
    """O(m) reference: the trapezoidal Duhamel sum at sample m, mode by mode."""
    if m == 0:
        return np.zeros(F.shape[1:])
    t = tg.dt * m
    acc = np.zeros(F.shape[1 : F.ndim - grid.n] + grid.spectral_shape, dtype=complex)
    for i in range(m + 1):
        weight = tg.dt if 0 < i < m else 0.5 * tg.dt
        s = tg.dt * i
        kernel = np.where(grid.absk > 0, np.sin((t - s) * grid.absk) * grid.inv_absk, t - s)
        acc += weight * kernel * grid.fft(F[i])
    return grid.ifft(acc)


def box_fd(grid, tg, uh, m):
    """Central second difference in time plus |xi|^2, on the half spectra at sample m."""
    dtt = (uh[m + 1] - 2.0 * uh[m] + uh[m - 1]) / tg.dt**2
    return dtt + grid.k2 * uh[m]


def physical_wave(grid, f, g, t, derivative=False):
    """free_wave's spectra transformed back to the lattice."""
    out = free_wave(grid, f, g, t, derivative)
    return tuple(map(grid.ifft, out)) if derivative else grid.ifft(out)


def physical_duhamel(grid, tg, F, derivative=False):
    """duhamel_trajectory of a sampled physical forcing, transformed back to the lattice."""
    out = duhamel_trajectory(grid, tg, grid.fft(F), derivative)
    return tuple(map(grid.ifft, out)) if derivative else grid.ifft(out)


def physical_box(grid, tg, u):
    return grid.ifft(box_trajectory(grid, tg, grid.fft(u)))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 3)


def test_free_wave_at_zero(grid2, rng):
    f = rng.standard_normal(grid2.shape)
    g = random_mean_free(grid2, rng)
    assert np.abs(physical_wave(grid2, f, g, 0.0) - f).max() <= 1e-14 * np.abs(f).max()


def test_free_wave_cosine_closed_form(grid2):
    x = grid2.coords
    f = np.cos(2 * x[0])
    out = physical_wave(grid2, f, np.zeros(grid2.shape), np.pi / 2)
    assert np.abs(out + f).max() <= 1e-10


def test_free_wave_sine_closed_form(grid2):
    x = grid2.coords
    g = np.cos(x[1])
    out = physical_wave(grid2, np.zeros(grid2.shape), g, np.pi)
    assert np.abs(out).max() <= 1e-10


def test_free_wave_rejects_mean_velocity(grid2):
    with pytest.raises(ValueError, match="mean-free"):
        free_wave(grid2, np.zeros(grid2.shape), np.ones(grid2.shape), 1.0)


def test_free_wave_constant_f_propagates(grid2):
    f = 3.0 * np.ones(grid2.shape)
    out = physical_wave(grid2, f, np.zeros(grid2.shape), 2.0)
    assert np.abs(out - 3.0).max() <= 1e-13


def test_propagator_group_law(grid2, rng):
    f = random_mean_free(grid2, rng, band=6)
    g = random_mean_free(grid2, rng, band=6)
    t1, t2 = 0.7, 1.9
    direct = physical_wave(grid2, f, g, t1 + t2)
    f_mid, g_mid = physical_wave(grid2, f, g, t1, derivative=True)
    stepped = physical_wave(grid2, f_mid, g_mid, t2)
    assert np.abs(direct - stepped).max() <= 1e-11 * np.abs(f).max()


def test_free_wave_energy_constant(grid2, rng):
    f = random_mean_free(grid2, rng, band=6)
    g = random_mean_free(grid2, rng, band=6)
    uh, duh = free_wave(grid2, f, g, np.array([0.0, 0.5, 1.3, 4.0]), derivative=True)
    values = energy(grid2, uh, duh)
    assert np.abs(values - values[0]).max() <= 1e-12 * values[0]


# -- duhamel --------------------------------------------------------------------


def test_duhamel_zero_forcing(grid2):
    tg = TimeGrid(0.1, 10)
    F = np.zeros((tg.nsamples,) + grid2.shape)
    assert np.abs(duhamel(grid2, tg, F, 10)).max() == 0.0
    assert np.abs(physical_duhamel(grid2, tg, F)).max() == 0.0


def closed_form_error(grid, steps):
    # F(s, x) = cos(x1): boxinv F(t) = (1 - cos t) cos(x1)
    x = grid.coords
    g = np.cos(x[0])
    tg = TimeGrid(np.pi / steps, steps)
    F = np.broadcast_to(g, (tg.nsamples,) + grid.shape)
    got = duhamel(grid, tg, F, steps)
    return float(np.abs(got - 2.0 * g).max())


def test_duhamel_closed_form_and_order(grid2):
    e1 = closed_form_error(grid2, 64)
    e2 = closed_form_error(grid2, 128)
    assert e1 <= 1e-2
    order = np.log2(e1 / e2)
    assert abs(order - 2.0) <= 0.1


def test_duhamel_trajectory_matches_single_time(grid2, rng):
    tg = TimeGrid(0.05, 20)
    F = np.empty((tg.nsamples,) + grid2.shape)
    for m in range(tg.nsamples):
        F[m] = random_mean_free(grid2, rng, band=6)
    traj = physical_duhamel(grid2, tg, F)
    for m in (0, 1, 7, 20):
        single = duhamel(grid2, tg, F, m)
        assert np.abs(traj[m] - single).max() <= 1e-12 * max(np.abs(single).max(), 1e-30)


def test_duhamel_derivative_kernel_order(grid2):
    x = grid2.coords
    g = np.cos(x[0])
    errs = []
    for steps in (64, 128):
        tg = TimeGrid(np.pi / steps, steps)
        F = np.broadcast_to(g, (tg.nsamples,) + grid2.shape)
        _, dtraj = physical_duhamel(grid2, tg, F, derivative=True)
        # d/dt (1 - cos t) cos(x) = sin(t) cos(x); at t = pi/2 this is cos(x)
        m = steps // 2
        errs.append(float(np.abs(dtraj[m] - np.sin(tg.times[m]) * g).max()))
    assert abs(np.log2(errs[0] / errs[1]) - 2.0) <= 0.15


# -- finite-difference box ---------------------------------------------------------


def test_box_fd_quadratic_exact(grid2):
    tg = TimeGrid(0.2, 10)
    u = np.empty((tg.nsamples,) + grid2.shape)
    for m, t in enumerate(tg.times):
        u[m] = 0.5 * t**2
    for m in (1, 5, 9):
        assert np.abs(physical_box(grid2, tg, u)[m] - 1.0).max() <= 1e-12


def test_box_fd_linear(grid2, rng):
    tg = TimeGrid(0.1, 8)
    shape = (tg.nsamples,) + grid2.shape
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    lhs = physical_box(grid2, tg, 2.0 * u + 3.0 * v)
    rhs = 2.0 * physical_box(grid2, tg, u) + 3.0 * physical_box(grid2, tg, v)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(lhs).max(), 1.0)


def test_box_fd_annihilates_free_waves_at_second_order(grid2, rng):
    f = random_mean_free(grid2, rng, band=4)
    g = random_mean_free(grid2, rng, band=4)
    errs = []
    for steps in (32, 64):
        tg = TimeGrid(1.0 / steps, steps)
        u = physical_wave(grid2, f, g, tg.times)
        errs.append(float(np.abs(physical_box(grid2, tg, u)[steps // 2]).max()))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_box_fd_recovers_duhamel_forcing(grid2, rng):
    # box of a Duhamel trajectory reproduces the forcing to O(dt^2)
    F_poly = random_mean_free(grid2, rng, band=4)
    errs = []
    for steps in (32, 64):
        tg = TimeGrid(1.0 / steps, steps)
        envelope = np.cos(tg.times).reshape(-1, 1, 1)
        F = envelope * F_poly
        traj = physical_duhamel(grid2, tg, F)
        m = steps // 2
        got = physical_box(grid2, tg, traj)[m]
        errs.append(float(np.abs(got - F[m]).max()))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_box_trajectory_interior_matches_box_fd_bitwise(grid_name, request, rng):
    grid = request.getfixturevalue(grid_name)
    tg = TimeGrid(0.1, 6)
    uh = grid.fft(rng.standard_normal((tg.nsamples, 2) + grid.shape))
    box = box_trajectory(grid, tg, uh)
    for m in range(1, tg.steps):
        assert box[m].tobytes() == box_fd(grid, tg, uh, m).tobytes()


def test_free_wave_on_times_matches_single_times(grid2, rng):
    f = random_mean_free(grid2, rng, band=6)
    g = random_mean_free(grid2, rng, band=6)
    times = np.array([0.0, 0.3, 1.7])
    u, du = physical_wave(grid2, f, g, times, derivative=True)
    for m, t in enumerate(times):
        um, dum = physical_wave(grid2, f, g, t, derivative=True)
        assert np.array_equal(u[m], um) and np.array_equal(du[m], dum)


def test_time_derivative_stencils(grid2):
    tg = TimeGrid(0.1, 10)
    u = np.empty((tg.nsamples, 1, 1))
    u[:, 0, 0] = tg.times**2
    got = time_derivative(tg, u)[:, 0, 0]
    assert np.abs(got - 2 * tg.times).max() <= 1e-12


def test_box_trajectory_endpoints_second_order(grid2, rng):
    f = random_mean_free(grid2, rng, band=3)
    g = random_mean_free(grid2, rng, band=3)
    errs = []
    for steps in (32, 64):
        tg = TimeGrid(1.0 / steps, steps)
        b = physical_box(grid2, tg, physical_wave(grid2, f, g, tg.times))
        errs.append(float(max(np.abs(b[0]).max(), np.abs(b[-1]).max())))
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_duhamel_zero_mode_kernel(grid2):
    # spatially constant forcing: the zero-mode kernel (t - s) integrates
    # F = c to c t^2 / 2
    tg = TimeGrid(1 / 64, 64)
    F = np.full((tg.nsamples,) + grid2.shape, 3.0)
    got = duhamel(grid2, tg, F, 64)
    expected = 3.0 * tg.horizon**2 / 2.0
    assert np.abs(got - expected).max() <= 1e-10
    traj = physical_duhamel(grid2, tg, F)
    assert np.abs(traj[64] - expected).max() <= 1e-10


def test_duhamel_trajectory_zero_mode_exact(grid2):
    # constant forcing c per component: the trapezoid rule integrates the
    # zero-mode kernels (t - s) and 1 exactly, to c t^2 / 2 and c t
    tg = TimeGrid(1 / 16, 16)
    c = np.array([3.0, -0.5]).reshape(1, 2, 1, 1)
    F = np.broadcast_to(c, (tg.nsamples, 2) + grid2.shape)
    traj, dtraj = physical_duhamel(grid2, tg, F, derivative=True)
    t = tg.times.reshape(-1, 1, 1, 1)
    assert np.abs(traj - c * t**2 / 2).max() <= 1e-13
    assert np.abs(dtraj - c * t).max() <= 1e-13
    for m in (0, 1, 9, 16):
        assert np.abs(traj[m] - duhamel(grid2, tg, F, m)).max() <= 1e-13
