import math
import tracemalloc

import numpy as np
import pytest

from hkel import direct, elastic
from hkel.config import RunConfig
from hkel.diagnostics import energy
from hkel.direct import (
    PRESSURE_HISTORY,
    _extrapolate,
    _mat_mat,
    _matT_vec,
    _trace_product,
    cross_validate,
    direct_step,
    run_direct,
    solve_pressure,
)
from hkel.elastic import (
    InitialData,
    det_residual,
    inverse_pointwise,
    make_shear_data,
)
from hkel.spectral import Grid, random_mean_free

from conftest import (ComplexGrid, physical_run_direct, physical_spectrum, random_jacobian,
                      random_vector)


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


def identity_field(grid):
    M = np.zeros((grid.n, grid.n) + grid.shape)
    for a in range(grid.n):
        M[a, a] = 1.0
    return M


def pressure_problem(grid, rng, band=None):
    """Band-limited grad X near I, displacement Laplacian and velocity, as a step sees them."""
    gradX = random_jacobian(grid, rng, scale=0.01, band=2)
    for a in range(grid.n):
        gradX[a, a] += 1.0
    Y, velocity = random_vector(grid, rng, band=band), random_vector(grid, rng, band=band)
    return gradX, grid.ifft(grid.fft(Y) * (-grid.k2)), velocity


def test_pressure_zero_state_single_mode(grid2):
    # single-mode stream function: tr((grad g)^2) = 0, so p = 0 exactly
    x = grid2.coords
    psi = np.cos(x[0] + 2 * x[1])
    dpsi = grid2.jacobian(psi)
    g = np.stack([dpsi[1], -dpsi[0]])
    Y = np.zeros((2,) + grid2.shape)
    lapY, gradv = grid2.ifft(grid2.fft(Y) * (-grid2.k2)), grid2.jacobian(g)
    gradX = identity_field(grid2)
    ph, _, iters = solve_pressure(grid2, gradX, lapY, gradv, None, 1e-11, 50)
    assert np.abs(grid2.ifft(ph)).max() <= 1e-11
    accel, pressures, _ = direct_step(grid2, lapY, gradX, gradv, (), 1e-11, 400)
    assert np.abs(accel).max() <= 1e-10 and len(pressures) == 1


def test_pressure_manufactured_solution(grid2, grid3, rng):
    # with grad X = I and no velocity, K = I and det b = div(lap Y): for
    # lap Y = grad q the solve returns p, the part of q on the mean-free
    # physical window, and the force grad p; q's content on the unpaired
    # Nyquist planes is outside the operator's range, and the mask drops it
    for grid in (grid2, grid3):
        q = rng.standard_normal(grid.shape)
        p_true = grid.ifft(physical_spectrum(grid, q))
        velocity = np.zeros((grid.n,) + grid.shape)
        gradX = identity_field(grid)
        ph, force, iters = solve_pressure(grid, gradX, grid.jacobian(q), grid.jacobian(velocity),
                                          None, 1e-11, 50)
        assert iters == 2  # the preconditioner inverts the Laplacian on the window
        assert np.abs(grid.ifft(ph) - p_true).max() <= 1e-11 * np.abs(p_true).max()
        grad_p = grid.jacobian(p_true)
        assert np.abs(force - grad_p).max() <= 1e-11 * np.abs(grad_p).max()


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_pressure_residual_by_parseval_matches_physical_norm(rng, n, size):
    # the norm of project_physical(b - A p), read from the masked half
    # spectrum by Parseval; the physical-space route is the oracle
    grid = Grid(n, size)
    gradX, lapY, velocity = pressure_problem(grid, rng)
    Minv = inverse_pointwise(gradX)[0]
    p = random_mean_free(grid, rng)
    W = _mat_mat(Minv, grid.jacobian(velocity))
    b = _trace_product(Minv, grid.jacobian(lapY)) - _trace_product(W, W)
    Ap = _trace_product(Minv, grid.jacobian(_matT_vec(Minv, grid.jacobian(p))))
    expected = grid.l2(ComplexGrid(grid).project_physical(b - Ap))
    got = grid.spectral_l2(physical_spectrum(grid, b) - physical_spectrum(grid, Ap))
    assert abs(got - expected) <= 1e-13 * expected


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_solve_pressure_returns_the_pressure_force_of_its_iterate_bitwise(rng, n, size):
    # the leapfrog subtracts the returned (grad X)^-T grad p from lap Y
    grid = Grid(n, size)
    gradX, lapY, velocity = pressure_problem(grid, rng, band=2)
    Minv = inverse_pointwise(gradX)[0]
    ph, force, iters = solve_pressure(grid, gradX, lapY, grid.jacobian(velocity), None, 1e-10, 100)
    assert iters > 1
    assert force.tobytes() == _matT_vec(Minv, grid.ifft(ph * grid.idfreq)).tobytes()


@pytest.mark.parametrize("n, size, bound", [(2, 32, 1e-13), (3, 16, 2e-7)])
def test_divergence_form_residual_is_det_times_trace_form_residual(rng, monkeypatch, n, size, bound):
    # the Piola identity sum_a d_a cof[b, a] = 0 gives det tr(Minv grad w) = div(cof^T w),
    # on the lattice up to the aliasing of collocation products: K = det Minv Minv^T is
    # rational in grad X, so its spectrum has a geometric tail (ratio about the
    # deformation's size), and K grad p folds the part past the window back into it.
    # At N = 16 that part is large: 3.5-5.5e-8 over eleven 3D draws, 1-3e-8 in 2D,
    # while 3D at N = 32 reads 5e-14.  The right-hand side's factors are
    # band-limited, so there the identity holds to rounding
    grid = Grid(n, size)
    gradX, lapY, velocity = pressure_problem(grid, rng, band=2)
    Minv, _, det = inverse_pointwise(gradX)
    p = random_mean_free(grid, rng, band=1)
    W = _mat_mat(Minv, grid.jacobian(velocity))
    b = _trace_product(Minv, grid.jacobian(lapY)) - _trace_product(W, W)
    Ap = _trace_product(Minv, grid.jacobian(_matT_vec(Minv, grid.jacobian(p))))
    seen, l2 = [], grid.spectral_l2  # the solve reads the norm of det b, then of the residual
    monkeypatch.setattr(grid, "spectral_l2", lambda uh: seen.append(uh.copy()) or l2(uh))
    solve_pressure(grid, gradX, lapY, grid.jacobian(velocity), grid.fft(p), np.inf, 1)
    bh, rh = seen
    want = physical_spectrum(grid, det * b)
    assert l2(bh - want) <= 1e-13 * l2(want)
    want = physical_spectrum(grid, det * (b - Ap))
    assert l2(rh - want) <= bound * l2(want)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_solve_pressure_transforms_n_fields_each_way_per_iteration(rng, monkeypatch, n, size):
    # set-up: (cof^T lap Y, det tr(W^2)) forward, the caller handing over grad v;
    # an iteration: grad p back and K grad p forward (the trace form made four calls)
    calls = []

    def counting(name, method):
        def transform(grid, u):
            calls.append((name, np.shape(u)[: -grid.n]))
            return method(grid, u)
        return transform

    for name in ("fft", "ifft"):
        monkeypatch.setattr(Grid, name, counting(name, getattr(Grid, name)))
    grid = Grid(n, size)
    gradX, lapY, velocity = pressure_problem(grid, rng, band=2)
    gradv = grid.jacobian(velocity)
    calls.clear()
    _, _, iters = solve_pressure(grid, gradX, lapY, gradv, None, 1e-10, 100)
    assert iters > 1
    assert calls == [("fft", (n + 1,))] + [("ifft", (n,)), ("fft", (n,))] * iters


@pytest.mark.parametrize("points", range(1, PRESSURE_HISTORY + 1))
def test_extrapolation_continues_polynomials_below_its_point_count(rng, points):
    # through k points one step apart, the warm start continues every
    # polynomial of degree < k exactly; a degree-k one it misses by its k-th
    # difference, k! times the leading coefficient
    shape = (4, 3)
    coeffs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(points + 1)]
    for degree in (points - 1, points):
        p = lambda t: sum(c * t**d for d, c in enumerate(coeffs[: degree + 1]))
        newest_first = [p(t) for t in range(points + 1, 1, -1)]
        miss = p(points + 2) - _extrapolate(newest_first)
        want = math.factorial(points) * coeffs[points] if degree == points else 0.0
        assert np.abs(miss - want).max() <= 1e-12 * np.abs(p(points + 2)).max()
    assert _extrapolate([]) is None


@pytest.mark.parametrize("n, size", [(2, 16), (3, 16)])
def test_step_reads_grad_v_of_the_leapfrog_velocity(monkeypatch, n, size):
    # run_direct reads grad v from the Jacobians of Y; the oracle is the
    # Jacobian of the physical velocity (Y_m - Y_m-1)/dt + dt a_m-1 / 2, and
    # of the initial velocity at m = 0, with Y from the physical leapfrog
    grid, cfg = Grid(n, size), small_config(dimension=n, grid_n=size, t_end=0.125)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    Y = physical_run_direct(grid, data, cfg)[0]
    seen, solve = [], direct.solve_pressure  # spied on after the oracle, which also solves

    def spy(grid, gradX, lapY, gradv, *rest):
        out = solve(grid, gradX, lapY, gradv, *rest)
        seen.append((gradv, lapY - out[1]))
        return out

    monkeypatch.setattr(direct, "solve_pressure", spy)
    run_direct(grid, data, cfg)
    assert len(seen) == cfg.steps == 4
    dt = cfg.dt
    velocities = [data.g] + [(Y[m] - Y[m - 1]) / dt + 0.5 * dt * seen[m - 1][1] for m in (1, 2, 3)]
    for m, (velocity, (gradv, _)) in enumerate(zip(velocities, seen)):
        want = grid.jacobian(velocity)
        assert np.abs(gradv - want).max() <= 1e-12 * np.abs(want).max(), m


def test_run_direct_calls_direct_step_once_per_step(monkeypatch):
    # the benchmark's direct.steps counts the spans of direct_step
    calls, step = [], direct.direct_step
    monkeypatch.setattr(direct, "direct_step", lambda *args: calls.append(1) or step(*args))
    grid, cfg = Grid(2, 16), small_config(t_end=0.25)
    run = run_direct(grid, make_shear_data(grid, 1e-2, seed=10, band=1), cfg)
    assert len(calls) == cfg.steps == len(run.pressure_iterations) == 8


# the counts step by step when each solve started from the last one's pressure
LAST_PRESSURE_START = {1e-2: [7] + [6] * 15, 1e-1: [14] + [12] * 14 + [11]}


@pytest.mark.parametrize(
    "eps, tol, iterations",
    [
        (1e-2, 1e-10, [7, 6, 6, 5, 5, 5] + [4] * 10),
        (1e-1, 1e-10, [14, 12, 11, 10, 10, 9] + [6] * 10),
    ],
)
def test_pressure_iterations_per_step_pinned(eps, tol, iterations):
    # the warm start extrapolates through the last solves, so the counts fall
    # over the first steps as points accrue, and no step takes more than it
    # did from the last solve's pressure
    grid = Grid(2, 16)
    data = make_shear_data(grid, eps, seed=10, band=1)
    run = run_direct(grid, data, small_config(epsilon=eps, pressure_tol=tol))
    assert run.pressure_iterations == iterations
    assert all(new <= old for new, old in zip(run.pressure_iterations, LAST_PRESSURE_START[eps]))


def test_direct_zero_data_stays_zero(grid2):
    cfg = small_config(grid_n=32, epsilon=0.0)
    data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    run = run_direct(grid2, data, cfg)
    for uh in (run.Yh, run.velocity(slice(None)), run.boxYh, run.drifts):
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
    # run_direct keeps each sample's |det(I + G) - 1| instead of a trajectory
    # of grad Y and hands them to the diagnostics loop in place of G formed a
    # chunk at a time: every sample agrees, and so does every second
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, small_config())
    residuals = [det_residual(grid.jacobian_of_spectrum(Yh)) for Yh in run.Yh]
    assert run.det_drift > 0.0 and run.det_drift == max(residuals)
    assert run.drifts.tolist() == residuals
    for every in (1, 2):
        for batch in grid.chunks(len(run.Yh), every):
            formed = [det_residual(G) for G in grid.jacobian_of_spectrum(run.Yh[batch])]
            assert run.det_residuals(batch).tolist() == formed == residuals[batch]


def test_run_direct_spectra_transform_the_physical_trajectories_bitwise():
    # the box is differenced on the physical samples, then transformed
    grid = Grid(2, 16)
    cfg = small_config()
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, cfg)
    Y, _, boxY = physical_run_direct(grid, data, cfg)
    for uh, u in ((run.Yh, Y), (run.boxYh, boxY)):
        assert uh.tobytes() == np.stack([grid.fft(um) for um in u]).tobytes()


@pytest.mark.parametrize("every", [1, 2, 3])
def test_direct_velocity_is_the_difference_of_the_spectra_of_y(every):
    # the velocity is differenced from Y's spectra where it is read, not
    # from the physical samples: a transform's rounding apart, per sample;
    # sample 0 is g's spectrum itself, and a block of modes is the block of
    # the whole velocity
    grid = Grid(2, 16)
    cfg = small_config()
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, cfg)
    want = grid.fft(physical_run_direct(grid, data, cfg)[1])
    got = np.concatenate([run.velocity(batch) for batch in grid.chunks(len(run.Yh), every)])
    assert len(got) == len(want[::every])
    for v, w in zip(got, want[::every]):
        assert np.abs(v - w).max() <= 1e-13 * np.abs(w).max()
    assert run.velocity(slice(0, 1)).tobytes() == grid.fft(data.g)[None].tobytes()
    samples, modes = np.array([0, 3, len(run.Yh) - 1]), np.array([0, 5, 17, 40, 143])
    whole = run.velocity(slice(None)).reshape(len(run.Yh), grid.n, -1)
    assert run.velocity(samples, modes).tobytes() == whole[samples][:, :, modes].tobytes()


def test_direct_velocity_of_a_slice_is_that_of_its_indices_bitwise():
    # a slice reads its neighbours as shifted slices of Y, an index array
    # gathers them; sample 0 (g's) and the last (one-sided) are set apart
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, small_config())
    last = len(run.Yh) - 1
    modes = np.array([0, 5, 17, 40, 143])
    slices = [slice(None), slice(0, 5), slice(0, 9, 2), slice(3, 8), slice(4, None, 3),
              slice(last - 5, None), slice(1, last, 4), slice(0, 1), slice(last, None)]
    for samples in slices:
        indices = np.arange(last + 1)[samples]
        for block in (None, modes):
            got, want = run.velocity(samples, block), run.velocity(indices, block)
            assert got.tobytes() == want.tobytes(), (samples, block is None)


def test_run_direct_holds_little_beyond_its_two_outputs():
    # the box streams from the last four physical samples, and no velocity is
    # stored; a physical trajectory and its differences were each about one
    # output's size
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    tracemalloc.start()
    try:
        run = run_direct(grid, data, small_config(t_end=8.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = run.Yh.nbytes + run.boxYh.nbytes
    assert peak - outputs < 0.5 * run.Yh.nbytes  # 0.2 here, 2.9 with the physical trajectory


def test_run_direct_transforms_each_sample_once(monkeypatch):
    # run_direct hands Y's spectrum and Jacobian, formed for the det drift,
    # to the next step, which used to transform the same Y again
    seen, repeats = set(), []
    fft = Grid.fft

    def recording(grid, u):
        key = np.asarray(u).tobytes()
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return fft(grid, u)

    monkeypatch.setattr(Grid, "fft", recording)
    grid = Grid(2, 32)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, small_config(grid_n=32, t_end=0.25))
    # g and the two spectra of each sample once, and each pressure solve its
    # right-hand side and one field per iteration; grad v comes from the
    # Jacobians of Y and the velocity from Y's spectra, so none is transformed
    samples = len(run.Yh)
    calls = 1 + 2 * samples + (samples - 1) + sum(run.pressure_iterations)
    assert len(seen) == calls and repeats == []


def test_run_direct_forms_each_determinant_once(monkeypatch):
    # a step's only determinant is the one its inverse forms from its
    # cofactors; the drift is det_residual(G), which forms none
    inverses, dets = [], []
    inverse_pointwise = direct.inverse_pointwise
    monkeypatch.setattr(direct, "inverse_pointwise",
                        lambda M: inverses.append(1) or inverse_pointwise(M))
    monkeypatch.setattr(elastic, "det_pointwise", lambda M: dets.append(1))
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=10, band=1)
    run = run_direct(grid, data, small_config(t_end=0.25))
    assert len(inverses) == len(run.Yh) - 1 and dets == []
    residuals = [det_residual(grid.jacobian_of_spectrum(Yh)) for Yh in run.Yh]
    assert run.drifts.tolist() == residuals and run.det_drift == max(residuals)


def test_direct_energy_drift_second_order():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=11, band=1)
    drifts = []
    for dt in (1 / 32, 1 / 64):
        cfg = small_config(t_end=0.5, dt=dt)
        run = run_direct(grid, data, cfg)
        energies = energy(grid, run.Yh, run.velocity(slice(None)))
        drifts.append(max(abs(e - energies[0]) for e in energies) / energies[0])
    order = np.log2(drifts[0] / drifts[1])
    assert abs(order - 2.0) <= 0.5


def test_direct_rejects_large_deformation(grid2):
    x = grid2.coords
    f = np.stack([0.9 * np.sin(x[0]), np.zeros(grid2.shape)])  # det far from 1
    cfg = small_config(grid_n=32, t_end=0.2, dt=0.05, pressure_max_iter=30)
    with pytest.raises((RuntimeError, ValueError)):
        run_direct(grid2, InitialData(f, np.zeros_like(f)), cfg)


def test_cross_validate_zero_data(grid2):
    cfg = small_config(grid_n=32, epsilon=0.0)
    data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    assert cross_validate(grid2, data, cfg) == 0.0


def test_cross_validate_small_run_agrees():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-3, seed=12, band=1)
    diffs = []
    for dt in (1 / 32, 1 / 64):
        cfg = small_config(epsilon=1e-3, t_end=0.5, dt=dt)
        diffs.append(cross_validate(grid, data, cfg))
    assert diffs[0] <= 1e-3
    order = np.log2(diffs[0] / diffs[1])
    assert abs(order - 2.0) <= 0.4
