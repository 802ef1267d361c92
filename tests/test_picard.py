import tracemalloc

import numpy as np
import pytest

from hkel.config import RunConfig
from hkel.diagnostics import besov_sup, gradient_besov_norms
from hkel.elastic import (
    InitialData,
    _accumulate_terms,
    _minor_terms,
    det_residual,
    make_shear_data,
)
from hkel.picard import (
    PicardState,
    compatible,
    free_seed,
    picard_map,
    picard_solve,
    trace_constraint_residual,
)
from hkel.spectral import Grid, pad_to_fine, spectrum_to_fine, truncate_from_fine
from hkel.waves import duhamel_trajectory, time_derivative

from conftest import (
    field_free_wave,
    free_wave_state,
    loglog_slope,
    physical_box,
    whole_trajectory_picard_map,
)


def physical_duhamel(grid, tg, F):
    """Y and d_t Y of the Duhamel integral of a sampled physical forcing."""
    return map(grid.ifft, duhamel_trajectory(grid, tg, grid.fft(F)))


def consumable(state):
    """``state`` with copies of the buffers ``picard_map`` consumes, leaving ``state`` intact."""
    box = None if state.boxYh is None else state.boxYh.copy()
    return PicardState(state.grid, state.tg, state.Yh.copy(), state.dYh.copy(), box)


def small_config(**overrides):
    base = dict(
        dimension=2,
        grid_n=16,
        epsilon=1e-2,
        t_end=0.5,
        dt=1 / 32,
        picard_tol=1e-10,
        picard_max_iter=20,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=-0.1)
    with pytest.raises(ValueError):
        RunConfig(t_end=0.013, dt=0.01)
    with pytest.raises(ValueError):
        RunConfig(picard_tol=0.0)


def test_zero_data_converges_immediately(grid2):
    cfg = small_config(grid_n=32, epsilon=0.0)
    data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    result = picard_solve(grid2, data, cfg)
    assert result.converged and result.iterations == 1
    assert np.abs(result.state.G).max() == 0.0


def test_map_of_zero_state_is_free_wave(grid2):
    cfg = small_config(grid_n=32)
    data = make_shear_data(grid2, 1e-2, seed=1, band=2)
    tg = cfg.time_grid()
    free = free_wave_state(grid2, tg, data)
    zero = PicardState(
        grid2, tg, np.zeros_like(free.Yh), np.zeros_like(free.Yh), np.zeros_like(free.Yh)
    )
    out, _ = picard_map(grid2, zero, free_seed(grid2, data))
    assert np.array_equal(out.G, free.G)
    assert np.abs(out.boxYh).max() == 0.0


@pytest.mark.parametrize("field", ["f", "g"], ids=["displacement", "velocity"])
def test_free_seed_and_solve_reject_data_with_a_mean(grid2, field):
    # the free wave's seed is the one place that checks the data: a mean in f
    # would not propagate as a wave, one in g would grow linearly
    data = make_shear_data(grid2, 1e-2, seed=1, band=2)
    setattr(data, field, getattr(data, field) + 1e-3)
    what = {"f": "initial displacement", "g": "initial velocity"}[field]
    with pytest.raises(ValueError, match=f"{what} must be mean-free"):
        free_seed(grid2, data)
    with pytest.raises(ValueError, match=f"{what} must be mean-free"):
        picard_solve(grid2, data, small_config(grid_n=32))


def test_free_seed_square_amplitude_scaling(grid2):
    # with zero data, only the quadratic and cubic terms of the map survive
    cfg = small_config(grid_n=32)
    tg = cfg.time_grid()
    zero_data = InitialData(np.zeros((2,) + grid2.shape), np.zeros((2,) + grid2.shape))
    zero_seed = free_seed(grid2, zero_data)
    norms = {}
    for eps in (1e-3, 1e-2):
        seed_state = free_wave_state(grid2, tg, make_shear_data(grid2, eps, seed=2, band=2))
        out, _ = picard_map(grid2, seed_state, zero_seed)
        norms[eps] = besov_sup(grid2, out.G, 1.0)
    slope = loglog_slope(list(norms), list(norms.values()))
    assert abs(slope - 2.0) <= 0.2


def test_free_wave_state_solves_wave_equation(grid2):
    data = make_shear_data(grid2, 1e-2, seed=3, band=2)
    errs = []
    for steps in (16, 32):
        cfg = small_config(grid_n=32, dt=0.5 / steps)
        tg = cfg.time_grid()
        shape = (tg.nsamples, 2) + grid2.spectral_shape
        zero = PicardState(grid2, tg, *(np.zeros(shape, complex) for _ in range(3)))
        # the free wave with its box formed
        free, _ = picard_map(grid2, zero, free_seed(grid2, data))
        assert np.abs(free.boxYh).max() == 0.0
        box = physical_box(grid2, tg, free.G)[1:-1]
        errs.append(float(np.abs(box).max()))
        dG_fd = time_derivative(tg, free.G)
        dG = grid2.jacobian_of_spectrum(free.dYh)
        assert np.abs(dG_fd - dG).max() <= 10 * tg.dt**2 * np.abs(dG).max() * 40
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_tracked_box_matches_finite_differences():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=4, band=1)
    errs = []
    for steps in (16, 32):
        cfg = small_config(dt=0.5 / steps)
        result = picard_solve(grid, data, cfg)
        state = result.state
        box = physical_box(grid, state.tg, state.G)[1:-1]
        errs.append(float(np.abs(box - grid.jacobian_of_spectrum(state.boxYh[1:-1])).max()))
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_picard_converges_and_satisfies_constraint():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=5, band=1)
    cfg = small_config()
    result = picard_solve(grid, data, cfg)
    assert result.converged
    assert all(r < 0.5 for r in result.ratios)
    assert max(det_residual(Gm) for Gm in result.state.G) <= 10 * cfg.picard_tol
    worst = max(
        trace_constraint_residual(grid, result.state.Yh[m])
        for m in range(result.state.tg.nsamples)
    )
    assert worst <= 10 * cfg.picard_tol


def test_det_deviation_decreases_along_iterates():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=6, band=1)
    cfg = small_config()
    tg = cfg.time_grid()
    seed = free_seed(grid, data)
    state = free_wave_state(grid, tg, data)
    devs = []
    for _ in range(4):
        state, _ = picard_map(grid, state, seed)
        devs.append(max(det_residual(Gm) for Gm in state.G))
    assert all(devs[i + 1] <= devs[i] * (1 + 1e-9) for i in range(1, len(devs) - 1))
    assert devs[-1] <= 10 * cfg.picard_tol


def test_picard_deterministic():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    cfg = small_config()
    a = picard_solve(grid, data, cfg)
    b = picard_solve(grid, data, cfg)
    assert np.array_equal(a.state.G, b.state.G)
    assert a.ratios == b.ratios


def test_picard_rejects_incompatible_data(grid2):
    x = grid2.coords
    f = np.stack([0.3 * np.sin(x[0]), np.zeros(grid2.shape)])
    data = InitialData(f, np.zeros_like(f))
    with pytest.raises(ValueError, match="compatibility"):
        picard_solve(grid2, data, small_config(grid_n=32))


def test_picard_non_convergence_reported():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=8, band=1)
    cfg = small_config(picard_max_iter=1, picard_tol=1e-14)
    result = picard_solve(grid, data, cfg)
    assert not result.converged
    assert result.iterations == 1


def test_diverging_iteration_not_reported_converged():
    # far outside the contraction regime the ratios climb above 1 from the
    # second on (0.954, 1.07, 1.02, 1.15, ...); the iteration once ran 16
    # full maps, until a delta overflowed, before it reported the divergence
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1.0, seed=0)
    cfg = RunConfig(dimension=2, grid_n=16, epsilon=1.0, t_end=2.0, dt=0.05)
    result = picard_solve(grid, data, cfg, check_compatibility=False)
    assert not result.converged
    assert result.iterations <= 5
    assert all(np.isfinite(result.deltas))
    assert all(r > 1.0 for r in result.ratios[-3:])
    assert result.reason.startswith("diverging Picard iteration: ratios")
    assert "\n" not in result.reason


def test_slow_contraction_runs_to_max_iter():
    # ratios 0.30-0.51: slow, but contracting, so the early stop must not trip
    grid = Grid(2, 16)
    data = make_shear_data(grid, 0.3, seed=0)
    cfg = RunConfig(dimension=2, grid_n=16, epsilon=0.3, t_end=2.0, dt=0.05)
    result = picard_solve(grid, data, cfg, check_compatibility=False)
    assert result.iterations == cfg.picard_max_iter
    assert not result.converged and result.reason == ""
    assert max(result.ratios) < 1.0


def test_non_finite_data_not_reported_converged():
    # a NaN sample makes every delta NaN: the iteration ends at once
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=0)
    f = data.f.copy()
    f[0, 3, 5] = np.nan
    result = picard_solve(grid, InitialData(f, data.g), small_config(), check_compatibility=False)
    assert not result.converged and result.iterations == 1
    assert result.reason == "non-finite Picard delta nan (scale nan) at iteration 1"


def test_picard_rejects_mismatched_grid(grid2):
    data = make_shear_data(grid2, 1e-2, seed=1, band=2)
    with pytest.raises(ValueError, match=r"got Grid\(n=2, size=32\)"):
        picard_solve(grid2, data, small_config(grid_n=16))


def test_picard_n3_smoke(grid3):
    data = make_shear_data(grid3, 5e-3, seed=9, band=1)
    cfg = RunConfig(
        dimension=3,
        grid_n=16,
        epsilon=5e-3,
        t_end=0.25,
        dt=1 / 32,
        picard_tol=1e-9,
    )
    result = picard_solve(grid3, data, cfg)
    assert result.converged
    assert max(det_residual(Gm) for Gm in result.state.G) <= 10 * cfg.picard_tol


def test_pressure_residual_small_at_fixed_point():
    from hkel.elastic import recover_pressure

    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=13, band=1)
    result = picard_solve(grid, data, small_config())
    state = result.state
    inner = slice(2, state.tg.nsamples - 2, 4)  # away from one-sided stencils
    assert recover_pressure(grid, state.Yh[inner], state.boxYh[inner]).max() <= 1e-6


@pytest.mark.parametrize("n, size, fine_shape", [(2, 64, (96, 96)), (3, 16, (32, 32, 32))])
def test_picard_map_product_lattice(monkeypatch, n, size, fine_shape):
    # 3/2 rule for the quadratic products in 2D; the cubic minor needs pad 2 in 3D
    shapes = []

    def recording(grid, uh, pad):
        fine = spectrum_to_fine(grid, uh, pad)
        shapes.append(fine.shape[-n:])
        return fine

    monkeypatch.setattr("hkel.spectral.spectrum_to_fine", recording)
    monkeypatch.setattr("hkel.picard.spectrum_to_fine", recording, raising=False)
    grid = Grid(n, size)
    cfg = small_config(dimension=n, grid_n=size, t_end=0.125)
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    free = free_wave_state(grid, cfg.time_grid(), data)
    picard_map(grid, free, free_seed(grid, data))
    assert shapes and set(shapes) == {fine_shape}


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_forced_map_places_g_and_box_y_only(monkeypatch, n, size):
    # the null form reads the flux G^T box Y, so a forced chunk places the n^2
    # fields of G and the n of box Y on the product lattice, not the n^2 of
    # H = grad box Y as well
    grid = Grid(n, size)
    tg = small_config(dimension=n, grid_n=size, t_end=0.125).time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    seed = free_seed(grid, data)
    forced, _ = picard_map(grid, free_wave_state(grid, tg, data), seed)
    placed = []

    def counting(grid, uh, pad):
        fine = spectrum_to_fine(grid, uh, pad)
        placed.append(fine[(Ellipsis,) + (0,) * n].size)  # fields times samples
        return fine

    monkeypatch.setattr("hkel.spectral.spectrum_to_fine", counting)
    monkeypatch.setattr("hkel.picard.spectrum_to_fine", counting, raising=False)
    picard_map(grid, forced, seed)
    assert sum(placed) == (n * n + n) * tg.nsamples


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_first_map_skips_zero_forcing_bitwise(monkeypatch, n, size):
    # the free seed's box Y is 0: its map forms no null form and no Duhamel
    # integral, and returns the bytes of the forced path run on a zero box,
    # up to the sign of exact zeros (the forced path adds a +0 Duhamel
    # increment, which turns a -0.0 of the seed's Nyquist corner into +0.0)
    grid = Grid(n, size)
    cfg = small_config(dimension=n, grid_n=size, t_end=0.25)
    data = make_shear_data(grid, 1e-2, seed=3)
    free, seed = free_wave_state(grid, cfg.time_grid(), data), free_seed(grid, data)
    forced_free = PicardState(grid, free.tg, free.Yh.copy(), free.dYh.copy(),
                              np.zeros_like(free.Yh))
    want, _ = picard_map(grid, forced_free, seed)
    calls = []
    monkeypatch.setattr("hkel.picard.null_form", lambda *a: calls.append("null_form"))
    monkeypatch.setattr("hkel.picard._duhamel", lambda *a: calls.append("duhamel"))
    got, _ = picard_map(grid, free, seed)
    assert calls == []
    for name in ("Yh", "dYh", "boxYh"):
        assert (getattr(got, name) + 0.0).tobytes() == (getattr(want, name) + 0.0).tobytes(), name


def test_compatible_treats_nan_as_failure():
    assert compatible(0.0, 1e-8)
    assert not compatible(0.0, 2e-8)
    assert not compatible(float("nan"), 0.0)
    assert not compatible(0.0, float("nan"))


# -- the Jacobian-level map the displacement state replaced, as an oracle ---------


def gradient_free_wave_state(grid, tg, data):
    Af = grid.jacobian(grid.leray_project(data.f))
    Ag = grid.jacobian(grid.leray_project(data.g))
    G, dG = map(grid.ifft, field_free_wave(grid, Af, Ag, tg.times))
    return G, np.zeros_like(G), dG


def riesz_hessian(grid, a, b):
    return -grid.freq[a] * grid.freq[b] * grid.inv_k2


def physical_minors_and_brackets(grid, Gc, Hc):
    """Spectra of the demeaned minor sum and brackets, each from a physical round trip."""
    n, pad = grid.n, (grid.n + 1) / 2
    Gf, Hf = pad_to_fine(grid, Gc, pad), pad_to_fine(grid, Hc, pad)
    s = truncate_from_fine(grid, _accumulate_terms(Gf, _minor_terms(n, range(2, n + 1))), pad)
    sh = grid.fft(s - s.mean(axis=grid.axes, keepdims=True))
    Bh = np.zeros((n, n) + Gc.shape[2 : Gc.ndim - n] + grid.spectral_shape, dtype=complex)
    for a in range(n):
        for k in range(a + 1, n):
            acc = sum(Gf[l, a] * Hf[l, k] - Gf[l, k] * Hf[l, a] for l in range(n))
            b_ak = truncate_from_fine(grid, acc, pad)
            Bh[a, k] = grid.fft(b_ak - b_ak.mean(axis=grid.axes, keepdims=True))
            Bh[k, a] = -Bh[a, k]
    return sh, Bh


def gradient_picard_map(grid, tg, state, free):
    """One map on (G, H = box G, dG) triples, all samples in one chunk."""
    G, H, _ = state
    n = grid.n
    sh, Bh = physical_minors_and_brackets(grid, np.moveaxis(G, 0, 2), np.moveaxis(H, 0, 2))
    forcing = np.empty_like(G)
    C = np.empty_like(G)
    for a in range(n):
        for b in range(n):
            acc = sum(Bh[a, k] * riesz_hessian(grid, b, k) for k in range(n))
            forcing[:, a, b] = grid.ifft(acc)
            C[:, a, b] = grid.ifft(sh * riesz_hessian(grid, a, b))
    G_new, dG_new = free[0] + C, free[2] + time_derivative(tg, C)
    for a in range(n):
        for b in range(n):
            duh, dduh = physical_duhamel(grid, tg, forcing[:, a, b])
            G_new[:, a, b] += duh
            dG_new[:, a, b] += dduh
    return G_new, forcing + physical_box(grid, tg, C), dG_new


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_displacement_map_matches_gradient_map(n, size):
    grid = Grid(n, size)
    cfg = small_config(dimension=n, grid_n=size)
    tg = cfg.time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    seed = free_seed(grid, data)
    state, _ = picard_map(grid, picard_map(grid, free_wave_state(grid, tg, data), seed)[0], seed)
    oracle_free = gradient_free_wave_state(grid, tg, data)
    oracle = gradient_picard_map(grid, tg, oracle_free, oracle_free)
    oracle = gradient_picard_map(grid, tg, oracle, oracle_free)
    scale = np.abs(oracle[0]).max()
    assert np.abs(state.G - oracle[0]).max() <= 1e-12 * scale
    assert np.abs(grid.jacobian_of_spectrum(state.dYh) - oracle[2]).max() <= 1e-12 * scale


def physical_picard_map(grid, tg, state, free):
    """The map on physical (Y, dY, boxY) trajectories, all samples in one chunk.

    A transform round trip surrounds every multiplier: G and H come from
    Jacobians of physical samples, the minor sum and brackets are truncated
    to physical fields and demeaned, and W and Z are transformed back before
    the box and Duhamel act on them.
    """
    n = grid.n
    G, H = (np.moveaxis(grid.jacobian(u), 0, 2) for u in (state[0], state[2]))
    sh, Bh = physical_minors_and_brackets(grid, G, H)
    mult = [1j * k * grid.inv_k2 for k in grid.dfreq]
    Z = np.stack([grid.ifft(sh * m) for m in mult], axis=1)
    W = np.stack([grid.ifft(sum(Bh[a, k] * mult[k] for k in range(n))) for a in range(n)], axis=1)
    Y, dY = free[0] + Z, free[1] + time_derivative(tg, Z)
    for a in range(n):
        duh, dduh = physical_duhamel(grid, tg, W[:, a])
        Y[:, a] += duh
        dY[:, a] += dduh
    return Y, dY, W + physical_box(grid, tg, Z)


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_spectral_map_matches_physical_map(n, size):
    grid = Grid(n, size)
    tg = small_config(dimension=n, grid_n=size).time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    free = free_wave_state(grid, tg, data)
    phys_free = tuple(grid.ifft(uh) for uh in (free.Yh, free.dYh, np.zeros_like(free.Yh)))
    oracle = physical_picard_map(grid, tg, physical_picard_map(grid, tg, phys_free, phys_free),
                                 phys_free)
    seed = free_seed(grid, data)
    state, _ = picard_map(grid, picard_map(grid, free, seed)[0], seed)
    # boxY measured 6.6e-12 (2D) and 2.2e-12 (3D): rounding amplified by the 1/dt^2 difference
    got = (state.Yh, state.dYh, state.boxYh)
    for uh, want, bound in zip(got, oracle, (1e-13, 1e-13, 2e-11)):
        assert np.abs(grid.ifft(uh) - want).max() <= bound * np.abs(want).max()


def test_state_gradients_are_per_sample_jacobians(grid2):
    cfg = small_config(grid_n=32)
    data = make_shear_data(grid2, 1e-2, seed=7, band=1)
    state, _ = picard_map(grid2, free_wave_state(grid2, cfg.time_grid(), data),
                          free_seed(grid2, data))
    for uh, grad in ((state.Yh, state.G), (state.dYh, grid2.jacobian_of_spectrum(state.dYh))):
        assert grad.tobytes() == np.stack([grid2.jacobian_of_spectrum(u) for u in uh]).tobytes()


@pytest.mark.parametrize("n, size", [(2, 32), (3, 8), (3, 16)])
@pytest.mark.parametrize("chunk", ["one", "default"])
def test_picard_map_matches_whole_trajectory_assembly_bitwise(monkeypatch, n, size, chunk):
    # the in-place, row-by-row assembly adds the same operands in the same
    # order per mode as whole-trajectory arrays do, on forced and unforced maps
    if chunk == "one":
        monkeypatch.setattr(Grid, "samples_per_chunk", lambda grid: 1)
    grid = Grid(n, size)
    tg = small_config(dimension=n, grid_n=size).time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    free, seed = free_wave_state(grid, tg, data), free_seed(grid, data)
    state = free
    for _ in range(2):  # the unforced first map, then a forced one
        # the map consumes its state's d_t Y and box Y, which the oracle (and free) keep
        got, _ = picard_map(grid, consumable(state), seed)
        want = whole_trajectory_picard_map(grid, state, free)
        for name in ("Yh", "dYh", "boxYh"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        state = got


@pytest.mark.parametrize("n, size", [(2, 32), (3, 8)])
def test_picard_map_writes_into_its_states_buffers(monkeypatch, n, size):
    # the new Y, d_t Y and box Y land in the mapped state's own three buffers
    # (a new box Y on the free wave, which stores none); the old d_t Y is read
    # by nothing: NaN there leaves every output's bytes alone.  Beyond that
    # box the map allocates chunk and row temporaries only, no other
    # trajectory-sized array: with one sample per chunk they read 13 to 16
    # rows of the first spectral axis, and a trajectory is 32 rows in 2D
    # N=32 and 8 in 3D N=8
    monkeypatch.setattr(Grid, "samples_per_chunk", lambda grid: 1)
    grid = Grid(n, size)
    tg = small_config(dimension=n, grid_n=size, t_end=2.0).time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    seed = free_seed(grid, data)
    for forced in (False, True):  # the free wave, then a state with a box
        state = free_wave_state(grid, tg, data)
        if forced:
            state, _ = picard_map(grid, state, seed)
        want, want_deltas = picard_map(grid, consumable(state), seed)
        buffers = (state.Yh, state.dYh, state.boxYh)
        state.dYh[...] = np.nan
        tracemalloc.start()
        try:
            got, deltas = picard_map(grid, state, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.Yh is buffers[0] and got.dYh is buffers[1]
        assert (got.boxYh is buffers[2]) == forced
        row = state.Yh.nbytes // grid.spectral_shape[0]
        assert peak < (not forced) * state.Yh.nbytes + 20 * row, peak / row
        for name in ("Yh", "dYh", "boxYh"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert deltas.tobytes() == want_deltas.tobytes()


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
@pytest.mark.parametrize("chunk", ["one", "default"])
def test_picard_map_deltas_are_gradient_besov_norms_of_the_step_bitwise(monkeypatch, n, size,
                                                                          chunk):
    # the map sums each sample's band powers of new - old Y as its rows land;
    # they are gradient_besov_norms' terms added in its order, so the norms keep its bits
    if chunk == "one":
        monkeypatch.setattr(Grid, "samples_per_chunk", lambda grid: 1)
    grid = Grid(n, size)
    tg = small_config(dimension=n, grid_n=size).time_grid()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    seed = free_seed(grid, data)
    state = free_wave_state(grid, tg, data)
    for _ in range(2):  # the unforced first map, then a forced one
        old = state.Yh.copy()
        state, deltas = picard_map(grid, state, seed)
        want = gradient_besov_norms(grid, state.Yh - old, grid.n / 2.0)
        assert deltas.tobytes() == want.tobytes()


def test_picard_solve_holds_three_trajectories():
    # tracemalloc peak in half-spectrum Y trajectories: the last state's Y,
    # d_t Y and box Y, which the map consumes, with one chunk and one row of
    # temporaries; with a spare Y for the delta it read 4.22, and holding both
    # states' three spectra and the free wave's two, 8.21
    grid = Grid(2, 64)
    cfg = RunConfig(dimension=2, grid_n=64, epsilon=1e-2, t_end=3.0, dt=0.01)
    data = make_shear_data(grid, 1e-2, seed=0)
    trajectory = cfg.time_grid().nsamples * 2 * 64 * 33 * 16
    tracemalloc.start()
    try:
        result = picard_solve(grid, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < 3.5 * trajectory  # 3.22 here


def test_picard_solve_deltas_independent_of_chunk_size_bitwise(monkeypatch):
    # the map sums the band powers of successive iterates' difference per
    # sample, row by row after the chunk loop, so the deltas keep their bits
    grid = Grid(2, 16)
    cfg = small_config()
    data = make_shear_data(grid, 1e-2, seed=7, band=1)
    assert grid.samples_per_chunk() >= cfg.time_grid().nsamples  # the default is one chunk
    default = picard_solve(grid, data, cfg)
    monkeypatch.setattr(Grid, "samples_per_chunk", lambda grid: 1)
    one = picard_solve(grid, data, cfg)
    assert default.converged and len(default.deltas) > 2
    assert np.array(one.deltas).tobytes() == np.array(default.deltas).tobytes()
