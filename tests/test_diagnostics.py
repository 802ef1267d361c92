from itertools import combinations

import numpy as np
import pytest

from hkel.diagnostics import (
    SweepRow,
    besov_norm,
    besov_sup,
    data_norm,
    energy,
    gradient_besov_norms,
    gradient_besov_sup,
    pairwise_sq_dists,
    s_surrogate,
    solution_norm,
    sweep_report,
    two_variation,
    two_variation_from_dists,
)
from hkel.elastic import make_shear_data
from hkel.picard import free_wave_state
from hkel.spectral import Grid, random_mean_free
from hkel.waves import TimeGrid

from conftest import ComplexGrid, loglog_slope, physical_energy


def brute_force_variation(d2):
    m = d2.shape[0]
    best = 0.0
    for r in range(m - 1):
        for subset in combinations(range(1, m - 1), r):
            chain = [0, *subset, m - 1]
            total = 0.0
            for i in range(len(chain) - 1):
                total = total + d2[chain[i], chain[i + 1]]
            best = max(best, total)
    return float(np.sqrt(best))


# -- besov ----------------------------------------------------------------------


def test_besov_single_band(grid2, rng):
    u = grid2.dyadic_project(random_mean_free(grid2, rng), 3)
    s = 1.5
    assert np.isclose(besov_norm(grid2, u, s), 2.0 ** (3 * s) * grid2.l2(u), rtol=1e-12)


def test_besov_additive_over_disjoint_bands(grid2, rng):
    u = random_mean_free(grid2, rng)
    a = grid2.dyadic_project(u, 1)
    b = grid2.dyadic_project(u, 3)
    s = 1.0
    total = besov_norm(grid2, a + b, s)
    assert np.isclose(total, besov_norm(grid2, a, s) + besov_norm(grid2, b, s), rtol=1e-12)


def test_besov_zero_exponent_dominates_l2(grid2, rng):
    u = random_mean_free(grid2, rng)
    assert besov_norm(grid2, u, 0.0) >= grid2.l2(u) * (1.0 - 1e-12)
    single = grid2.dyadic_project(u, 2)
    assert np.isclose(besov_norm(grid2, single, 0.0), grid2.l2(single), rtol=1e-12)


def test_besov_matrix_components(grid2, rng):
    # l2 over components inside each band
    u = grid2.dyadic_project(random_mean_free(grid2, rng), 2)
    M = np.zeros((2, 2) + grid2.shape)
    M[0, 0] = 3.0 * u
    M[1, 0] = 4.0 * u
    assert np.isclose(besov_norm(grid2, M, 1.0), 5.0 * besov_norm(grid2, u, 1.0), rtol=1e-12)


def test_energy_zero(grid2):
    Z = np.zeros((3, 2) + grid2.spectral_shape, dtype=complex)
    assert energy(grid2, Z, Z).tolist() == [0.0] * 3


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_energy_by_parseval_matches_physical_fields(rng, n, size):
    # white noise: the self-paired columns and the Nyquist lines carry content
    grid = Grid(n, size)
    Y_ts = rng.standard_normal((4, n) + grid.shape)
    dY_ts = rng.standard_normal(Y_ts.shape)
    got = energy(grid, grid.fft(Y_ts), grid.fft(dY_ts))
    want = [physical_energy(grid, dY, grid.jacobian(Y)) for Y, dY in zip(Y_ts, dY_ts)]
    assert got.shape == (4,)
    assert np.abs(got - want).max() <= 1e-14 * max(want)


# -- 2-variation -------------------------------------------------------------------


def test_two_variation_constant_path():
    path = np.ones((5, 3))
    assert two_variation(path) == 0.0


def test_two_variation_frozen_zigzag():
    # scalar path (0, 1, 0): taking every sample gives 1 + 1 = 2
    assert np.isclose(two_variation(np.array([[0.0], [1.0], [0.0]])), np.sqrt(2.0))


def test_two_variation_frozen_monotone():
    # scalar path (0, 1, 2): skipping the midpoint gives 4 > 1 + 1
    assert np.isclose(two_variation(np.array([[0.0], [1.0], [2.0]])), 2.0)


def test_two_variation_needs_two_samples():
    with pytest.raises(ValueError):
        two_variation(np.zeros((1, 2)))


def test_two_variation_equals_brute_force(rng):
    for _ in range(100):
        m = int(rng.integers(2, 13))
        path = rng.standard_normal((m, 4))
        d2 = pairwise_sq_dists(path)
        assert two_variation_from_dists(d2) == brute_force_variation(d2)


def test_two_variation_time_reversal(rng):
    path = rng.standard_normal((20, 5))
    fwd = two_variation(path)
    bwd = two_variation(path[::-1])
    assert np.isclose(fwd, bwd, rtol=1e-12)


def test_two_variation_unitary_invariance(rng):
    # per-snapshot global phase rotation preserves Hermitian distances
    path = rng.standard_normal((15, 6)) + 1j * rng.standard_normal((15, 6))
    rot = np.exp(1j * 0.7321)
    assert np.isclose(two_variation(path), two_variation(rot * path), rtol=1e-12)


def test_two_variation_subsampling_cap(rng):
    path = rng.standard_normal((1000, 2))
    capped = two_variation(path, max_samples=100)
    assert capped > 0.0  # smoke: the stride path is exercised


# -- s surrogate --------------------------------------------------------------------


def test_s_surrogate_zero_state(grid2):
    tg = TimeGrid(0.1, 8)
    Z = np.zeros((tg.nsamples, 2) + grid2.spectral_shape, dtype=complex)
    total, variation = s_surrogate(grid2, tg, Z, Z)
    assert total == 0.0 and variation == 0.0


def test_s_surrogate_free_wave_variation_vanishes(grid2):
    data = make_shear_data(grid2, 1e-2, seed=5, band=2)
    tg = TimeGrid(1 / 16, 16)
    free = free_wave_state(grid2, tg, data)
    total, variation = s_surrogate(grid2, tg, free.Yh, free.dYh)
    besov_part = besov_sup(grid2, free.G, grid2.n / 2.0)
    assert variation <= 1e-10 * besov_part
    assert np.isclose(total, besov_part, rtol=1e-9)


def full_spectrum_s_surrogate(grid, tg, G_ts, dG_ts, s):
    """s_surrogate on the full complex-FFT lattice, every mode and sign explicit."""
    ref = ComplexGrid(grid)
    idx = np.arange(tg.nsamples)
    coeff_scale = np.sqrt(grid.cell_volume) / np.sqrt(grid.npoints)
    ncomp = int(np.prod(G_ts.shape[1 : G_ts.ndim - grid.n]))
    Gh = np.stack([ref.fft(G_ts[m]).reshape(ncomp, -1) for m in idx])
    Wh = np.stack([ref.fft(dG_ts[m]).reshape(ncomp, -1) for m in idx]) * ref.inv_absk.ravel()
    absk, band = ref.absk.ravel(), ref.band_of.ravel()
    variation = 0.0
    for j in range(grid.nbands):
        sel = np.nonzero(band == j)[0]
        for sign in (+1.0, -1.0):
            twist = np.exp(sign * 1j * tg.times[:, None] * absk[sel])[:, None, :]
            w = (Gh[:, :, sel] + sign * 1j * Wh[:, :, sel]) * twist
            variation += 2.0 ** (j * s) * two_variation(w * coeff_scale)
    weights = 2.0 ** (s * np.arange(grid.nbands))
    besov = max(float(np.dot(weights, ref.band_l2_profile(Gm))) for Gm in G_ts)
    return variation + besov, variation


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_s_surrogate_matches_full_spectrum(rng, n, size):
    # white noise: the interior columns and the self-paired columns 0 and
    # N/2 all carry content
    grid = Grid(n, size)
    tg = TimeGrid(0.1, 6)
    Y_ts = rng.standard_normal((tg.nsamples, n) + grid.shape)
    dY_ts = rng.standard_normal(Y_ts.shape)
    got = s_surrogate(grid, tg, grid.fft(Y_ts), grid.fft(dY_ts))
    expected = full_spectrum_s_surrogate(
        grid, tg, grid.jacobian(Y_ts), grid.jacobian(dY_ts), n / 2.0
    )
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_gradient_besov_sup_matches_jacobian_norm(rng, n, size):
    grid = Grid(n, size)
    Y_ts = rng.standard_normal((5, n) + grid.shape)
    for s in (n / 2.0, 0.0):
        expected = besov_sup(grid, grid.jacobian(Y_ts), s)
        assert abs(gradient_besov_sup(grid, grid.fft(Y_ts), s) - expected) <= 1e-14 * expected


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_gradient_besov_norms_per_sample(rng, n, size):
    grid = Grid(n, size)
    Y_ts = rng.standard_normal((5, n) + grid.shape)
    for s in (n / 2.0, n / 2.0 - 1.0):
        got = gradient_besov_norms(grid, grid.fft(Y_ts), s)
        assert got.shape == (5,)
        for m in range(5):
            expected = besov_norm(grid, grid.jacobian(Y_ts[m]), s)
            assert abs(got[m] - expected) <= 1e-14 * expected


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_solution_norm_measures_jacobians(rng, n, size):
    grid = Grid(n, size)
    Y_ts = rng.standard_normal((5, n) + grid.shape)
    dY_ts = rng.standard_normal(Y_ts.shape)
    expected = besov_sup(grid, grid.jacobian(Y_ts), n / 2.0) + besov_sup(
        grid, grid.jacobian(dY_ts), n / 2.0 - 1.0
    )
    got = solution_norm(grid, grid.fft(Y_ts), grid.fft(dY_ts))
    assert abs(got - expected) <= 1e-14 * expected


def test_sup_norms_propagate_nan(grid2, rng):
    # a NaN sample past the first once dropped out of besov_sup's max
    Y_ts = rng.standard_normal((3, 2) + grid2.shape)
    Y_ts[2, 0, 1, 1] = np.nan
    assert np.isnan(besov_sup(grid2, Y_ts, 1.0))
    assert np.isnan(gradient_besov_sup(grid2, grid2.fft(Y_ts), 1.0))


# -- sweep ----------------------------------------------------------------------------


def _row(eps, sol=0.0, conv=True):
    return SweepRow(
        epsilon=eps,
        data_norm=0.0,
        solution_norm=sol,
        ratio=0.0,
        first_picard_ratio=0.0,
        iterations=1,
        converged=conv,
        free_deviation=0.0,
    )


def test_sweep_all_zero_rows():
    rows = sweep_report([_row(1e-3), _row(1e-2), _row(1e-1)])
    assert all(r.solution_norm == 0.0 and r.monotone for r in rows)


def test_sweep_needs_three():
    with pytest.raises(ValueError):
        sweep_report([_row(1e-3), _row(1e-2)])


def test_sweep_flags_non_monotone():
    rows = sweep_report([_row(1e-3, sol=2.0), _row(1e-2, sol=1.0), _row(1e-1, sol=3.0)])
    assert [r.monotone for r in rows] == [True, False, True]


def test_loglog_slope_exact():
    xs = [1e-3, 1e-2, 1e-1]
    ys = [x**2 for x in xs]
    assert np.isclose(loglog_slope(xs, ys), 2.0, atol=1e-12)


def test_data_norm_positive(grid2):
    data = make_shear_data(grid2, 1e-2, seed=6)
    assert data_norm(grid2, data) > 0.0


def test_s_surrogate_variation_scales_quadratically():
    from hkel.config import RunConfig
    from hkel.picard import picard_solve
    from hkel.spectral import Grid

    grid = Grid(2, 32)
    variations = {}
    for eps in (1e-2, 1e-1):
        data = make_shear_data(grid, eps, seed=21, band=2)
        cfg = RunConfig(
            dimension=2, grid_n=32, epsilon=eps, t_end=1.0, dt=1 / 64,
            picard_tol=1e-10,
        )
        result = picard_solve(grid, data, cfg)
        _, variation = s_surrogate(grid, result.state.tg, result.state.Yh, result.state.dYh)
        variations[eps] = variation
    slope = loglog_slope(list(variations), list(variations.values()))
    assert abs(slope - 2.0) <= 0.3
