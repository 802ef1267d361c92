import numpy as np
import pytest

from hkel.bandlimited import TrigPoly, random_scalar
from hkel.spectral import (
    CHUNK_BYTES,
    Grid,
    dealiased_product,
    fine_to_spectrum,
    jacobian_on_fine,
    pad_to_fine,
    random_mean_free,
    spectrum_to_fine,
    truncate_from_fine,
)

from conftest import (ComplexGrid, full_fine_to_spectrum, full_spectrum_to_fine, physical_spectrum,
                      random_vector)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 32)
    with pytest.raises(ValueError):
        Grid(2, 24)
    with pytest.raises(ValueError):
        Grid(2, 4)


def test_round_trip(grid2, grid3, rng):
    for grid in (grid2, grid3):
        u = rng.standard_normal((2,) + grid.shape)
        assert np.abs(grid.ifft(grid.fft(u)) - u).max() <= 1e-12 * np.abs(u).max()


def test_parseval(grid2, rng):
    # half lattice: interior columns stand for their conjugate partners too
    u = rng.standard_normal(grid2.shape)
    spectral = np.sum(grid2.parseval_weight * np.abs(grid2.fft(u)) ** 2) / grid2.npoints
    assert np.isclose(spectral, np.sum(u * u), rtol=1e-12)


# -- derivative ---------------------------------------------------------------


def test_derivative_single_mode(grid2):
    x = grid2.coords
    assert np.abs(grid2.jacobian(np.sin(x[0]))[0] - np.cos(x[0])).max() <= 1e-12


def test_derivative_constant(grid2):
    assert np.abs(grid2.jacobian(np.ones(grid2.shape))[1]).max() == 0.0


def test_derivative_against_refined_finite_differences(rng):
    # oracle: 8th-order centered stencil on a 4x refined lattice, with the
    # field sampled exactly from its trigonometric modes
    grid = Grid(2, 64)
    poly = random_scalar(rng, 2, band=4)
    u = poly(grid.coords)
    fine = Grid(2, 256)
    uf = poly(fine.coords)
    h = 2 * np.pi / fine.size
    w = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3]) / (840.0 * h)
    df = sum(w[i] * np.roll(uf, 4 - i, axis=0) for i in range(9))
    df_on_coarse = df[::4, ::4]
    got = grid.jacobian(u)[0]
    scale = np.abs(df_on_coarse).max()
    assert np.abs(got - df_on_coarse).max() <= 1e-8 * scale


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_gradient_one_call_matches_per_derivative_loop_bitwise(rng, n, size):
    grid = Grid(n, size)
    # a scalar's Jacobian is its gradient; a (3, n) field gets (3, n, n)
    for u in (rng.standard_normal(grid.shape), rng.standard_normal((3, n) + grid.shape)):
        uh = grid.fft(u)
        loop = np.stack([grid.ifft(uh * (1j * k)) for k in grid.dfreq], axis=-n - 1)
        got = grid.jacobian(u)
        assert got.shape == loop.shape and got.tobytes() == loop.tobytes()


# -- riesz ----------------------------------------------------------------------


def test_riesz_single_mode(grid2):
    x = grid2.coords
    got = grid2.riesz(np.cos(2 * x[0]), 0)
    assert np.abs(got + np.sin(2 * x[0])).max() <= 1e-12


def test_riesz_squares_sum_to_minus_identity(grid2, grid3, rng):
    for grid in (grid2, grid3):
        u = random_mean_free(grid, rng)
        acc = sum(grid.riesz(grid.riesz(u, i), i) for i in range(grid.n))
        assert np.abs(acc + u).max() <= 1e-12 * np.abs(u).max()


def test_riesz_commutes(grid2, rng):
    u = random_mean_free(grid2, rng)
    ab = grid2.riesz(grid2.riesz(u, 0), 1)
    ba = grid2.riesz(grid2.riesz(u, 1), 0)
    assert np.abs(ab - ba).max() <= 1e-12 * np.abs(u).max()


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_jacobian_of_trajectory_matches_per_sample_bitwise(grid_name, request, rng):
    # leading axes broadcast: sample m of a trajectory's Jacobian is G[a, b] = d_b Y_a
    grid = request.getfixturevalue(grid_name)
    Y_ts = np.stack([random_vector(grid, rng) for _ in range(3)])
    G_ts = grid.jacobian(Y_ts)
    assert G_ts.shape == (3, grid.n, grid.n) + grid.shape
    for m in range(3):
        assert G_ts[m].tobytes() == grid.jacobian(Y_ts[m]).tobytes()


def test_riesz_rejects_mean(grid2):
    with pytest.raises(ValueError, match="mean-free"):
        grid2.riesz(np.ones(grid2.shape) + 0.1, 0)


# -- leray ------------------------------------------------------------------------


def test_leray_annihilates_gradients(grid2):
    x = grid2.coords
    phi = np.sin(x[0]) * np.cos(x[1])
    out = grid2.leray_project(grid2.jacobian(phi))
    assert np.abs(out).max() <= 1e-12


def test_leray_fixes_divergence_free(grid2, rng):
    psi = random_mean_free(grid2, rng)
    dpsi = grid2.jacobian(psi)
    w = np.stack([dpsi[1], -dpsi[0]])
    assert np.abs(grid2.leray_project(w) - w).max() <= 1e-12 * np.abs(w).max()


def test_leray_idempotent(grid2, grid3, rng):
    for grid in (grid2, grid3):
        v = random_vector(grid, rng)
        pv = grid.leray_project(v)
        assert np.abs(grid.leray_project(pv) - pv).max() <= 1e-12 * np.abs(v).max()
        assert np.abs(grid.divergence(pv)).max() <= 1e-12 * grid.l2(v)


def test_vector_operators_broadcast_over_leading_axes_bitwise(grid2, grid3, rng):
    # the component axis is the one just before space, as for jacobian
    for grid in (grid2, grid3):
        v = np.stack([random_vector(grid, rng) for _ in range(3)])
        pv, dv = grid.leray_project(v), grid.divergence(v)
        for m in range(3):
            assert pv[m].tobytes() == grid.leray_project(v[m]).tobytes()
            assert dv[m].tobytes() == grid.divergence(v[m]).tobytes()
    with pytest.raises(ValueError):
        grid2.leray_project(np.zeros((3,) + grid2.shape))


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_sample_sq_l2_is_physical_norm_per_sample(rng, n, size):
    # white noise: every Nyquist line, plane and corner carries content
    grid = Grid(n, size)
    v = rng.standard_normal((3, n) + grid.shape)
    v -= v.mean(axis=grid.axes, keepdims=True)
    vh = grid.fft(v)
    cases = [
        (vh, 1.0, lambda u: u),
        (vh, grid.dk2, grid.jacobian),
        # Leray's multiplier is Hermitian: its spectrum is a real field's
        (grid.leray_of_spectrum(vh), 1.0, grid.leray_project),
    ]
    for uh, weight, physical in cases:
        got = grid.sample_sq_l2(uh, weight)
        want = [grid.l2(physical(u)) ** 2 for u in v]
        assert got.shape == (3,)
        assert np.abs(got - want).max() <= 1e-13 * max(want)


# -- dyadic bands -----------------------------------------------------------------


def test_dyadic_band_count(grid2):
    assert grid2.nbands == int(np.log2(grid2.size // 2)) + 1


def test_dyadic_partition_of_unity(grid2, rng):
    u = rng.standard_normal(grid2.shape)
    total = sum(grid2.dyadic_project(u, j) for j in range(grid2.nbands))
    assert np.abs(total - (u - u.mean())).max() <= 1e-12 * np.abs(u).max()


def test_dyadic_single_mode_shell(grid2):
    x = grid2.coords
    u = np.cos(4 * x[0])  # |xi| = 4 lives in shell j = 2
    for j in range(grid2.nbands):
        piece = grid2.dyadic_project(u, j)
        if j == 2:
            assert np.abs(piece - u).max() <= 1e-12
        else:
            assert np.abs(piece).max() <= 1e-12


def test_dyadic_bands_partition_lattice_exactly(grid2, grid3):
    # every half-lattice mode but the zero mode lies in exactly one band, and
    # the bands' weighted mode counts cover the full lattice
    for grid in (grid2, grid3):
        seen = np.zeros(grid.spectral_shape, dtype=int)
        for j in range(grid.nbands):
            seen += grid.band_of == j
        expected = np.ones(grid.spectral_shape, dtype=int)
        expected[(0,) * grid.n] = 0
        assert np.array_equal(seen, expected)
        weight = np.broadcast_to(grid.parseval_weight, grid.spectral_shape)
        assert sum(weight[grid.band_of == j].sum() for j in range(grid.nbands)) == grid.npoints - 1


def test_dyadic_parseval_over_shells(grid2, rng):
    u = rng.standard_normal(grid2.shape)
    total = sum(grid2.l2(grid2.dyadic_project(u, j)) ** 2 for j in range(grid2.nbands))
    assert np.isclose(total, grid2.l2(u - u.mean()) ** 2, rtol=1e-12)


# -- dealiased products ---------------------------------------------------------


def test_product_with_unit_field(grid2, rng):
    u = random_mean_free(grid2, rng, band=6)
    got = dealiased_product(grid2, [u, np.ones(grid2.shape)])
    assert np.abs(got - u).max() <= 1e-13 * np.abs(u).max()


def test_product_single_modes(grid2):
    x = grid2.coords
    got = dealiased_product(grid2, [np.cos(2 * x[0]), np.cos(3 * x[0])])
    exact = 0.5 * (np.cos(5 * x[0]) + np.cos(x[0]))
    assert np.abs(got - exact).max() <= 1e-13


def test_cubic_product_against_refined_grid(rng):
    grid = Grid(2, 32)
    fine = Grid(2, 256)
    polys = [random_scalar(rng, 2, band=5) for _ in range(3)]
    got = dealiased_product(grid, [p(grid.coords) for p in polys])
    # oracle: multiply exact samples on an 8x refined lattice, then truncate
    # its spectrum back to the coarse window
    prod_fine = polys[0](fine.coords) * polys[1](fine.coords) * polys[2](fine.coords)
    fh = np.fft.fftn(prod_fine)
    idx = (np.fft.fftfreq(grid.size, 1.0 / grid.size).astype(int)) % fine.size
    expected = np.fft.ifftn(fh[np.ix_(idx, idx)]).real * (grid.size / fine.size) ** 2
    assert np.abs(got - expected).max() <= 1e-10 * max(np.abs(expected).max(), 1.0)


def test_pad_truncate_round_trip(grid2, rng):
    u = random_mean_free(grid2, rng)
    fine = pad_to_fine(grid2, u, 2)
    back = truncate_from_fine(grid2, fine, 2)
    assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()


def test_pad_interpolates_point_values(grid2):
    # padded samples of a known mode are its exact trig values
    x = grid2.coords
    u = np.cos(3 * x[0] + 1.0)
    fine = pad_to_fine(grid2, u, 2)
    big = 2 * grid2.size
    xf = 2 * np.pi * np.arange(big) / big
    expected = np.cos(3 * xf[:, None] + 1.0) * np.ones((1, big))
    assert np.abs(fine - expected).max() <= 1e-12


def test_trigpoly_derivative_matches_grid(grid2, rng):
    poly = random_scalar(rng, 2, band=4)
    u = poly(grid2.coords)
    assert np.allclose(poly.deriv(1)(grid2.coords), grid2.jacobian(u)[1], atol=1e-12)


# -- half-spectrum padding on fractional lattices --------------------------------


def complex_pad_to_fine(grid, u, big):
    # the complex-FFT padding the half-spectrum one must reproduce: the
    # unpaired Nyquist index sits at -N/2 and the real part is kept
    idx = np.fft.fftfreq(grid.size, d=1.0 / grid.size).astype(np.int64) % big
    fine = np.zeros(u.shape[: -grid.n] + (big,) * grid.n, dtype=complex)
    fine[(Ellipsis,) + np.ix_(*([idx] * grid.n))] = np.fft.fftn(u, axes=grid.axes)
    return np.fft.ifftn(fine, axes=grid.axes).real * (big / grid.size) ** grid.n


def complex_truncate_from_fine(grid, u_fine, big):
    idx = np.fft.fftfreq(grid.size, d=1.0 / grid.size).astype(np.int64) % big
    fh = np.fft.fftn(u_fine, axes=grid.axes)
    uh = fh[(Ellipsis,) + np.ix_(*([idx] * grid.n))] / (big / grid.size) ** grid.n
    return np.fft.ifftn(uh, axes=grid.axes).real


def test_pad_three_halves_interpolates_point_values():
    grid = Grid(2, 64)
    x = grid.coords
    u = np.cos(3 * x[0] - 5 * x[1] + 1.0)
    fine = pad_to_fine(grid, u, 1.5)
    assert fine.shape == (96, 96)
    xf = 2 * np.pi * np.arange(96) / 96
    expected = np.cos(3 * xf[:, None] - 5 * xf[None, :] + 1.0)
    assert np.abs(fine - expected).max() <= 1e-12


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_quadratic_product_on_three_halves_lattice(rng, n, size):
    grid = Grid(n, size)
    refined = Grid(n, 2 * size)  # exact for products of band < N/2
    polys = [random_scalar(rng, n, band=size // 2 - 1) for _ in range(2)]
    fine = [pad_to_fine(grid, p(grid.coords), 1.5) for p in polys]
    got = truncate_from_fine(grid, fine[0] * fine[1], 1.5)
    # oracle: exact samples multiplied on the refined lattice, spectrum
    # truncated back to the coarse window
    fh = np.fft.fftn(polys[0](refined.coords) * polys[1](refined.coords))
    idx = np.fft.fftfreq(size, 1.0 / size).astype(int) % refined.size
    expected = np.fft.ifftn(fh[np.ix_(*([idx] * n))]).real / 2**n
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("pad", [1, 1.25, 1.5, 2])
@pytest.mark.parametrize("n, size", [(2, 32), (3, 8)])
def test_half_spectrum_padding_matches_complex_padding(rng, n, size, pad):
    # unit-variance white noise fills every Nyquist line, plane and corner
    grid = Grid(n, size)
    big = int(pad * size)
    u = rng.standard_normal((2,) + grid.shape)
    assert np.abs(pad_to_fine(grid, u, pad) - complex_pad_to_fine(grid, u, big)).max() <= 1e-14
    v = rng.standard_normal((2,) + (big,) * n)
    diff = truncate_from_fine(grid, v, pad) - complex_truncate_from_fine(grid, v, big)
    assert np.abs(diff).max() <= 1e-14


@pytest.mark.parametrize("n, size, pad", [(2, 32, 1.5), (2, 32, 2), (3, 16, 2)])
def test_physical_padding_is_spectral_padding_of_transform_bitwise(rng, n, size, pad):
    grid = Grid(n, size)
    u = rng.standard_normal((2, n) + grid.shape)
    want = spectrum_to_fine(grid, grid.fft(u), pad)
    assert pad_to_fine(grid, u, pad).tobytes() == want.tobytes()
    v = rng.standard_normal((2,) + (int(pad * size),) * n)
    got = truncate_from_fine(grid, v, pad)
    assert got.tobytes() == grid.ifft(fine_to_spectrum(grid, v, pad)).tobytes()


PRUNED_CASES = [(2, 64, 1.5), (2, 64, 2), (2, 16, 1), (3, 16, 2), (3, 16, 1.5), (3, 8, 1)]


@pytest.mark.parametrize("n, size, pad", PRUNED_CASES)
def test_pruned_transforms_match_full_lattice_oracle_bitwise(rng, n, size, pad):
    # white noise fills every line; (3, 8, 1) has pad * N == N, where the
    # two blocks of occupied rows meet
    grid = Grid(n, size)
    fine = (int(pad * size),) * n
    for lead in [(), (n, n, 3)]:
        uh = grid.fft(rng.standard_normal(lead + grid.shape))
        got = spectrum_to_fine(grid, uh, pad)
        assert got.tobytes() == full_spectrum_to_fine(grid, uh, pad).tobytes(), lead
        v = rng.standard_normal(lead + fine)
        got = fine_to_spectrum(grid, v, pad)
        assert got.tobytes() == full_fine_to_spectrum(grid, v, pad).tobytes(), lead


@pytest.mark.parametrize("n, size, pad", PRUNED_CASES)
def test_pruned_transforms_match_oracle_on_noncontiguous_input_bitwise(rng, n, size, pad):
    grid = Grid(n, size)
    fine = (int(pad * size),) * n
    # time axis last in memory, moved to the front: no input axis is contiguous
    uh = np.moveaxis(np.fft.rfftn(rng.standard_normal(grid.shape + (3,)), axes=range(n)), -1, 0)
    assert not uh.flags.c_contiguous
    got = spectrum_to_fine(grid, uh, pad)
    assert got.tobytes() == full_spectrum_to_fine(grid, uh, pad).tobytes()
    v = np.moveaxis(rng.standard_normal(fine + (3,)), -1, 0)[::2]
    got = fine_to_spectrum(grid, v, pad)
    assert got.tobytes() == full_fine_to_spectrum(grid, v, pad).tobytes()


@pytest.mark.parametrize("n, size, want", [(2, 16, 64), (2, 64, 4), (2, 128, 1), (3, 8, 7),
                                           (3, 16, 1)])
def test_chunk_of_g_on_product_lattice_fits_budget(n, size, want):
    # the map's G on its own lattice, pad (n + 1) / 2: one chunk fits the
    # byte budget, unless a single sample is already larger
    grid = Grid(n, size)
    chunk = grid.samples_per_chunk()
    assert chunk == want
    Gf = jacobian_on_fine(grid, np.zeros((chunk, n) + grid.spectral_shape, complex), (n + 1) / 2)
    assert Gf.nbytes <= CHUNK_BYTES or chunk == 1


@pytest.mark.parametrize("pad", [1.0625, 1.3, 0.5])  # 17 (odd), 20.8, 8 < N points
def test_pad_rejects_bad_fine_size(pad):
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="even integer"):
        pad_to_fine(grid, np.zeros(grid.shape), pad)
    with pytest.raises(ValueError, match="even integer"):
        truncate_from_fine(grid, np.zeros((32, 32)), pad)


# -- half lattice against the complex full-lattice operators ---------------------


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_operators_match_complex_fft_oracle(rng, n, size):
    # unit-variance white noise fills every Nyquist line, plane and corner,
    # where a multiplier that is not Hermitian would show
    grid = Grid(n, size)
    ref = ComplexGrid(grid)
    u = rng.standard_normal(grid.shape)
    u -= u.mean()
    v = rng.standard_normal((n,) + grid.shape)
    v -= v.mean(axis=grid.axes, keepdims=True)
    traj = rng.standard_normal((3, n) + grid.shape)
    cases = [
        ("jacobian", (u,)),
        ("jacobian", (v,)),
        ("jacobian", (traj,)),
        ("divergence", (v,)),
        ("laplacian", (traj,)),
        ("leray_project", (v,)),
        ("band_l2_profile", (v,)),
    ]
    cases += [("riesz", (u, a)) for a in range(n)]
    cases += [("dyadic_project", (u, j)) for j in range(grid.nbands)]
    # the Laplacian and the band profile as the library forms them from a spectrum
    inline = {
        "laplacian": lambda w: grid.ifft(grid.fft(w) * (-grid.k2)),
        "band_l2_profile": lambda w: grid.band_l2_of_power((np.abs(grid.fft(w)) ** 2).sum(axis=0)),
    }
    for name, args in cases:
        got = (inline[name] if name in inline else getattr(grid, name))(*args)
        expected = getattr(ref, name)(*args)
        assert got.shape == expected.shape, name
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), (name, args[1:])
    for a in range(n):  # each partial derivative against its own scale
        got, expected = grid.jacobian(u)[a], ref.deriv(u, a)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), ("gradient", a)
    got, expected = grid.ifft(physical_spectrum(grid, traj)), ref.project_physical(traj)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), "physical_spectrum"


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_riesz_hessian_table_matches_inline_multipliers_bitwise(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    for k, row in zip(grid.dfreq, grid.idfreq_inv_k2):
        inline = np.broadcast_to(1j * k * grid.inv_k2, grid.spectral_shape)
        assert row.tobytes() == np.ascontiguousarray(inline).tobytes()
