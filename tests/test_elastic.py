import tracemalloc

import numpy as np
import pytest

from hkel.elastic import (
    InitialData,
    _accumulate_terms,
    _minor_terms,
    compatibility_residuals,
    curl_free_displacement,
    det_pointwise,
    inverse_pointwise,
    make_shear_data,
    null_form,
    recover_pressure,
)
from hkel.spectral import Grid, dealiased_product, fine_sample_bytes, pad_to_fine, random_mean_free

from conftest import (
    ComplexGrid,
    batched_recover_pressure,
    cofactor_matrix,
    curl_compatibility_residual,
    physical_recover_pressure,
    principal_minor_sum,
    random_jacobian,
    random_vector,
)


def constant_field(grid, A):
    return np.asarray(A).reshape(A.shape + (1,) * grid.n) * np.ones(grid.shape)


def cofactor_det(A):
    """Brute-force determinant by first-row cofactor expansion."""
    A = np.asarray(A)
    if A.shape[0] == 1:
        return A[0, 0]
    total = 0.0
    for c in range(A.shape[0]):
        minor = np.delete(np.delete(A, 0, axis=0), c, axis=1)
        total += (-1) ** c * A[0, c] * cofactor_det(minor)
    return total


def brute_minor_sum(A, k):
    from itertools import combinations

    n = A.shape[0]
    return sum(cofactor_det(A[np.ix_(s, s)]) for s in combinations(range(n), k))


# -- principal minors ----------------------------------------------------------


def test_minor_sum_identity_matrix(grid3):
    A = constant_field(grid3, np.eye(3))
    assert np.allclose(principal_minor_sum(grid3, A, 2), 3.0, atol=1e-12)
    assert np.allclose(principal_minor_sum(grid3, A, 3), 1.0, atol=1e-12)


def test_minor_sum_frozen_values(grid3):
    A = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 10]])
    field = constant_field(grid3, A)
    assert np.allclose(principal_minor_sum(grid3, field, 2), -12.0, atol=1e-11)
    assert np.allclose(principal_minor_sum(grid3, field, 3), -3.0, atol=1e-11)
    # brute-force enumeration agrees
    assert np.isclose(brute_minor_sum(A, 2), -12.0)
    assert np.isclose(brute_minor_sum(A, 3), -3.0)


def test_minor_sum_shear_vanishes(grid2):
    x = grid2.coords
    A = np.zeros((2, 2) + grid2.shape)
    A[0, 1] = np.sin(x[1])
    assert np.abs(principal_minor_sum(grid2, A, 2)).max() <= 1e-14


def test_minor_sum_rejects_bad_order(grid2):
    A = np.zeros((2, 2) + grid2.shape)
    with pytest.raises(ValueError):
        principal_minor_sum(grid2, A, 1)
    with pytest.raises(ValueError):
        principal_minor_sum(grid2, A, 3)


def test_determinant_expansion_random_matrices(rng):
    for n in (2, 3):
        for _ in range(30):
            A = rng.normal(size=(n, n))
            expansion = 1.0 + np.trace(A) + float(
                _accumulate_terms(A, _minor_terms(n, range(2, n + 1)))
            )
            det = cofactor_det(np.eye(n) + A)
            assert abs(det - expansion) <= 1e-12 * max(1.0, abs(det))


# -- curl-free reconstruction -----------------------------------------------------


def curl_free_gradient(grid, G):
    return grid.jacobian(grid.ifft(curl_free_displacement(grid, pad_to_fine(grid, G, 2))))


def test_curl_free_zero(grid2):
    G = np.zeros((2, 2) + grid2.shape)
    assert np.abs(curl_free_gradient(grid2, G)).max() == 0.0


def test_curl_free_shear_vanishes(grid2):
    x = grid2.coords
    G = np.zeros((2, 2) + grid2.shape)
    G[0, 1] = np.cos(x[1])
    assert np.abs(curl_free_gradient(grid2, G)).max() <= 1e-14


def test_curl_free_symmetry_and_trace(grid2, grid3, rng):
    # grad Z is a gradient, so its Nyquist-plane content is gone: the trace
    # identity tr grad Z = -s holds on the physical window
    for grid in (grid2, grid3):
        G = random_jacobian(grid, rng, scale=0.1)
        C = curl_free_gradient(grid, G)
        s = sum(principal_minor_sum(grid, G, k) for k in range(2, grid.n + 1))
        s = s - s.mean()
        assert np.abs(C - np.swapaxes(C, 0, 1)).max() <= 1e-12 * max(np.abs(C).max(), 1e-30)
        trace = sum(C[a, a] for a in range(grid.n))
        residual = ComplexGrid(grid).project_physical(trace + s)
        assert np.abs(residual).max() <= 1e-12 * max(np.abs(s).max(), 1e-30)


# -- null form -----------------------------------------------------------------


def physical_null_form(grid, G, boxY):
    return grid.ifft(null_form(grid, pad_to_fine(grid, G, 2), pad_to_fine(grid, boxY, 2)))


def null_form_gradient(grid, G, boxY):
    return grid.jacobian(physical_null_form(grid, G, boxY))


def test_null_form_zero_box(grid2, rng):
    G = random_jacobian(grid2, rng)
    out = null_form_gradient(grid2, G, np.zeros((grid2.n,) + grid2.shape))
    assert np.abs(out).max() == 0.0


def test_null_form_gradient_flux_vanishes(grid2, grid3, rng):
    # box Y = c e_0 makes the flux P_b = c d_b Y_0 a gradient, so its curl,
    # the bracket, and with it W vanish
    for grid in (grid2, grid3):
        G = random_jacobian(grid, rng)
        boxY = np.zeros((grid.n,) + grid.shape)
        boxY[0] = 0.7
        out = null_form_gradient(grid, G, boxY)
        assert np.abs(out).max() <= 1e-13 * 0.7 * np.abs(G).max() ** 2


def test_null_form_reassociation_oracle(grid2, rng):
    # reassemble the bracket of G and H = grad box Y with standalone
    # riesz/dealiased_product calls in a different composition order
    grid = grid2
    n = grid.n
    G = random_jacobian(grid, rng, scale=0.5, band=4)
    boxY = 0.5 * random_vector(grid, rng, band=4)
    H = grid.jacobian(boxY)
    got = null_form_gradient(grid, G, boxY)
    scale = max(np.abs(got).max(), 1e-30)
    for a in range(n):
        for b in range(n):
            acc = np.zeros(grid.shape)
            for k in range(n):
                bracket = np.zeros(grid.shape)
                for l in range(n):
                    bracket += dealiased_product(grid, [G[l, a], H[l, k]])
                    bracket -= dealiased_product(grid, [G[l, k], H[l, a]])
                bracket -= bracket.mean()
                acc += grid.riesz(grid.riesz(bracket, k), b)
            assert np.abs(acc - got[a, b]).max() <= 1e-11 * scale


def test_null_form_bilinear(grid2, rng):
    G1 = random_jacobian(grid2, rng, scale=0.3)
    G2 = random_jacobian(grid2, rng, scale=0.3)
    B1, B2 = (0.3 * random_vector(grid2, rng) for _ in range(2))
    lhs = null_form_gradient(grid2, 2.0 * G1 + 0.5 * G2, B1)
    rhs = 2.0 * null_form_gradient(grid2, G1, B1) + 0.5 * null_form_gradient(grid2, G2, B1)
    assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(lhs).max(), 1e-30)
    lhs = null_form_gradient(grid2, G1, 2.0 * B1 - 0.5 * B2)
    rhs = 2.0 * null_form_gradient(grid2, G1, B1) - 0.5 * null_form_gradient(grid2, G1, B2)
    assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(lhs).max(), 1e-30)


def test_null_form_is_divergence_free(grid2, grid3, rng):
    # W is the curl of the flux read through Riesz multipliers, so div W
    # vanishes up to rounding, in 2D and in 3D
    for grid in (grid2, grid3):
        G = random_jacobian(grid, rng, scale=0.5)
        boxY = 0.5 * random_vector(grid, rng)
        W = physical_null_form(grid, G, boxY)
        scale = np.abs(grid.jacobian(W)).max()
        assert np.abs(grid.divergence(W)).max() <= 1e-14 * scale


# -- compatibility ---------------------------------------------------------------


def test_compatibility_zero_displacement(grid2, rng):
    psi = random_mean_free(grid2, rng, band=4)
    dpsi = grid2.jacobian(psi)
    g = np.stack([dpsi[1], -dpsi[0]])
    data = InitialData(np.zeros((2,) + grid2.shape), g)
    r1, r2 = compatibility_residuals(grid2, data)
    assert r1 <= 1e-12
    assert r2 <= 1e-12 * np.abs(g).max()


def test_compatibility_incompatible_example(grid2):
    x = grid2.coords
    f = np.stack([np.sin(x[0]), np.zeros(grid2.shape)])
    data = InitialData(f, np.zeros_like(f))
    r1, r2 = compatibility_residuals(grid2, data)
    assert abs(r1 - 1.0) <= 1e-12
    assert r2 == 0.0


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_velocity_residual_matches_pointwise_formula(n, size, rng):
    # g is not divergence-free, so r2 is O(1); the oracle evaluates
    # det(grad X) tr(grad X^-1 grad g) pointwise on the same fine lattice
    grid = Grid(n, size)
    f = make_shear_data(grid, 5e-2, seed=3, band=2).f
    g = random_vector(grid, rng, band=size // 4)
    _, r2 = compatibility_residuals(grid, InitialData(f, g))
    gradX = grid.jacobian(f) + np.eye(n).reshape((n, n) + (1,) * n)
    M = np.moveaxis(pad_to_fine(grid, gradX, 2), (0, 1), (-2, -1))
    A = np.moveaxis(pad_to_fine(grid, grid.jacobian(g), 2), (0, 1), (-2, -1))
    pointwise = np.linalg.det(M) * np.trace(np.linalg.solve(M, A), axis1=-2, axis2=-1)
    assert r2 >= 0.1
    assert abs(r2 - np.abs(pointwise).max()) <= 1e-12 * r2


@pytest.mark.parametrize("n, size", [(2, 64), (3, 16)])
def test_compatibility_residuals_peak_memory(n, size):
    # grad f (grad X in place) and grad g share one buffer on the pad-2 lattice,
    # each placed from its spectrum, grad g once r1 is read: 4.17 (2D) and 3.89
    # (3D) samples of G here, 5.76 and 5.35 with G kept alive and grad X
    # stacked a second time
    grid = Grid(n, size)
    data = make_shear_data(grid, 5e-3, seed=0)
    tracemalloc.start()
    try:
        compatibility_residuals(grid, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * fine_sample_bytes(n, size)


def test_shear_data_zero_amplitude(grid2):
    data = make_shear_data(grid2, 0.0, seed=1)
    assert np.abs(data.f).max() == 0.0
    r1, r2 = compatibility_residuals(grid2, data)
    assert r1 <= 1e-14 and r2 <= 1e-14


def test_shear_data_composition_n3(grid3):
    data = make_shear_data(grid3, 1e-2, seed=3, band=1)
    r1, r2 = compatibility_residuals(grid3, data)
    assert r1 <= 1e-10
    assert r2 <= 1e-9


def test_shear_data_rejects_negative_amplitude(grid2):
    with pytest.raises(ValueError):
        make_shear_data(grid2, -1.0, seed=0)


def test_shear_jacobian_is_curl_compatible(grid2):
    data = make_shear_data(grid2, 5e-2, seed=4)
    G = grid2.jacobian(data.f)
    assert curl_compatibility_residual(grid2, G) <= 1e-10


# -- pressure ---------------------------------------------------------------------


def random_spectra(grid, rng, samples, scale=1.0, band=None):
    """Half spectra (samples, n) + spectral_shape of random mean-free vector fields."""
    band = grid.size // 4 if band is None else band
    return np.stack([grid.fft(scale * random_vector(grid, rng, band=band)) for _ in range(samples)])


def test_pressure_zero_forcing(grid2, rng):
    Yh = random_spectra(grid2, rng, 1, scale=0.1)
    res = recover_pressure(grid2, Yh, np.zeros_like(Yh))
    assert res.shape == (1,) and res[0] == 0.0


def test_pressure_gradient_case(grid2, rng):
    phi = random_mean_free(grid2, rng, band=4)
    boxYh = grid2.fft(grid2.jacobian(phi))[None]
    res = recover_pressure(grid2, np.zeros_like(boxYh), boxYh)
    assert res[0] <= 1e-12


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_recover_pressure_batch_matches_per_sample_bitwise(rng, n, size):
    grid = Grid(n, size)
    Yh = random_spectra(grid, rng, 3, scale=0.1)
    boxYh = random_spectra(grid, rng, 3)
    res = recover_pressure(grid, Yh, boxYh)
    assert res.shape == (3,)
    for m in range(3):
        one = slice(m, m + 1)
        assert res[one].tobytes() == recover_pressure(grid, Yh[one], boxYh[one]).tobytes()


@pytest.mark.parametrize("n, size, samples", [(2, 32, 3), (3, 8, 2)])
def test_recover_pressure_matches_batched_oracle_bitwise(rng, n, size, samples):
    # a row of G on the fine lattice at a time, against all of G at once
    grid = Grid(n, size)
    Yh, boxYh = (grid.fft(rng.standard_normal((samples, n) + grid.shape)) for _ in range(2))
    got = recover_pressure(grid, Yh, boxYh)
    assert got.tobytes() == batched_recover_pressure(grid, Yh, boxYh).tobytes()


@pytest.mark.parametrize("n, size, samples", [(2, 64, 4), (3, 16, 1)])
def test_recover_pressure_peak_memory_is_one_row_of_g(rng, n, size, samples):
    # one chunk of run_one's diagnostics loop
    grid = Grid(n, size)
    Yh, boxYh = (grid.fft(rng.standard_normal((samples, n) + grid.shape)) for _ in range(2))
    tracemalloc.start()
    try:
        recover_pressure(grid, Yh, boxYh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = samples * n * (3 * size // 2) ** n * 8  # n real fields on the pad-3/2 lattice
    assert peak < 5 * vector  # 4.2 (2D) and 4.4 (3D) here, 6.2 and 7.3 with all of G at once


def test_recover_pressure_zero_forcing_sample_in_batch(grid2, rng):
    # RuntimeWarning is an error under pytest: 0/0 must not be evaluated
    Yh = random_spectra(grid2, rng, 3, scale=0.1)
    boxYh = random_spectra(grid2, rng, 3, band=8)
    boxYh[1] = 0.0
    res = recover_pressure(grid2, Yh, boxYh)
    assert res[1] == 0.0
    assert res[0] > 0.0 and res[2] > 0.0


def test_recover_pressure_matches_pad_two_products(grid2, grid3, rng):
    # the pad-3/2 lattice resolves the quadratic products exactly: the
    # balance assembled from pad-2 dealiased_product calls agrees to rounding
    for grid in (grid2, grid3):
        n = grid.n
        Y, boxY = 0.1 * random_vector(grid, rng, band=grid.size // 4), random_vector(grid, rng)
        G = grid.jacobian(Y)
        w = boxY.copy()
        for b in range(n):
            for l in range(n):
                w[b] += dealiased_product(grid, [G[l, b], boxY[l]])
        w -= w.mean(axis=grid.axes, keepdims=True)
        res_ref = grid.l2(grid.leray_project(w)) / grid.l2(w)
        res = recover_pressure(grid, grid.fft(Y)[None], grid.fft(boxY)[None])[0]
        assert abs(res - res_ref) <= 1e-12 * res_ref


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_recover_pressure_matches_physical_oracle(rng, n, size):
    # white-noise box: its Nyquist lines, planes and corners carry content
    grid = Grid(n, size)
    Y = random_spectra(grid, rng, 2, scale=0.1)
    boxY = rng.standard_normal((2, n) + grid.shape)
    got = recover_pressure(grid, Y, grid.fft(boxY))
    for m in range(2):
        _, want = physical_recover_pressure(grid, grid.jacobian_of_spectrum(Y[m]), boxY[m])
        assert abs(got[m] - want) <= 1e-13 * want


# -- pointwise algebra -------------------------------------------------------------


def test_inverse_pointwise_identity_plus_small(grid2, rng):
    G = random_jacobian(grid2, rng, scale=1e-2)
    M = G.copy()
    for a in range(2):
        M[a, a] += 1.0
    Minv = inverse_pointwise(M, det_pointwise(M))[0]
    prod = np.einsum("ab...,bc...->ac...", M, Minv)
    eye = np.eye(2).reshape(2, 2, 1, 1)
    assert np.abs(prod - eye).max() <= 1e-12


def test_inverse_pointwise_rejects_degenerate(grid2):
    x = grid2.coords
    M = np.zeros((2, 2) + grid2.shape)
    M[0, 0] = 1.0 + np.cos(x[0])  # det hits 0
    M[1, 1] = 1.0
    with pytest.raises(ValueError, match="grid point"):
        inverse_pointwise(M, det_pointwise(M))


def test_det_pointwise_matches_numpy(grid3, rng):
    A = rng.normal(size=(3, 3))
    field = constant_field(grid3, A)
    assert np.allclose(det_pointwise(field), np.linalg.det(A), rtol=1e-12)


def hand_det(M):
    """Pointwise determinant written out by hand in 2D and 3D (the reference)."""
    if M.shape[0] == 2:
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def hand_cofactors(M):
    """Pointwise cofactors with the 1x1 and 2x2 minors written out (the reference)."""
    n = M.shape[0]
    cof = np.empty_like(M)
    for a in range(n):
        for b in range(n):
            rows = [r for r in range(n) if r != a]
            cols = [c for c in range(n) if c != b]
            if n == 2:
                minor = M[rows[0], cols[0]]
            else:
                minor = (
                    M[rows[0], cols[0]] * M[rows[1], cols[1]]
                    - M[rows[0], cols[1]] * M[rows[1], cols[0]]
                )
            cof[a, b] = (-1) ** (a + b) * minor
    return cof


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_det_and_cofactors_match_hand_expansions_bitwise(grid_name, request, rng):
    grid = request.getfixturevalue(grid_name)
    M = rng.standard_normal((grid.n, grid.n) + grid.shape)
    assert det_pointwise(M).tobytes() == hand_det(M).tobytes()
    assert cofactor_matrix(M).tobytes() == hand_cofactors(M).tobytes()


def parent_inverse(M):
    """The inverse as it was built before: det and cofactors from separate calls."""
    return np.swapaxes(cofactor_matrix(M), 0, 1) / det_pointwise(M)


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_inverse_pointwise_bitwise_with_cofactors_built_once(grid_name, request, rng):
    grid = request.getfixturevalue(grid_name)
    n = grid.n
    M = 0.05 * rng.standard_normal((n, n) + grid.shape) + np.eye(n).reshape((n, n) + (1,) * n)
    Minv, cof, det = inverse_pointwise(M, det_pointwise(M))
    assert Minv.tobytes() == parent_inverse(M).tobytes()
    assert cof.tobytes() == cofactor_matrix(M).tobytes()
    assert det.tobytes() == det_pointwise(M).tobytes()
