"""Invariant checks shared by ``hkel selftest`` and the acceptance suite.

Each check returns (ok, detail), and the two that ``hkel selftest`` runs
smaller take their seed counts.  Seeds and random streams are fixed, so the
self-test's smaller run repeats the start of the acceptance run.
"""

from functools import partial
from itertools import combinations

import numpy as np

from .config import RunConfig
from .diagnostics import pairwise_sq_dists, two_variation_from_dists
from .elastic import (_accumulate_terms, _minor_terms, compatibility_residuals, det_residual,
                      make_shear_data)
from .picard import picard_solve
from .spectral import Grid, random_mean_free
from .waves import TimeGrid, box_trajectory, duhamel_trajectory, free_wave


def check_spectral(seeds=(75, 25)):
    """Riesz, Leray, divergence and dyadic identities on 2D N=32 and 3D N=16 fields."""
    worst = 0.0
    for grid, nseeds in zip((Grid(2, 32), Grid(3, 16)), seeds):
        for seed in range(nseeds):
            rng = np.random.default_rng(1000 + seed)
            u = random_mean_free(grid, rng)
            scale = np.abs(u).max()
            acc = sum(grid.riesz(grid.riesz(u, i), i) for i in range(grid.n))
            v = np.stack([random_mean_free(grid, rng) for _ in range(grid.n)])
            pv = grid.leray_project(v)
            phi = random_mean_free(grid, rng)
            parts = sum(grid.dyadic_project(u, j) for j in range(grid.nbands))
            worst = max(
                worst,
                np.abs(acc + u).max() / scale,
                np.abs(grid.leray_project(pv) - pv).max() / np.abs(v).max(),
                np.abs(grid.divergence(pv)).max() / grid.l2(v),
                np.abs(grid.leray_project(grid.jacobian(phi))).max() / np.abs(phi).max(),
                np.abs(parts - u).max() / scale,
            )
    return worst <= 1e-12, f"max error {worst:.2e}"


def cofactor_det(A):
    """Determinant by recursive first-row cofactor expansion (the oracle)."""
    if len(A) == 1:
        return A[0, 0]
    minors = (np.delete(np.delete(A, 0, 0), c, 1) for c in range(len(A)))
    return sum((-1) ** c * A[0, c] * cofactor_det(B) for c, B in enumerate(minors))


def check_minors():
    """1 + tr A + sum_k E_k(A) against det(I + A) and brute-force minors, per n in (2, 3)."""
    worst = 0.0
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(100):
            A = rng.normal(size=(n, n))
            minors = _accumulate_terms(A, _minor_terms(n, range(2, n + 1)))
            expansion = 1.0 + np.trace(A) + float(minors)
            blocks = [A[np.ix_(s, s)] for k in range(2, n + 1) for s in combinations(range(n), k)]
            brute = 1.0 + np.trace(A) + sum(cofactor_det(B) for B in blocks)
            det = cofactor_det(np.eye(n) + A)
            scale = max(1.0, abs(det))
            worst = max(worst, abs(det - expansion) / scale, abs(brute - expansion) / scale)
    return worst <= 1e-12, f"max rel error {worst:.2e}"


def check_propagators():
    """Free-wave closed forms, and the orders of Duhamel quadrature and of the box."""
    grid = Grid(2, 32)
    x = grid.coords
    zero = grid.fft(np.zeros(grid.shape))
    wave = grid.ifft(free_wave(grid, (grid.fft(np.cos(2 * x[0])), zero), np.pi / 2)[0])
    e_free = np.abs(wave + np.cos(2 * x[0])).max()
    wave = grid.ifft(free_wave(grid, (zero, grid.fft(np.cos(x[1]))), np.pi)[0])
    e_free = max(e_free, np.abs(wave).max())

    g = np.cos(x[0])
    errs = []
    for n in (64, 128):
        tg = TimeGrid(np.pi / n, n)
        F = np.broadcast_to(g, (tg.nsamples,) + grid.shape)
        duh = grid.ifft(duhamel_trajectory(grid, tg, grid.fft(F))[0])
        errs.append(float(np.abs(duh[n] - 2.0 * g).max()))
    duh_order = float(np.log2(errs[0] / errs[1]))

    rng = np.random.default_rng(3)
    F_poly = random_mean_free(grid, rng, band=4)
    errs_box = []
    for n in (32, 64):
        tg = TimeGrid(1.0 / n, n)
        F = np.cos(tg.times).reshape(-1, 1, 1) * F_poly
        box = grid.ifft(box_trajectory(tg, duhamel_trajectory(grid, tg, grid.fft(F))[0], grid.k2))
        errs_box.append(float(np.abs(box[n // 2] - F[n // 2]).max()))
    box_order = float(np.log2(errs_box[0] / errs_box[1]))

    ok = e_free <= 1e-10 and abs(duh_order - 2.0) <= 0.1 and box_order >= 1.9
    detail = f"duhamel order {duh_order:.3f}, box order {box_order:.2f}"
    return ok, f"free-wave error {e_free:.2e}, {detail}"


def check_compatibility(seeds=50):
    """Compatibility residuals of shear-composed data, n = 2 (N=64) and n = 3 (N=16)."""
    worst1 = worst2 = 0.0
    for n, size, band in ((2, 64, 2), (3, 16, 1)):
        grid = Grid(n, size)
        for seed in range(seeds):
            data = make_shear_data(grid, 1e-2, seed=seed, band=band)
            r1, r2 = compatibility_residuals(grid, data)
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
    ok = worst1 <= 1e-10 and worst2 <= 1e-9
    return ok, f"worst residuals ({worst1:.2e}, {worst2:.2e})"


def check_variation():
    """The dynamic-programming 2-variation equals the brute-force maximum, exactly."""
    rng = np.random.default_rng(55)
    exact = True
    for _ in range(100):
        m = int(rng.integers(2, 13))
        d2 = pairwise_sq_dists(rng.standard_normal((m, 3)))
        chains = ([0, *s, m - 1] for r in range(m - 1) for s in combinations(range(1, m - 1), r))
        best = max(sum(d2[i, j] for i, j in zip(c, c[1:])) for c in chains)
        exact = exact and (two_variation_from_dists(d2) == float(np.sqrt(best)))
    return exact, f"DP==brute force: {exact}"


def check_fixed_point():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=3, band=2)
    cfg = RunConfig(
        dimension=2, grid_n=16, epsilon=1e-2, t_end=0.5, dt=1 / 32, picard_tol=1e-9
    )
    result = picard_solve(grid, data, cfg)
    res = max(det_residual(G) for G in grid.jacobian_of_spectrum(result.state.Yh[::4]))
    ok = result.converged and res <= 10 * cfg.picard_tol
    return ok, f"converged={result.converged}, constraint residual {res:.2e}"


SUITES = (
    ("spectral-calculus", partial(check_spectral, seeds=(20, 10))),
    ("minor-algebra", check_minors),
    ("propagators", check_propagators),
    ("compatibility-generators", partial(check_compatibility, seeds=3)),
    ("variation-norm", check_variation),
    ("picard-fixed-point", check_fixed_point),
)


def run_selftest(out=print):
    ok_all = True
    for name, fn in SUITES:
        ok, detail = fn()
        ok_all = ok_all and ok
        out(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok_all
