"""Built-in invariant suites at small grid sizes, runnable without pytest."""

import numpy as np

from .config import RunConfig
from .diagnostics import pairwise_sq_dists, two_variation_from_dists
from .elastic import compatibility_residuals, make_shear_data, minor_sum_total
from .picard import picard_solve, trace_constraint_residual
from .spectral import Grid, random_mean_free
from .waves import TimeGrid, duhamel, free_wave


def _random_jacobian(grid, rng, scale=1.0):
    Y = np.stack([scale * random_mean_free(grid, rng, band=grid.size // 4) for _ in range(grid.n)])
    return grid.jacobian(Y)


def suite_spectral(seeds=10):
    worst = 0.0
    for n, size in ((2, 32), (3, 16)):
        grid = Grid(n, size)
        rng = np.random.default_rng(1234)
        for _ in range(seeds):
            u = random_mean_free(grid, rng)
            v = np.stack([random_mean_free(grid, rng) for _ in range(n)])
            riesz2 = sum(grid.riesz(grid.riesz(u, i), i) for i in range(n))
            worst = max(worst, float(np.abs(riesz2 + u).max()))
            pv = grid.leray_project(v)
            worst = max(worst, np.abs(grid.leray_project(pv) - pv).max())
            worst = max(worst, np.abs(grid.divergence(pv)).max() / grid.l2(v))
            phi = random_mean_free(grid, rng)
            worst = max(worst, np.abs(grid.leray_project(grid.gradient(phi))).max())
            parts = sum(grid.dyadic_project(u, j) for j in range(grid.nbands))
            worst = max(worst, np.abs(parts - u).max())
    return worst <= 1e-12, f"max error {worst:.2e}"


def suite_minors(count=50):
    worst = 0.0
    rng = np.random.default_rng(99)
    for n in (2, 3):
        grid = Grid(n, 8)
        for _ in range(count):
            A = rng.normal(size=(n, n))
            field = A.reshape((n, n) + (1,) * n) * np.ones(grid.shape)
            det = np.linalg.det(np.eye(n) + A)
            expansion = 1.0 + np.trace(A) + float(minor_sum_total(grid, field).ravel()[0])
            worst = max(worst, abs(det - expansion) / max(abs(det), 1.0))
    return worst <= 1e-12, f"max relative error {worst:.2e}"


def suite_propagators():
    grid = Grid(2, 32)
    x = grid.coords
    f = np.cos(2 * x[0])
    out = free_wave(grid, f, np.zeros(grid.shape), np.pi / 2)
    err = float(np.abs(out + f).max())
    g = np.cos(x[0])
    out = free_wave(grid, np.zeros(grid.shape), g, np.pi)
    err = max(err, float(np.abs(out).max()))
    # Duhamel order check against the closed form (1 - cos t) cos(x)
    errs = []
    for steps in (32, 64):
        tg = TimeGrid(np.pi / steps, steps)
        F = np.broadcast_to(g, (steps + 1,) + grid.shape)
        got = duhamel(grid, tg, F, steps)
        errs.append(float(np.abs(got - 2.0 * g).max()))
    order = np.log2(errs[0] / errs[1])
    ok = err <= 1e-10 and abs(order - 2.0) < 0.2
    return ok, f"closed-form error {err:.2e}, quadrature order {order:.2f}"


def suite_compatibility(seeds=5):
    worst = (0.0, 0.0)
    for n, size, band in ((2, 32, 2), (3, 16, 1)):
        grid = Grid(n, size)
        for seed in range(seeds):
            data = make_shear_data(grid, 1e-2, seed=seed, band=band)
            r1, r2 = compatibility_residuals(grid, data)
            worst = (max(worst[0], r1), max(worst[1], r2))
    ok = worst[0] <= 1e-10 and worst[1] <= 1e-9
    return ok, f"residuals ({worst[0]:.2e}, {worst[1]:.2e})"


def suite_variation(paths=40):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(paths):
        m = int(rng.integers(2, 11))
        path = rng.normal(size=(m, 3))
        d2 = pairwise_sq_dists(path)
        got = two_variation_from_dists(d2)
        best = _brute_force_variation(d2)
        worst = max(worst, abs(got - best))
    return worst == 0.0, f"max deviation from brute force {worst:.2e}"


def _brute_force_variation(d2):
    from itertools import combinations

    m = d2.shape[0]
    interior = range(1, m - 1)
    best = 0.0
    for r in range(m - 1):
        for subset in combinations(interior, r):
            chain = [0, *subset, m - 1]
            total = 0.0
            for i in range(len(chain) - 1):
                total = total + d2[chain[i], chain[i + 1]]
            best = max(best, total)
    return float(np.sqrt(best))


def suite_fixed_point():
    grid = Grid(2, 16)
    data = make_shear_data(grid, 1e-2, seed=3, band=2)
    cfg = RunConfig(
        dimension=2, grid_n=16, epsilon=1e-2, t_end=0.5, dt=1 / 32, picard_tol=1e-9
    )
    result = picard_solve(grid, data, cfg)
    res = max(
        trace_constraint_residual(grid, result.state.G[m])
        for m in range(0, len(result.state.G), 4)
    )
    ok = result.converged and res <= 10 * cfg.picard_tol
    return ok, f"converged={result.converged}, constraint residual {res:.2e}"


SUITES = (
    ("spectral-calculus", suite_spectral),
    ("minor-algebra", suite_minors),
    ("propagators", suite_propagators),
    ("compatibility-generators", suite_compatibility),
    ("variation-norm", suite_variation),
    ("picard-fixed-point", suite_fixed_point),
)


def run_selftest(out=print):
    ok_all = True
    for name, fn in SUITES:
        ok, detail = fn()
        ok_all = ok_all and ok
        out(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok_all
