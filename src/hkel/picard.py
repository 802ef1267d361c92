"""Fixed-point construction of the elastodynamic Jacobian trajectory.

The unknown is G = grad Y sampled on a uniform time grid, iterated through

    G  <-  V(t)(grad P f, grad P g)  +  boxinv(nullform(G, H))  +  RR E(G)

with H = box(G) carried exactly alongside: the free-wave term contributes
nothing, the Duhamel term contributes its own forcing, and the curl-free
term contributes its finite-difference box.  The stopping rule measures
successive differences in the sup-in-time dyadic n/2 norm.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import besov_sup
from .elastic import (
    compatibility_residuals,
    curl_free_gradient,
    minor_sum_total,
    null_form,
)
from .spectral import pad_to_fine
from .waves import (
    TimeGrid,
    box_trajectory,
    duhamel_trajectory,
    free_wave,
    time_derivative,
)

COMPATIBILITY_TOL = 1e-8


def compatible(r1, r2):
    """Whether both compatibility residuals are within tolerance; NaN is not."""
    return r1 <= COMPATIBILITY_TOL and r2 <= COMPATIBILITY_TOL


@dataclass
class PicardState:
    """Jacobian trajectory with its exact d'Alembertian and time derivative."""

    tg: TimeGrid
    G: np.ndarray  # (steps+1, n, n) + grid.shape
    H: np.ndarray  # box G, same shape
    dG: np.ndarray  # d_t G, same shape

    def copy(self):
        return PicardState(self.tg, self.G.copy(), self.H.copy(), self.dG.copy())


@dataclass
class PicardResult:
    state: PicardState
    iterations: int
    converged: bool
    ratios: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    wall_clock: float = 0.0
    reason: str = ""  # why the iteration stopped early, "" otherwise


def free_wave_state(grid, tg, data):
    """Free-wave Jacobian trajectory seeded from Leray-projected data.

    G(t) per mode is cos(t|k|) A_f + sin(t|k|)/|k| A_g with A = grad(P .),
    and dG is the exact propagator derivative; H vanishes identically.
    """
    n = grid.n
    grid.require_mean_free(data.f, "initial displacement")
    grid.require_mean_free(data.g, "initial velocity")
    Af = grid.jacobian(grid.leray_project(data.f))
    Ag = grid.jacobian(grid.leray_project(data.g))
    shape = (tg.nsamples, n, n) + grid.shape
    G = np.empty(shape)
    dG = np.empty(shape)
    for a in range(n):
        for b in range(n):
            G[:, a, b], dG[:, a, b] = free_wave(
                grid, Af[a, b], Ag[a, b], tg.times, derivative=True
            )
    return PicardState(tg, G, np.zeros(shape), dG)


def picard_map(grid, state, free):
    """One application of the fixed-point map to a trajectory state.

    ``free`` is the precomputed free-wave seed (the data-dependent term of
    the map, identical at every iteration).
    """
    if free.tg != state.tg:
        raise ValueError("state and free seed live on different time grids")
    tg = state.tg
    n = grid.n
    nsamples = tg.nsamples

    forcing = np.empty_like(state.G)
    C = np.empty_like(state.G)
    chunk = max(1, 2**18 // (4 * grid.npoints))  # ~16 samples at n=2, N=64
    for m0 in range(0, nsamples, chunk):
        m1 = min(m0 + chunk, nsamples)
        Gc = np.ascontiguousarray(np.moveaxis(state.G[m0:m1], 0, 2))
        Hc = np.ascontiguousarray(np.moveaxis(state.H[m0:m1], 0, 2))
        # one lattice for the null form and the minors: products of degree n
        # (the top minor) are alias-free at pad (n + 1) / 2, the 3/2 rule in 2D
        Gf = pad_to_fine(grid, Gc, (n + 1) / 2)
        forcing[m0:m1] = np.moveaxis(null_form(grid, Gc, Hc, G_fine=Gf), 2, 0)
        C[m0:m1] = np.moveaxis(curl_free_gradient(grid, Gc, G_fine=Gf), 2, 0)

    G = free.G + C
    dG = free.dG + time_derivative(tg, C)
    H = forcing + box_trajectory(grid, tg, C)
    for a in range(n):
        for b in range(n):
            duh, dduh = duhamel_trajectory(grid, tg, forcing[:, a, b], derivative=True)
            G[:, a, b] += duh
            dG[:, a, b] += dduh
    return PicardState(tg, G, H, dG)


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as ``reason``
def picard_solve(grid, data, cfg, check_compatibility=True):
    """Iterate the fixed-point map from the free-wave seed until contraction.

    Non-convergence within ``picard_max_iter`` is reported on the result,
    not raised: probing the breakdown amplitude is a supported experiment.
    A delta or scale that is not finite ends the iteration at once, with
    ``reason`` set: no later iterate can recover from it.
    """
    cfg.require_grid(grid)
    started = time.perf_counter()
    if check_compatibility:
        r1, r2 = compatibility_residuals(grid, data)
        if not compatible(r1, r2):
            raise ValueError(
                f"initial data violates compatibility: residuals ({r1:.2e}, {r2:.2e})"
            )
    tg = cfg.time_grid()
    s = grid.n / 2.0
    free = free_wave_state(grid, tg, data)
    state = free.copy()
    ratios = []
    deltas = []
    converged = False
    reason = ""
    iterations = 0
    for iterations in range(1, cfg.picard_max_iter + 1):
        new = picard_map(grid, state, free)
        delta = besov_sup(grid, new.G - state.G, s)
        if deltas:
            ratios.append(delta / deltas[-1] if deltas[-1] > 0 else 0.0)
        deltas.append(delta)
        state = new
        scale = besov_sup(grid, state.G, s)
        if not (math.isfinite(delta) and math.isfinite(scale)):
            reason = f"non-finite Picard delta {delta} (scale {scale}) at iteration {iterations}"
            break
        if delta <= cfg.picard_tol * max(scale, 1e-300) or (delta == 0.0 and scale == 0.0):
            converged = True
            break
    return PicardResult(
        state=state,
        iterations=iterations,
        converged=converged,
        ratios=ratios,
        deltas=deltas,
        wall_clock=time.perf_counter() - started,
        reason=reason,
    )


def trace_constraint_residual(grid, G):
    """||trace G + sum_k E_k(G)||_L2 at one sample (the elliptic identity)."""
    trace = G[0, 0].copy()
    for a in range(1, grid.n):
        trace += G[a, a]
    return grid.l2(trace + minor_sum_total(grid, G))


__all__ = [
    "PicardState",
    "PicardResult",
    "free_wave_state",
    "picard_map",
    "picard_solve",
    "compatible",
    "trace_constraint_residual",
    "COMPATIBILITY_TOL",
]
