"""Fixed-point construction of the elastodynamic displacement trajectory.

The unknown is the displacement Y sampled on a uniform time grid, iterated
through

    Y  <-  V(t)(P f, P g)  +  boxinv(W(G, H))  +  Z(E(G)),   G = grad Y,

with boxY carried exactly alongside and H = grad boxY: the free-wave term
contributes nothing to it, the Duhamel term contributes its own forcing W,
and the curl-free displacement Z its finite-difference box.  The iterate is
the half spectra of Y, d_t Y and box Y.  Every term is a Fourier multiplier
but the products in W and Z, so an iteration transforms only on the product
lattice: G and H go there straight from i dfreq_b Y_hat_a, and the bracket
and the minor sum come back as truncated spectra.  The stopping rule reads
successive differences of G = grad Y in the sup-in-time dyadic n/2 norm from
the spectra of Y.  The solve returns the spectra; nothing after it forms
a physical trajectory.
"""

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diagnostics import gradient_besov_sup
from .elastic import compatibility_residuals, curl_free_displacement, minor_sum_total, null_form
from .spectral import Grid, jacobian_on_fine
from .waves import TimeGrid, box_trajectory, duhamel_trajectory, free_wave, time_derivative

COMPATIBILITY_TOL = 1e-8
DIVERGING_RATIOS = 3  # successive contraction ratios above 1 that end the iteration


def compatible(r1, r2):
    """Whether both compatibility residuals are within tolerance; NaN is not."""
    return r1 <= COMPATIBILITY_TOL and r2 <= COMPATIBILITY_TOL


@dataclass
class PicardState:
    """Half spectra of the displacement trajectory, its time derivative and exact d'Alembertian."""

    grid: Grid
    tg: TimeGrid
    Yh: np.ndarray  # (steps+1, n) + grid.spectral_shape
    dYh: np.ndarray  # spectrum of d_t Y, same shape
    boxYh: np.ndarray  # spectrum of box Y, same shape

    @cached_property
    def G(self):
        """grad Y, (steps+1, n, n) + grid.shape, for the benchmark's correctness gate.

        No library path reads it: the pipeline forms G one chunk at a time.
        """
        return self.grid.jacobian_of_spectrum(self.Yh)


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
    """Free-wave displacement trajectory seeded from Leray-projected data.

    Y(t) per mode is cos(t|k|) P f + sin(t|k|)/|k| P g, and dY is the exact
    propagator derivative; box Y vanishes identically.
    """
    grid.require_mean_free(data.f, "initial displacement")
    grid.require_mean_free(data.g, "initial velocity")
    Pf, Pg = grid.leray_project(data.f), grid.leray_project(data.g)
    Yh, dYh = free_wave(grid, Pf, Pg, tg.times, derivative=True)
    return PicardState(grid, tg, Yh, dYh, np.zeros_like(Yh))


def picard_map(grid, state, free):
    """One application of the fixed-point map to a trajectory state.

    ``free`` is the precomputed free-wave seed (the data-dependent term of
    the map, identical at every iteration).
    """
    if free.tg != state.tg:
        raise ValueError("state and free seed live on different time grids")
    tg = state.tg
    # one lattice for the null form and the minors: products of degree n
    # (the top minor) are alias-free at pad (n + 1) / 2, the 3/2 rule in 2D
    pad = (grid.n + 1) / 2
    Wh = np.empty_like(state.Yh)
    Zh = np.empty_like(state.Yh)
    chunk = grid.samples_per_chunk()
    forced = state is not free  # the free seed's box Y, so its forcing W, is 0
    for m0 in range(0, tg.nsamples, chunk):
        c = slice(m0, min(m0 + chunk, tg.nsamples))
        Gf = jacobian_on_fine(grid, state.Yh[c], pad)
        if forced:  # H = grad box Y is a temporary, freed before the minors accumulate
            Wh[c] = np.moveaxis(
                null_form(grid, Gf, jacobian_on_fine(grid, state.boxYh[c], pad)), 0, 1)
        Zh[c] = np.moveaxis(curl_free_displacement(grid, Gf), 0, 1)

    Yh = free.Yh + Zh
    dYh = free.dYh + time_derivative(tg, Zh)
    boxYh = box_trajectory(grid, tg, Zh)
    if forced:
        boxYh += Wh
        for a in range(grid.n):
            duh, dduh = duhamel_trajectory(grid, tg, Wh[:, a], derivative=True)
            Yh[:, a] += duh
            dYh[:, a] += dduh
    return PicardState(grid, tg, Yh, dYh, boxYh)


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as ``reason``
def picard_solve(grid, data, cfg, check_compatibility=True):
    """Iterate the fixed-point map from the free-wave seed until contraction.

    Non-convergence within ``picard_max_iter`` is reported on the result,
    not raised: probing the breakdown amplitude is a supported experiment.
    A delta or scale that is not finite ends the iteration at once, and so
    do three successive contraction ratios above 1, both with ``reason``
    set: the iterates are diverging.
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
    state = free
    ratios = []
    deltas = []
    converged = False
    reason = ""
    iterations = 0
    for iterations in range(1, cfg.picard_max_iter + 1):
        new = picard_map(grid, state, free)
        delta = gradient_besov_sup(grid, new.Yh - state.Yh, s)
        if deltas:
            ratios.append(delta / deltas[-1] if deltas[-1] > 0 else 0.0)
        deltas.append(delta)
        state = new
        scale = gradient_besov_sup(grid, state.Yh, s)
        if not (math.isfinite(delta) and math.isfinite(scale)):
            reason = f"non-finite Picard delta {delta} (scale {scale}) at iteration {iterations}"
            break
        if delta <= cfg.picard_tol * max(scale, 1e-300) or (delta == 0.0 and scale == 0.0):
            converged = True
            break
        recent = ratios[-DIVERGING_RATIOS:]
        if len(recent) == DIVERGING_RATIOS and min(recent) > 1.0:
            last = ", ".join(f"{r:.3g}" for r in recent)
            reason = f"diverging Picard iteration: ratios {last} above 1 at iteration {iterations}"
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
    trace = sum(G[a, a] for a in range(grid.n))
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
