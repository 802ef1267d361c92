"""Fixed-point construction of the elastodynamic displacement trajectory.

The unknown is the displacement Y sampled on a uniform time grid, iterated
through

    Y  <-  V(t)(P f, P g)  +  boxinv(W(G, box Y))  +  Z(E(G)),   G = grad Y,

with boxY carried exactly alongside: the free-wave term contributes nothing
to it, the Duhamel term contributes its own forcing W, and the curl-free
displacement Z its finite-difference box.  The iterate is the half spectra
of Y, d_t Y and box Y.  Every term is a Fourier multiplier but the products
in W and Z, so an iteration transforms only on the product lattice: G goes
there straight from i dfreq_b Y_hat_a, and box Y, and the flux G^T box Y
and the minor sum come back as truncated spectra.  The stopping rule reads
successive differences of G = grad Y in the sup-in-time dyadic n/2 norm from
the spectra of Y.  The map consumes its state's three spectra and forms that
difference's band sums as each block of the new Y lands over the old one, so
the solve holds three trajectories, one chunk of G on the product lattice
and a bounded budget of block temporaries.  It returns the spectra; nothing
after it forms a physical trajectory.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diagnostics import _besov_of_bands, gradient_besov_sup
from .elastic import (_minor_sum_spectrum, compatibility_residuals, curl_free_displacement,
                      det_residual, null_form)
from .spectral import Grid, jacobian_on_fine
from .waves import (
    TimeGrid,
    _duhamel,
    _free_wave_rows,
    _gather,
    box_trajectory,
    free_wave,
    time_derivative,
)

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
    boxYh: np.ndarray  # spectrum of box Y, same shape; None on the free wave, where it is 0

    @cached_property
    def G(self):
        """grad Y, (steps+1, n, n) + grid.shape, for the benchmark's correctness gate.

        No library path reads it: the pipeline forms G one chunk at a time.
        """
        return self.grid.jacobian_of_spectrum(self.Yh)

    def velocity(self, samples, modes=None):
        """``waves._gather`` of the stored ``dYh``: the map forms d_t Y alongside Y, not from it."""
        return _gather(self.dYh, samples, modes)

    def det_residuals(self, samples):
        """max |det(I + G) - 1| at ``samples``, from G formed for them on the coarse lattice."""
        return [det_residual(G) for G in self.grid.jacobian_of_spectrum(self.Yh[samples])]


@dataclass
class PicardResult:
    state: PicardState
    iterations: int
    converged: bool
    ratios: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    reason: str = ""  # why the iteration stopped early, "" otherwise


def free_seed(grid, data):
    """Half spectra of P f and P g, which seed the free wave; both data must be mean-free."""
    grid.require_mean_free(data.f, "initial displacement")
    grid.require_mean_free(data.g, "initial velocity")
    return [grid.fft(grid.leray_project(u)) for u in (data.f, data.g)]


def picard_map(grid, state, seed):
    """One application of the fixed-point map to a trajectory state, and its delta.

    ``seed`` is ``free_seed``'s pair of spectra; each block of the free wave
    is formed from it as the block is assembled.  The map consumes ``state``:
    its Y_hat, d_t Y_hat and box Y_hat become the new ones, and the returned
    state holds those three buffers, but a new box Y_hat when ``state`` is the
    free wave (``boxYh`` None).  The chunks read the old Y_hat to place G, a
    row at a time, in one chunk-sized buffer that the map owns, write Z_hat
    into d_t Y_hat, which the map never reads, and W_hat into box Y_hat once
    the null form has placed each chunk's box Y.  Then each block of modes
    (``waves._free_wave_rows``: a row of the first spectral axis, split in
    3D when large) adds the free wave, the box of Z and Duhamel's integral of
    W, and writes the new Y_hat block over the old one once the block's band
    powers of their difference are summed.  So the map holds its state's three
    trajectories and, beyond them, one chunk of G and the null form's fields,
    then a bounded budget of block temporaries.  ``deltas`` are those sums
    read per sample as ``gradient_besov_norms`` of new minus old Y_hat at
    n/2, with its bits: the powers are formed as it forms them and added in
    its order.
    """
    tg, n = state.tg, grid.n
    # one lattice for the null form and the minors: products of degree n
    # (the top minor) are alias-free at pad (n + 1) / 2, the 3/2 rule in 2D
    pad = (n + 1) / 2
    forced = state.boxYh is not None  # the free wave's box Y, so its forcing W, is 0
    Yh, dYh = state.Yh, state.dYh
    boxYh = state.boxYh if forced else np.empty_like(Yh)
    # the map's lattice buffers, each placement written into them: one chunk
    # of G and, forced, the null form's flux P, one box Y component and one
    # product field; freed before the rows
    chunk = (min(grid.samples_per_chunk(), tg.nsamples),) + (int(pad * grid.size),) * n
    G = np.empty((n, n) + chunk)
    work = np.empty((n + 2,) + chunk) if forced else None
    for c in grid.chunks(tg.nsamples):
        m = c.stop - c.start
        Gf = jacobian_on_fine(grid, Yh[c], pad, out=G[:, :, :m])
        if forced:
            box = np.moveaxis(boxYh[c], 1, 0)
            boxYh[c] = np.moveaxis(null_form(grid, Gf, box, work[:, :m]), 0, 1)
        dYh[c] = np.moveaxis(curl_free_displacement(grid, Gf), 0, 1)
    del G, Gf, work

    # the band sums of (new - old) Y_hat per sample, flat: sample m's band j
    # at m (nbands + 1) + j + 1, the zero mode's at m (nbands + 1)
    bins = grid.nbands + 1
    sums = np.zeros(tg.nsamples * bins)
    offsets = bins * np.arange(tg.nsamples).reshape((-1,) + (1,) * (n - 1))
    for block, cosk, sink, (free_Yh, free_dYh) in _free_wave_rows(grid, tg.times, seed):
        Zh = dYh[block]
        box = box_trajectory(tg, Zh, grid.k2[block])
        new_dYh = time_derivative(tg, Zh) + free_dYh
        Zh += free_Yh
        if forced:
            Wh = boxYh[block]
            duh, dduh = _duhamel(tg, Wh, cosk, sink, grid.inv_absk[block])
            Wh += box
            Zh += duh
            new_dYh += dduh
        else:
            boxYh[block] = box
        power = (np.abs(Zh - Yh[block]) ** 2).sum(axis=1) * grid.dk2[block] * grid.parseval_weight
        np.add.at(sums, (offsets + (grid.band_of[block] + 1)).ravel(), power.ravel())
        Yh[block] = Zh
        dYh[block] = new_dYh
    s = grid.n / 2.0
    deltas = np.array([_besov_of_bands(grid, grid.band_l2_of_sums(m), s)
                       for m in sums.reshape(tg.nsamples, bins)])
    return PicardState(grid, tg, Yh, dYh, boxYh), deltas


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as ``reason``
def picard_solve(grid, data, cfg, check_compatibility=True):
    """Iterate the fixed-point map from the free wave until contraction.

    Non-convergence within ``picard_max_iter`` is reported on the result,
    not raised: probing the breakdown amplitude is a supported experiment.
    A delta or scale that is not finite ends the iteration at once, and so
    do three successive contraction ratios above 1, both with ``reason``
    set: the iterates are diverging.
    """
    cfg.require_grid(grid)
    if check_compatibility:
        r1, r2 = compatibility_residuals(grid, data)
        if not compatible(r1, r2):
            raise ValueError(
                f"initial data violates compatibility: residuals ({r1:.2e}, {r2:.2e})"
            )
    tg = cfg.time_grid()
    seed = free_seed(grid, data)
    # the free wave is the first state, its box Y 0 and not stored; each map
    # consumes its state's three spectra and forms the delta as its rows land
    state = PicardState(grid, tg, *free_wave(grid, seed, tg.times), None)
    ratios = []
    deltas = []
    converged = False
    reason = ""
    iterations = 0
    for iterations in range(1, cfg.picard_max_iter + 1):
        state, sample_deltas = picard_map(grid, state, seed)
        delta = float(np.max(sample_deltas))  # np.max keeps a NaN
        if deltas:
            ratios.append(delta / deltas[-1] if deltas[-1] > 0 else 0.0)
        deltas.append(delta)
        scale = gradient_besov_sup(grid, state.Yh, grid.n / 2.0)
        if not (math.isfinite(delta) and math.isfinite(scale)):
            reason = f"non-finite Picard delta {delta} (scale {scale}) at iteration {iterations}"
            break
        if delta <= cfg.picard_tol * max(scale, 1e-300):
            converged = True
            break
        recent = ratios[-DIVERGING_RATIOS:]
        if len(recent) == DIVERGING_RATIOS and min(recent) > 1.0:
            last = ", ".join(f"{r:.3g}" for r in recent)
            reason = f"diverging Picard iteration: ratios {last} above 1 at iteration {iterations}"
            break
    return PicardResult(state, iterations, converged, ratios, deltas, reason)


def trace_constraint_residual(grid, Yh):
    """||div Y + sum_k E_k(grad Y)||_L2 of one sample's half spectrum (the elliptic identity).

    ``Yh`` is (n,) + ``spectral_shape``.  The minors are summed where the map
    sums them, on its product lattice, and the norm is read in physical space.
    """
    n = grid.n
    div = sum(grid.idfreq[a] * Yh[a] for a in range(n))
    s = _minor_sum_spectrum(grid, jacobian_on_fine(grid, Yh[None], (n + 1) / 2))[0]
    return grid.l2(grid.ifft(div + s))


__all__ = [
    "PicardState",
    "PicardResult",
    "free_seed",
    "picard_map",
    "picard_solve",
    "compatible",
    "trace_constraint_residual",
    "COMPATIBILITY_TOL",
]
