"""Pressure-projection leapfrog stepper, the cross-validation oracle.

``run_direct``'s one loop advances Y with acceleration a = lap(Y) -
(grad X)^-T grad p, which ``direct_step`` forms at a sample; the mean-zero
pressure enforces the second time derivative of log det(grad X) to vanish:

    tr(Minv grad a) = tr((Minv grad dY)^2),   Minv = (grad X)^-1.

The Piola identity sum_a d_a cof(grad X)[b, a] = 0 puts the pressure
equation, times det(grad X), in divergence form div(K grad p) with the
symmetric K = det Minv Minv^T, formed once per step from the cofactors
whose first row also gives det.  Richardson iteration
preconditioned with the constant-coefficient inverse Laplacian solves it,
contracting geometrically while the deformation stays small, from the
polynomial through the last solves' half spectra of p, one step ahead; an
iteration transforms grad p back and K grad p forward, n fields each.  grad v
comes from the Jacobians of Y: the leapfrog's velocity is a difference of Y,
Y_1 = Y_0 + dt g + dt^2 a_0 / 2 and later dt^2 a_m-1 = Y_m - 2 Y_m-1 + Y_m-2.
So the run stores no velocity: it hands over the spectra of Y and box Y, and
``DirectRun.velocity`` differences Y's spectra where a reader asks for them.
Each sample's drift is ``det_residual(G)``, the constraint's residual that
the Picard diagnostics read too.
Products here are plain collocation products: the coefficients are
rational in grad Y, so exact dealiasing does not apply, and the oracle's
error budget is O(dt^2) plus spectral tails either way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elastic import det_residual, inverse_pointwise
from .picard import picard_solve
from .waves import (TimeGrid, _central_velocity, _end_second_difference, _gather,
                    _last_velocity, _second_difference)


# Points of the pressure warm start's extrapolation: direct2d's iterations
# by points, 1 to 7, read 1423, 1175, 958, 781, 533, 562, 617.
PRESSURE_HISTORY = 5


@dataclass
class DirectRun:
    """Half spectra of the leapfrog's Y and box Y; ``velocity`` forms d_t Y from Y's.

    The leapfrog steps positions only, so no velocity is stored.
    """

    tg: TimeGrid
    Yh: np.ndarray  # half spectra of the displacement, (steps+1, n) + grid.spectral_shape
    boxYh: np.ndarray  # of the finite-difference box of Y, same shape
    gh: np.ndarray  # of the initial velocity g, (n,) + grid.spectral_shape
    pressure_iterations: list  # the pressure solve's iterations, step by step
    drifts: np.ndarray  # det_residual(G) per sample
    det_drift: float  # max over the samples

    def velocity(self, samples, modes=None):
        """Half spectra of d_t Y at ``samples``, or their block at ``modes`` (``waves._gather``).

        ``time_derivative``'s stencils on the spectra of Y, with g's at sample 0.
        A slice's neighbours m - 1 and m + 1 are read as shifted slices of Y.
        """
        last, dt = len(self.Yh) - 1, self.tg.dt
        m = np.arange(last + 1)[samples]
        lo, hi = int(m[0] == 0), len(m) - int(m[-1] == last)
        inner = m[lo:hi]  # the central stencil's samples

        def at(k):
            return _gather(self.Yh, k, modes)

        step = samples.indices(last + 1)[2] if isinstance(samples, slice) else 0
        if step > 0 and len(inner):
            before, after = (slice(inner[0] + d, inner[-1] + d + 1, step) for d in (-1, 1))
        else:
            before, after = inner - 1, inner + 1
        block = self.Yh.shape[2:] if modes is None else np.shape(modes)
        out = np.empty((len(m), self.Yh.shape[1]) + block, self.Yh.dtype)
        _central_velocity(dt, at(before), at(after), out[lo:hi])
        if lo:
            out[0] = self.gh if modes is None else self.gh.reshape(len(self.gh), -1)[:, modes]
        if hi < len(m):
            out[-1] = _last_velocity(dt, *at(np.array([last, last - 1, last - 2])))
        return out

    def det_residuals(self, samples):
        """max |det(I + G) - 1| at ``samples``, as the run formed them."""
        return self.drifts[samples]


def _trace_product(Minv, A):
    """tr(Minv A) pointwise for matrix fields."""
    n = Minv.shape[0]
    return sum(Minv[a, b] * A[b, a] for a in range(n) for b in range(n))


def _matT_vec(M, v):
    """(M^T v)_a = sum_b M[b, a] v_b pointwise."""
    n = M.shape[0]
    return np.stack([sum(M[b, a] * v[b] for b in range(n)) for a in range(n)])


def _mat_mat(A, B):
    n = A.shape[0]
    return np.array([[sum(A[a, l] * B[l, b] for l in range(n)) for b in range(n)]
                     for a in range(n)])


def _extrapolate(spectra):
    """The polynomial through ``spectra`` (newest first, a step apart), one step on; or None."""
    k = len(spectra)
    return sum((-1) ** j * math.comb(k, j + 1) * s for j, s in enumerate(spectra)) if k else None


def solve_pressure(grid, gradX, lapY, gradv, p0h, tol, max_iter):
    """Mean-zero pressure from the constraint's second time derivative.

    The constraint tr(Minv grad a) = tr(W^2), W = Minv grad v, times det is
    div(K grad p) = det b, with K = det Minv Minv^T and, by the Piola
    identity, det b = div(cof^T lap Y) - det tr(W^2).  Richardson iteration
    p_hat <- p_hat - |xi|^-2 r_hat runs on the half spectrum of p, with r_hat
    that of det b - div(K grad p) on the mean-free physical frequency window
    (unpaired Nyquist-plane content is collocation noise outside the
    operator's range), its norm by Parseval.  ``gradX`` is grad X, ``lapY``
    the Laplacian of the displacement, ``gradv`` the velocity's Jacobian and
    ``p0h`` the warm start's half spectrum (or None).  Returns (p_hat,
    Minv^T grad p, iterations); raises on stagnation with the observed
    contraction factor.
    """
    n = grid.n
    Minv, cof, det = inverse_pointwise(gradX)
    W = _mat_mat(Minv, gradv)
    div = grid.idfreq * grid.phys_mask  # i d_a on the physical window
    Fh = grid.fft(np.concatenate([_matT_vec(cof, lapY), (det * _trace_product(W, W))[None]]))
    bh = (Fh[:n] * div).sum(axis=0) - Fh[n] * grid.phys_mask
    bh[(0,) * n] = 0.0
    bnorm = grid.spectral_l2(bh)
    if bnorm == 0.0:
        return np.zeros(grid.spectral_shape, complex), np.zeros((n,) + grid.shape), 0
    K = [[None] * n for _ in range(n)]  # K[a][c] and K[c][a] are one field
    for a in range(n):
        for c in range(a, n):
            K[a][c] = K[c][a] = det * sum(Minv[a, b] * Minv[c, b] for b in range(n))

    ph = p0h.copy() if p0h is not None else np.zeros(grid.spectral_shape, complex)
    prev_res = None
    for it in range(1, max_iter + 1):
        gradp = grid.ifft(ph * grid.idfreq)
        fluxh = grid.fft(np.stack([sum(K[a][c] * gradp[c] for c in range(n)) for a in range(n)]))
        rh = bh - (fluxh * div).sum(axis=0)
        res = grid.spectral_l2(rh)
        if res <= tol * bnorm:
            return ph, _matT_vec(Minv, gradp), it
        if prev_res is not None and res >= prev_res:
            raise RuntimeError(
                f"pressure iteration stagnated at step {it}: residual ratio "
                f"{res / prev_res:.3f} (deformation too large)"
            )
        prev_res = res
        ph -= rh * grid.inv_k2
    raise RuntimeError(
        f"pressure iteration exceeded {max_iter} steps; last contraction "
        f"{res / prev_res if prev_res else float('nan'):.3f}"
    )


def direct_step(grid, lapY, gradX, gradv, pressures, tol, max_iter):
    """The leapfrog's acceleration lap(Y) - (grad X)^-T grad p at one sample.

    ``pressures`` are the last solves' half spectra, newest first, through
    which the warm start extrapolates.  Returns (acceleration, pressures
    with this solve's in front, iterations).
    """
    ph, MinvT_grad_p, iters = solve_pressure(grid, gradX, lapY, gradv, _extrapolate(pressures),
                                             tol, max_iter)
    return lapY - MinvT_grad_p, ((ph,) + pressures)[:PRESSURE_HISTORY], iters


def run_direct(grid, data, cfg):
    """Integrate to t_end; returns the half spectra of Y and box Y and the det drifts.

    Each sample's spectrum, Jacobian G, Laplacian and grad X = I + G are
    formed once; the drift, ``det_residual(G)``, and the next step read them.
    The box is differenced on the physical samples before it is transformed,
    whose rounding its 1/dt^2 would amplify.  It streams: as each step
    lands, the sample before it gets its second difference from the last few
    physical samples, which are all the run keeps of Y, and each spectrum is
    written once into the preallocated outputs.  The velocity, a first
    difference, is formed from the spectra of Y where it is read.
    """
    cfg.require_grid(grid)
    tg = cfg.time_grid()
    dt, eye = tg.dt, np.eye(grid.n).reshape((grid.n, grid.n) + (1,) * grid.n)
    Yh, boxYh = (np.empty((tg.nsamples, grid.n) + grid.spectral_shape, dtype=complex)
                 for _ in range(2))
    gh = grid.fft(data.g)
    grad_g = grid.jacobian_of_spectrum(gh)
    Y, lapY, G = [data.f], [], []  # the last four samples, their Laplacians, three Jacobians
    pressures, iters, drifts = (), [], []
    for m in range(tg.nsamples):
        if m:
            if m == 1:
                gradv = grad_g
            elif m == 2:
                gradv = 2.0 * (G[-1] - G[-2]) / dt - grad_g
            else:
                gradv = (1.5 * G[-1] - 2.0 * G[-2] + 0.5 * G[-3]) / dt
            accel, pressures, it = direct_step(grid, lapY[-1], gradX, gradv, pressures,
                                               cfg.pressure_tol, cfg.pressure_max_iter)
            iters.append(it)
            Y = Y[-3:] + [Y[-1] + dt * data.g + 0.5 * dt**2 * accel if m == 1
                          else 2.0 * Y[-1] - Y[-2] + dt**2 * accel]
        Yh[m] = grid.fft(Y[-1])
        G = G[-2:] + [grid.jacobian_of_spectrum(Yh[m])]
        lapY = lapY[-3:] + [grid.ifft(Yh[m] * (-grid.k2))]
        gradX = G[-1] + eye
        drifts.append(det_residual(G[-1]))
        if m >= 2:
            boxYh[m - 1] = grid.fft(_second_difference(dt, Y[-3], Y[-2], Y[-1]) - lapY[-2])
        if m == 3:
            boxYh[0] = grid.fft(_end_second_difference(dt, *Y) - lapY[0])
    boxYh[-1] = grid.fft(_end_second_difference(dt, *Y[::-1]) - lapY[-1])
    return DirectRun(tg, Yh, boxYh, gh, iters, np.array(drifts), max(drifts))


def cross_validate(grid, data, cfg):
    """Compare the fixed-point and leapfrog solvers on the same data.

    Returns the sup-over-time L2 difference of grad Y, relative to the
    sup-over-time L2 size of the direct trajectory.  Only the Picard Y
    spectra stay alive while the leapfrog runs.
    """
    picard_Yh = picard_solve(grid, data, cfg).state.Yh
    direct_Yh = run_direct(grid, data, cfg).Yh
    # ||grad Y|| by Parseval: a mode of grad Y carries |d|^2 |Y_hat|^2
    scale = math.sqrt(grid.sample_sq_l2(direct_Yh, grid.dk2).max())
    sup = math.sqrt(grid.sample_sq_l2(picard_Yh - direct_Yh, grid.dk2).max())
    return sup / scale if scale > 0 else 0.0
