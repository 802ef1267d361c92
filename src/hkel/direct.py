"""Pressure-projection leapfrog stepper, the cross-validation oracle.

Advances Y directly with acceleration a = lap(Y) - (grad X)^-T grad p,
where the mean-zero pressure enforces the second time derivative of
log det(grad X) to vanish:

    tr(Minv grad a) = tr((Minv grad dY)^2),   Minv = (grad X)^-1.

The Piola identity sum_a d_a cof(grad X)[b, a] = 0 puts the pressure
equation, times det(grad X), in divergence form div(K grad p) with the
symmetric K = det Minv Minv^T, formed once per step.  Richardson iteration
preconditioned with the constant-coefficient inverse Laplacian solves it,
contracting geometrically while the deformation stays small.  The iterate
is the half spectrum of p, which a step keeps as the next one's warm start;
an iteration transforms grad p back and K grad p forward, n fields each.
Products here are plain collocation products: the coefficients are
rational in grad Y, so exact dealiasing does not apply, and the oracle's
error budget is O(dt^2) plus spectral tails either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .elastic import det_residual, inverse_pointwise
from .picard import picard_solve
from .waves import _central_velocity, _end_second_difference, _last_velocity, _second_difference


@dataclass
class DirectState:
    """Leapfrog state: current and previous displacement plus bookkeeping."""

    Y: np.ndarray
    velocity: np.ndarray
    Y_prev: np.ndarray = None
    accel: np.ndarray = None
    pressure: np.ndarray = None  # half spectrum, the next pressure solve's warm start
    iterations: int = 0
    # Y's half spectrum, Jacobian and Laplacian from run_direct, and on the
    # initial state the velocity's half spectrum: the next step reads them
    # instead of transforming again, and adds I to G in place
    Yh: np.ndarray = field(default=None, init=False, repr=False)
    G: np.ndarray = field(default=None, init=False, repr=False)
    lapY: np.ndarray = field(default=None, init=False, repr=False)
    velocity_h: np.ndarray = field(default=None, init=False, repr=False)


@dataclass
class DirectRun:
    Yh: np.ndarray  # half spectra of the displacement, (steps+1, n) + grid.spectral_shape
    dYh: np.ndarray  # of the central-difference velocity, same shape
    boxYh: np.ndarray  # of the finite-difference box of Y, same shape
    pressure_iterations: list = field(default_factory=list)
    det_drift: float = 0.0  # max over the samples of det_residual(grad Y)


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


def solve_pressure(grid, gradX, lapY, vh, p0h, tol, max_iter):
    """Mean-zero pressure from the constraint's second time derivative.

    The constraint tr(Minv grad a) = tr(W^2), W = Minv grad v, times det is
    div(K grad p) = det b, with K = det Minv Minv^T and, by the Piola
    identity, det b = div(cof^T lap Y) - det tr(W^2).  Richardson iteration
    p_hat <- p_hat - |xi|^-2 r_hat runs on the half spectrum of p, with r_hat
    that of det b - div(K grad p) on the mean-free physical frequency window
    (unpaired Nyquist-plane content is collocation noise outside the
    operator's range), its norm by Parseval.  ``gradX`` is grad X, ``lapY``
    the Laplacian of the displacement, ``vh`` the half spectrum of the
    velocity and ``p0h`` that of the warm start (or None).
    Returns (p_hat, Minv^T grad p, iterations); raises on stagnation
    with the observed contraction factor.
    """
    n = grid.n
    Minv, cof, det = inverse_pointwise(gradX)
    W = _mat_mat(Minv, grid.jacobian_of_spectrum(vh))
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


def _acceleration(grid, state, velocity, p0h, tol, max_iter):
    """Leapfrog acceleration lap(Y) - (grad X)^-T grad p, from one transform of Y."""
    Yh = grid.fft(state.Y) if state.Yh is None else state.Yh
    gradX = grid.jacobian_of_spectrum(Yh) if state.G is None else state.G
    for a in range(grid.n):  # in place: grad X = I + G, the values det_residual formed
        gradX[a, a] += 1.0
    lapY = grid.ifft(Yh * (-grid.k2)) if state.lapY is None else state.lapY
    vh = grid.fft(velocity) if state.velocity_h is None else state.velocity_h
    ph, MinvT_grad_p, iters = solve_pressure(grid, gradX, lapY, vh, p0h, tol, max_iter)
    return lapY - MinvT_grad_p, ph, iters


def direct_step(grid, state, dt, tol, max_iter):
    """One leapfrog step; the velocity estimate is second-order accurate."""
    first = state.Y_prev is None
    vel = state.velocity if first else (state.Y - state.Y_prev) / dt + 0.5 * dt * state.accel
    accel, ph, iters = _acceleration(grid, state, vel, state.pressure, tol, max_iter)
    if first:
        Y_new, Y_prev = state.Y + dt * vel + 0.5 * dt**2 * accel, state.Y.copy()
    else:
        Y_new, Y_prev = 2.0 * state.Y - state.Y_prev + dt**2 * accel, state.Y
    return DirectState(Y_new, None, Y_prev, accel, ph, iters)


def run_direct(grid, data, cfg):
    """Integrate to t_end; returns the half spectra of Y, d_t Y and box Y and the det drift.

    Velocity and box are differenced on the physical samples before any
    transform, whose rounding the box's 1/dt^2 would amplify.  They stream:
    as each step lands, the sample before it gets its central differences
    from the last few physical samples, which are all the run keeps of Y,
    and each spectrum is written once into the preallocated outputs.
    """
    cfg.require_grid(grid)
    tg = cfg.time_grid()
    Yh, dYh, boxYh = (np.empty((tg.nsamples, grid.n) + grid.spectral_shape, dtype=complex)
                      for _ in range(3))
    state = DirectState(data.f.copy(), data.g.copy(), None, None, None)
    dYh[0] = state.velocity_h = grid.fft(data.g)
    Y, lapY = [], []  # the last four samples and their Laplacians
    iters, drifts = [], []
    for m in range(tg.nsamples):
        if m:
            state = direct_step(grid, state, tg.dt, cfg.pressure_tol, cfg.pressure_max_iter)
            iters.append(state.iterations)
        Yh[m] = state.Yh = grid.fft(state.Y)
        state.G = grid.jacobian_of_spectrum(Yh[m])
        state.lapY = grid.ifft(Yh[m] * (-grid.k2))
        drifts.append(det_residual(state.G))
        Y, lapY = Y[-3:] + [state.Y], lapY[-3:] + [state.lapY]
        if m >= 2:
            dYh[m - 1] = grid.fft(_central_velocity(tg.dt, Y[-3], Y[-1]))
            boxYh[m - 1] = grid.fft(
                _second_difference(tg.dt, Y[-3], Y[-2], Y[-1]) - lapY[-2])
        if m == 3:
            boxYh[0] = grid.fft(_end_second_difference(tg.dt, *Y) - lapY[0])
    dYh[-1] = grid.fft(_last_velocity(tg.dt, Y[-1], Y[-2], Y[-3]))
    boxYh[-1] = grid.fft(_end_second_difference(tg.dt, *Y[::-1]) - lapY[-1])
    return DirectRun(Yh, dYh, boxYh, iters, max(drifts))


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
