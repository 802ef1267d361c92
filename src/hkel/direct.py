"""Pressure-projection leapfrog stepper, the cross-validation oracle.

Advances Y directly with acceleration a = lap(Y) - (grad X)^-T grad p,
where the mean-zero pressure enforces the second time derivative of
log det(grad X) to vanish:

    tr(Minv grad a) = tr((Minv grad dY)^2),   Minv = (grad X)^-1.

The variable-coefficient pressure problem is solved by Richardson
iteration preconditioned with the constant-coefficient inverse Laplacian,
which contracts geometrically while the deformation stays small.  The
iterate is the half spectrum of p, and so is the pressure a step keeps for
the next one's warm start; an iteration makes one transform call for
grad p, one each way for all n^2 derivatives of (grad X)^-T grad p, and one
for the residual spectrum, whose norm Parseval gives.  Products
here are plain collocation products: the coefficients are rational in
grad Y, so exact dealiasing does not apply, and the oracle's error budget
is O(dt^2) plus spectral tails either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .elastic import det_residual, inverse_pointwise
from .picard import picard_solve
from .waves import second_time_derivative, time_derivative


@dataclass
class DirectState:
    """Leapfrog state: current and previous displacement plus bookkeeping."""

    Y: np.ndarray
    velocity: np.ndarray
    Y_prev: np.ndarray = None
    accel: np.ndarray = None
    pressure: np.ndarray = None  # half spectrum, the next pressure solve's warm start
    iterations: int = 0


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


def solve_pressure(grid, Minv, lapY, velocity, p0h, tol, max_iter):
    """Mean-zero pressure from the constraint's second time derivative.

    Richardson iteration p_hat <- p_hat - |xi|^-2 r_hat on the half spectrum
    of p, with r = b - A p and A p = tr(Minv grad((grad X)^-T grad p)).  The
    residual is projected onto the mean-free physical frequency window (its
    mean vanishes by the Piola identity, and unpaired Nyquist-plane content
    is collocation noise outside the operator's range), and its norm is read
    from that spectrum by Parseval.  ``lapY`` is the Laplacian of the
    displacement and ``p0h`` the half spectrum of the warm start (or None).
    Returns (p_hat, iterations); raises on stagnation with the observed
    contraction factor.
    """
    gradL = grid.jacobian(lapY)
    W = _mat_mat(Minv, grid.jacobian(velocity))
    bh = grid.physical_spectrum(_trace_product(Minv, gradL) - _trace_product(W, W))
    bnorm = grid.spectral_l2(bh)
    if bnorm == 0.0:
        return np.zeros(grid.spectral_shape, complex), 0

    ph = p0h.copy() if p0h is not None else np.zeros(grid.spectral_shape, complex)
    prev_res = None
    for it in range(1, max_iter + 1):
        u = _matT_vec(Minv, grid.ifft(ph * grid.idfreq))  # (grad X)^-T grad p
        # grid.gradient(u)[b, a] = d_b u_a: the n^2 derivatives in one call each way
        Ap = _trace_product(Minv, grid.gradient(u).swapaxes(0, 1))
        rh = bh - grid.physical_spectrum(Ap)
        res = grid.spectral_l2(rh)
        if res <= tol * bnorm:
            return ph, it
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


def _acceleration(grid, state, tol, max_iter):
    gradX = grid.jacobian(state.Y)
    for a in range(grid.n):
        gradX[a, a] += 1.0
    Minv = inverse_pointwise(gradX)
    lapY = grid.laplacian(state.Y)
    ph, iters = solve_pressure(grid, Minv, lapY, state.velocity, state.pressure, tol, max_iter)
    return lapY - _matT_vec(Minv, grid.ifft(ph * grid.idfreq)), ph, iters


def direct_step(grid, state, dt, tol=1e-10, max_iter=400):
    """One leapfrog step; the velocity estimate is second-order accurate."""
    if state.Y_prev is None:
        accel, ph, iters = _acceleration(grid, state, tol, max_iter)
        Y_new = state.Y + dt * state.velocity + 0.5 * dt**2 * accel
        new = DirectState(Y_new, None, state.Y.copy(), accel, ph)
    else:
        vel = (state.Y - state.Y_prev) / dt + 0.5 * dt * state.accel
        probe = DirectState(state.Y, vel, None, None, state.pressure)
        accel, ph, iters = _acceleration(grid, probe, tol, max_iter)
        Y_new = 2.0 * state.Y - state.Y_prev + dt**2 * accel
        new = DirectState(Y_new, None, state.Y, accel, ph)
    new.iterations = iters
    return new


def run_direct(grid, data, cfg):
    """Integrate to t_end; returns the half spectra of Y, d_t Y and box Y and the det drift.

    Velocity and box are differenced on the physical samples before any
    transform, whose rounding the box's 1/dt^2 would amplify; each physical
    trajectory is dropped once it is transformed.
    """
    cfg.require_grid(grid)
    tg = cfg.time_grid()
    Y_ts = np.empty((tg.nsamples, grid.n) + grid.shape)
    Yh = np.empty((tg.nsamples, grid.n) + grid.spectral_shape, dtype=complex)
    state = DirectState(data.f.copy(), data.g.copy(), None, None, None)
    iters, drifts = [], []
    for m in range(tg.nsamples):
        if m:
            state = direct_step(grid, state, tg.dt, cfg.pressure_tol, cfg.pressure_max_iter)
            iters.append(state.iterations)
        Y_ts[m] = state.Y
        Yh[m] = grid.fft(state.Y)
        drifts.append(det_residual(grid.jacobian_of_spectrum(Yh[m])))
    dY = time_derivative(tg, Y_ts)
    dY[0] = data.g
    dYh = grid.fft(dY)
    del dY
    box = second_time_derivative(tg, Y_ts)
    del Y_ts
    box -= grid.ifft(Yh * (-grid.k2))
    return DirectRun(Yh, dYh, grid.fft(box), iters, max(drifts))


@dataclass
class CrossValidation:
    rel_difference: float
    sup_difference: float
    scale: float
    picard: object
    direct: DirectRun


def cross_validate(grid, data, cfg):
    """Compare the fixed-point and leapfrog solvers on the same data.

    Reports the sup-over-time L2 difference of grad Y, relative to the
    sup-over-time L2 size of the direct trajectory.
    """
    result = picard_solve(grid, data, cfg)
    direct = run_direct(grid, data, cfg)
    # ||grad Y|| by Parseval: a mode of grad Y carries |d|^2 |Y_hat|^2
    scale = math.sqrt(grid.sample_sq_l2(direct.Yh, grid.dk2).max())
    sup = math.sqrt(grid.sample_sq_l2(result.state.Yh - direct.Yh, grid.dk2).max())
    rel = sup / scale if scale > 0 else 0.0
    return CrossValidation(rel, sup, scale, result, direct)
