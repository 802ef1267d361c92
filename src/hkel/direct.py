"""Pressure-projection leapfrog stepper, the cross-validation oracle.

Advances Y directly with acceleration a = lap(Y) - (grad X)^-T grad p,
where the mean-zero pressure enforces the second time derivative of
log det(grad X) to vanish:

    tr(Minv grad a) = tr((Minv grad dY)^2),   Minv = (grad X)^-1.

The variable-coefficient pressure problem is solved by Richardson
iteration preconditioned with the constant-coefficient inverse Laplacian,
which contracts geometrically while the deformation stays small.  The
iterate is the half spectrum of p; a step makes one transform call for
grad p, one each way for all n^2 derivatives of (grad X)^-T grad p, and one
for the residual spectrum, whose norm Parseval gives.  Products
here are plain collocation products: the coefficients are rational in
grad Y, so exact dealiasing does not apply, and the oracle's error budget
is O(dt^2) plus spectral tails either way.
"""

from dataclasses import dataclass, field

import numpy as np

from .elastic import det_residual, inverse_pointwise
from .picard import picard_solve


@dataclass
class DirectState:
    """Leapfrog state: current and previous displacement plus bookkeeping."""

    Y: np.ndarray
    velocity: np.ndarray
    Y_prev: np.ndarray = None
    accel: np.ndarray = None
    pressure: np.ndarray = None
    iterations: int = 0


@dataclass
class DirectRun:
    Y: np.ndarray  # displacement trajectory, (steps+1, n) + grid.shape
    velocity: np.ndarray  # central-difference velocities
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
    return np.stack(
        [
            np.stack([sum(A[a, l] * B[l, b] for l in range(n)) for b in range(n)])
            for a in range(n)
        ]
    )


def solve_pressure(grid, Minv, Y, velocity, p0, tol, max_iter):
    """Mean-zero pressure from the constraint's second time derivative.

    Richardson iteration p_hat <- p_hat - |xi|^-2 r_hat on the half spectrum
    of p, with r = b - A p and A p = tr(Minv grad((grad X)^-T grad p)).  The
    residual is projected onto the mean-free physical frequency window (its
    mean vanishes by the Piola identity, and unpaired Nyquist-plane content
    is collocation noise outside the operator's range), and its norm is read
    from that spectrum by Parseval.  Returns (p, iterations), p transformed
    back once; raises on stagnation with the observed contraction factor.
    """
    gradL = grid.jacobian(grid.laplacian(Y))
    W = _mat_mat(Minv, grid.jacobian(velocity))
    bh = grid.physical_spectrum(_trace_product(Minv, gradL) - _trace_product(W, W))
    bnorm = grid.spectral_l2(bh)
    if bnorm == 0.0:
        return np.zeros(grid.shape), 0

    ph = grid.physical_spectrum(p0) if p0 is not None else np.zeros(grid.spectral_shape, complex)
    prev_res = None
    for it in range(1, max_iter + 1):
        u = _matT_vec(Minv, grid.ifft(ph * grid.idfreq))  # (grad X)^-T grad p
        # grid.gradient(u)[b, a] = d_b u_a: the n^2 derivatives in one call each way
        Ap = _trace_product(Minv, grid.gradient(u).swapaxes(0, 1))
        rh = bh - grid.physical_spectrum(Ap)
        res = grid.spectral_l2(rh)
        if res <= tol * bnorm:
            return grid.ifft(ph), it
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
    p, iters = solve_pressure(
        grid, Minv, state.Y, state.velocity, state.pressure, tol, max_iter
    )
    accel = grid.laplacian(state.Y) - _matT_vec(Minv, grid.gradient(p))
    return accel, p, iters


def direct_step(grid, state, dt, tol=1e-10, max_iter=400):
    """One leapfrog step; the velocity estimate is second-order accurate."""
    if state.Y_prev is None:
        accel, p, iters = _acceleration(grid, state, tol, max_iter)
        Y_new = state.Y + dt * state.velocity + 0.5 * dt**2 * accel
        new = DirectState(Y_new, None, state.Y.copy(), accel, p)
    else:
        vel = (state.Y - state.Y_prev) / dt + 0.5 * dt * state.accel
        probe = DirectState(state.Y, vel, None, None, state.pressure)
        accel, p, iters = _acceleration(grid, probe, tol, max_iter)
        Y_new = 2.0 * state.Y - state.Y_prev + dt**2 * accel
        new = DirectState(Y_new, None, state.Y, accel, p)
    new.iterations = iters
    return new


def run_direct(grid, data, cfg):
    """Integrate to t_end, recording the displacement and the det drift per sample."""
    cfg.require_grid(grid)
    tg = cfg.time_grid()
    nsamples = tg.nsamples
    Y_ts = np.empty((nsamples, grid.n) + grid.shape)
    Y_ts[0] = data.f
    det_drift = det_residual(grid.jacobian(data.f))
    state = DirectState(data.f.copy(), data.g.copy(), None, None, None)
    iters = []
    for m in range(1, nsamples):
        state = direct_step(grid, state, tg.dt, cfg.pressure_tol, cfg.pressure_max_iter)
        Y_ts[m] = state.Y
        det_drift = max(det_drift, det_residual(grid.jacobian(state.Y)))
        iters.append(state.iterations)
    velocity = np.empty_like(Y_ts)
    velocity[1:-1] = (Y_ts[2:] - Y_ts[:-2]) / (2.0 * tg.dt)
    velocity[0] = data.g
    velocity[-1] = (3.0 * Y_ts[-1] - 4.0 * Y_ts[-2] + Y_ts[-3]) / (2.0 * tg.dt)
    return DirectRun(Y_ts, velocity, iters, det_drift)


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
    diffs, sizes = [], []
    for Yp, Yd in zip(result.state.Y, direct.Y):
        Gd = grid.jacobian(Yd)
        diffs.append(grid.l2(grid.jacobian(Yp) - Gd))
        sizes.append(grid.l2(Gd))
    scale = max(sizes)
    sup = max(diffs)
    rel = sup / scale if scale > 0 else 0.0
    return CrossValidation(rel, sup, scale, result, direct)
