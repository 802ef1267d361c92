"""Pressure-projection leapfrog stepper, the cross-validation oracle.

Advances Y directly with acceleration a = lap(Y) - (grad X)^-T grad p,
where the mean-zero pressure enforces the second time derivative of
log det(grad X) to vanish:

    tr(Minv grad a) = tr((Minv grad dY)^2),   Minv = (grad X)^-1.

The variable-coefficient pressure problem is solved by Richardson
iteration preconditioned with the constant-coefficient inverse Laplacian,
which contracts geometrically while the deformation stays small.  Products
here are plain collocation products: the coefficients are rational in
grad Y, so exact dealiasing does not apply, and the oracle's error budget
is O(dt^2) plus spectral tails either way.
"""

from dataclasses import dataclass, field

import numpy as np

from .elastic import det_residual_sup, inverse_pointwise
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
    G: np.ndarray  # Jacobian trajectory, (steps+1, n, n) + grid.shape
    Y: np.ndarray
    velocity: np.ndarray  # central-difference velocities
    pressure_iterations: list = field(default_factory=list)
    det_drift: float = 0.0


def _trace_product(Minv, A):
    """tr(Minv A) pointwise for matrix fields."""
    n = Minv.shape[0]
    acc = Minv[0, 0] * A[0, 0]
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            acc = acc + Minv[a, b] * A[b, a]
    return acc


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

    Richardson iteration p <- p + lap^-1 (b - A p) with
    A p = tr(Minv grad((grad X)^-T grad p)).  The residual is projected
    onto the mean-free physical frequency window: its mean vanishes
    identically by the Piola identity, and unpaired Nyquist-plane content
    is collocation noise outside the operator's range.
    Returns (p, iterations); raises on stagnation with the observed
    contraction factor.
    """
    gradL = grid.jacobian(grid.laplacian(Y))
    W = _mat_mat(Minv, grid.jacobian(velocity))
    b = grid.project_physical(_trace_product(Minv, gradL) - _trace_product(W, W))
    bnorm = grid.l2(b)
    if bnorm == 0.0:
        return np.zeros(grid.shape), 0

    def apply_op(p):
        u = _matT_vec(Minv, grid.gradient(p))
        return _trace_product(Minv, grid.jacobian(u))

    p = p0.copy() if p0 is not None else np.zeros(grid.shape)
    p -= p.mean()
    prev_res = None
    for it in range(1, max_iter + 1):
        r = grid.project_physical(b - apply_op(p))
        res = grid.l2(r)
        if res <= tol * bnorm:
            return p, it
        if prev_res is not None and res >= prev_res:
            raise RuntimeError(
                f"pressure iteration stagnated at step {it}: residual ratio "
                f"{res / prev_res:.3f} (deformation too large)"
            )
        prev_res = res
        p += grid.inverse_laplacian(r, check_mean=False)
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
    """Integrate to t_end, recording the Jacobian trajectory per sample."""
    cfg.require_grid(grid)
    tg = cfg.time_grid()
    n = grid.n
    nsamples = tg.nsamples
    Y_ts = np.empty((nsamples, n) + grid.shape)
    G_ts = np.empty((nsamples, n, n) + grid.shape)
    Y_ts[0] = data.f
    G_ts[0] = grid.jacobian(data.f)
    state = DirectState(data.f.copy(), data.g.copy(), None, None, None)
    iters = []
    for m in range(1, nsamples):
        state = direct_step(grid, state, tg.dt, cfg.pressure_tol, cfg.pressure_max_iter)
        Y_ts[m] = state.Y
        G_ts[m] = grid.jacobian(state.Y)
        iters.append(state.iterations)
    velocity = np.empty_like(Y_ts)
    velocity[1:-1] = (Y_ts[2:] - Y_ts[:-2]) / (2.0 * tg.dt)
    velocity[0] = data.g
    velocity[-1] = (3.0 * Y_ts[-1] - 4.0 * Y_ts[-2] + Y_ts[-3]) / (2.0 * tg.dt)
    return DirectRun(G_ts, Y_ts, velocity, iters, det_residual_sup(G_ts))


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
    diffs = [grid.l2(result.state.G[m] - direct.G[m]) for m in range(len(direct.G))]
    scale = max(grid.l2(Gm) for Gm in direct.G)
    sup = max(diffs)
    rel = sup / scale if scale > 0 else 0.0
    return CrossValidation(rel, sup, scale, result, direct)
