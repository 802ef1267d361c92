"""Spectral wave propagators and the Duhamel operator on a uniform time grid.

The free propagator is exact per Fourier mode.  The Duhamel integral uses
composite trapezoidal quadrature over the time samples; its full-trajectory
form splits the kernel sin((t-s)|k|) by the angle-addition formula into
cumulative integrals, which evaluates every sample in one O(M) sweep while
remaining the same trapezoidal sum.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform samples t_m = m * dt for m = 0..steps."""

    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 4:
            raise ValueError("need at least 4 time steps")

    @property
    def nsamples(self):
        return self.steps + 1

    @property
    def horizon(self):
        return self.dt * self.steps

    @property
    def times(self):
        return self.dt * np.arange(self.steps + 1)


def free_wave(grid, f, g, t):
    """Homogeneous wave solution cos(t|k|) f + sin(t|k|)/|k| g per mode.

    The zero mode of f propagates as a constant; g must be mean-free, since
    its zero mode would grow linearly.
    """
    grid.require_mean_free(g, "free_wave velocity")
    fh = grid.fft(f)
    gh = grid.fft(g)
    sinc = np.where(grid.absk > 0, np.sin(t * grid.absk) * grid.inv_absk, t)
    return grid.ifft(np.cos(t * grid.absk) * fh + sinc * gh)


def free_wave_deriv(grid, f, g, t):
    """Exact time derivative of the free propagator."""
    grid.require_mean_free(g, "free_wave velocity")
    fh = grid.fft(f)
    gh = grid.fft(g)
    return grid.ifft(-grid.absk * np.sin(t * grid.absk) * fh + np.cos(t * grid.absk) * gh)


def duhamel(grid, tg, F, m):
    """Inhomogeneous wave solution at sample m from forcing history F.

    F has one field per time sample (leading axis).  Per mode the kernel is
    sin((t-s)|k|)/|k| (and t-s at the zero mode), integrated by the
    composite trapezoidal rule over samples 0..m.
    """
    m = _sample_index(tg, m)
    if m == 0:
        return np.zeros(F.shape[1:])
    t = tg.dt * m
    acc = np.zeros(F.shape[1:], dtype=complex)
    for i in range(m + 1):
        weight = tg.dt if 0 < i < m else 0.5 * tg.dt
        s = tg.dt * i
        kernel = np.where(grid.absk > 0, np.sin((t - s) * grid.absk) * grid.inv_absk, t - s)
        acc += weight * kernel * grid.fft(F[i])
    return grid.ifft(acc)


def duhamel_trajectory(grid, tg, F, derivative=False):
    """All samples of the Duhamel integral (and optionally its d/dt).

    Splitting sin((t-s)|k|) = sin(t|k|)cos(s|k|) - cos(t|k|)sin(s|k|)
    reduces the per-sample trapezoidal sums to two cumulative integrals.
    The zero mode uses the kernel (t-s) = t*1 - s, split the same way.
    The time derivative replaces the kernel by cos((t-s)|k|), per the same
    quadrature.
    """
    F = np.asarray(F)
    times = tg.times.reshape((-1,) + (1,) * (F.ndim - 1))
    Fh = grid.fft(F)
    cosk = np.cos(times * grid.absk)
    sink = np.sin(times * grid.absk)
    C = _cumtrapz(cosk * Fh, tg.dt)
    S = _cumtrapz(sink * Fh, tg.dt)
    out = (sink * C - cosk * S) * grid.inv_absk  # inv_absk is 0 at the zero mode
    # zero mode, kernel (t - s): t * cumtrapz(F) - cumtrapz(s F)
    zero = (Ellipsis,) + (0,) * grid.n
    times0 = tg.times.reshape((-1,) + (1,) * (F.ndim - 1 - grid.n))
    T0 = _cumtrapz(Fh[zero], tg.dt)
    out[zero] = times0 * T0 - _cumtrapz(times0 * Fh[zero], tg.dt)
    result = grid.ifft(out)
    if not derivative:
        return result
    dout = cosk * C + sink * S
    dout[zero] = T0
    return result, grid.ifft(dout)


def _cumtrapz(y, dt):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), axis=0, out=out[1:])
    return out


def box_fd(grid, tg, u, m):
    """Finite-difference d'Alembertian of a trajectory at interior sample m.

    Central second difference in time minus the spectral Laplacian;
    O(dt^2) accurate.
    """
    m = _sample_index(tg, m)
    if not 1 <= m <= tg.steps - 1:
        raise ValueError(f"interior sample index required, got {m}")
    dtt = (u[m + 1] - 2.0 * u[m] + u[m - 1]) / tg.dt**2
    return dtt - grid.laplacian(u[m])


def _sample_index(tg, m):
    m = int(m)
    if not 0 <= m <= tg.steps:
        raise ValueError(f"sample index {m} outside 0..{tg.steps}")
    return m


def time_derivative(tg, u):
    """Second-order time derivative of a sampled trajectory (all samples)."""
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * tg.dt)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * tg.dt)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * tg.dt)
    return du


def second_time_derivative(tg, u):
    """Second-order d^2/dt^2 of a sampled trajectory (all samples)."""
    ddu = np.empty_like(u)
    dt2 = tg.dt**2
    ddu[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dt2
    ddu[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dt2
    ddu[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dt2
    return ddu


def box_trajectory(grid, tg, u):
    """Finite-difference box of every sample (one-sided at the endpoints)."""
    return second_time_derivative(tg, u) - grid.laplacian(u)
