"""Spectral wave propagators and the Duhamel operator on a uniform time grid.

The free propagator is exact per Fourier mode.  The Duhamel integral is
the composite trapezoidal sum over the time samples, evaluated at every
sample in one O(M) sweep: the angle-addition formula splits the kernel
sin((t-s)|k|) into cumulative integrals.
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


def free_wave(grid, f, g, t, derivative=False):
    """Homogeneous wave solution cos(t|k|) f + sin(t|k|)/|k| g per mode.

    ``t`` is one time or a vector of times, which becomes the leading output
    axis.  With ``derivative`` the exact time derivative
    -|k| sin(t|k|) f + cos(t|k|) g is returned too.  The zero mode of f
    propagates as a constant; g must be mean-free, since its zero mode would
    grow linearly.
    """
    grid.require_mean_free(g, "free_wave velocity")
    fh = grid.fft(f)
    gh = grid.fft(g)
    t = np.reshape(t, np.shape(t) + (1,) * np.ndim(f))
    cosk = np.cos(t * grid.absk)
    sink = np.sin(t * grid.absk)
    sinc = np.where(grid.absk > 0, sink * grid.inv_absk, t)
    u = grid.ifft(cosk * fh + sinc * gh)
    if not derivative:
        return u
    return u, grid.ifft(-grid.absk * sink * fh + cosk * gh)


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
