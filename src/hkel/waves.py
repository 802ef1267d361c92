"""Spectral wave propagators and the Duhamel operator on a uniform time grid.

Trajectories here are half spectra (``grid.spectral_shape`` last), sampled
along a leading time axis: every operator is a Fourier multiplier, so none
of them transforms.  The free propagator is exact per Fourier mode and
takes its physical data to spectra.  The Duhamel integral is the composite
trapezoidal sum over the time samples, evaluated at every sample in one
O(M) sweep: the angle-addition formula splits the kernel sin((t-s)|k|) into
cumulative integrals.  The box is a finite difference in time plus |xi|^2.
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
    """Half spectrum of the homogeneous wave solution cos(t|k|) f + sin(t|k|)/|k| g.

    f and g are real fields.  ``t`` is one time or a vector of times, which
    becomes the leading output axis.  With ``derivative`` the spectrum of
    the exact time derivative -|k| sin(t|k|) f + cos(t|k|) g is returned
    too.  The zero mode of f propagates as a constant; g must be mean-free,
    since its zero mode would grow linearly.
    """
    grid.require_mean_free(g, "free_wave velocity")
    fh = grid.fft(f)
    gh = grid.fft(g)
    t = np.reshape(t, np.shape(t) + (1,) * np.ndim(f))
    cosk = np.cos(t * grid.absk)
    sink = np.sin(t * grid.absk)
    sinc = np.where(grid.absk > 0, sink * grid.inv_absk, t)
    uh = cosk * fh + sinc * gh
    if not derivative:
        return uh
    return uh, -grid.absk * sink * fh + cosk * gh


def duhamel_trajectory(grid, tg, Fh, derivative=False):
    """Half spectra of all samples of the Duhamel integral (and optionally its d/dt).

    ``Fh`` is the half spectrum of the forcing, time first.  Splitting
    sin((t-s)|k|) = sin(t|k|)cos(s|k|) - cos(t|k|)sin(s|k|) reduces the
    per-sample trapezoidal sums to two cumulative integrals.  The zero mode
    uses the kernel (t-s) = t*1 - s, split the same way.  The time
    derivative replaces the kernel by cos((t-s)|k|), per the same
    quadrature.
    """
    times = tg.times.reshape((-1,) + (1,) * (Fh.ndim - 1))
    cosk = np.cos(times * grid.absk)
    sink = np.sin(times * grid.absk)
    C = _cumtrapz(cosk * Fh, tg.dt)
    S = _cumtrapz(sink * Fh, tg.dt)
    out = (sink * C - cosk * S) * grid.inv_absk  # inv_absk is 0 at the zero mode
    # zero mode, kernel (t - s): t * cumtrapz(F) - cumtrapz(s F)
    zero = (Ellipsis,) + (0,) * grid.n
    times0 = tg.times.reshape((-1,) + (1,) * (Fh.ndim - 1 - grid.n))
    T0 = _cumtrapz(Fh[zero], tg.dt)
    out[zero] = times0 * T0 - _cumtrapz(times0 * Fh[zero], tg.dt)
    if not derivative:
        return out
    dout = cosk * C + sink * S
    dout[zero] = T0
    return out, dout


def _cumtrapz(y, dt):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), axis=0, out=out[1:])
    return out


def time_derivative(tg, u):
    """Second-order time derivative of a sampled trajectory or its spectra (all samples)."""
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * tg.dt)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * tg.dt)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * tg.dt)
    return du


def second_time_derivative(tg, u):
    """Second difference in time of a trajectory or its spectra (one-sided at the endpoints)."""
    ddu = np.empty_like(u)
    dt2 = tg.dt**2
    ddu[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dt2
    ddu[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dt2
    ddu[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dt2
    return ddu


def box_trajectory(grid, tg, uh):
    """Half spectra of the finite-difference box of every sample: D_tt u_hat + |xi|^2 u_hat."""
    ddu = second_time_derivative(tg, uh)
    ddu += grid.k2 * uh
    return ddu
