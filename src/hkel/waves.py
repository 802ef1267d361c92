"""Spectral wave propagators and the Duhamel operator on a uniform time grid.

Trajectories here are half spectra (``grid.spectral_shape`` last), sampled
along a leading time axis: every operator is a Fourier multiplier, so none
of them transforms.  The free propagator is exact per Fourier mode and
is formed a row of modes at a time from its data's spectra.  The Duhamel
integral is the composite trapezoidal sum over the time samples, evaluated
at every sample in one O(M) sweep: the angle-addition formula splits the
kernel sin((t-s)|k|) into cumulative integrals.  The box is a finite
difference in time plus |xi|^2.
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
    def times(self):
        return self.dt * np.arange(self.steps + 1)


def free_wave(grid, seed, times):
    """Half spectra of the homogeneous wave solution cos(t|k|) f + sin(t|k|)/|k| g and its d/dt.

    ``seed`` is the pair of half spectra (f_hat, g_hat), with any leading
    component axes, such as ``picard.free_seed``'s.  ``times`` is one time or
    a vector of times, which becomes the leading output axis.  The second
    spectrum is the exact time derivative -|k| sin(t|k|) f + cos(t|k|) g.
    The zero mode of f propagates as a constant and g's would grow
    linearly, which ``free_seed`` rules out: it takes mean-free data only.
    Both outputs are filled a row of the first spectral axis at a time.
    """
    Yh = np.empty(np.shape(times) + np.shape(seed[0]), complex)
    dYh = np.empty_like(Yh)
    for row, _, _, rows in _free_wave_rows(grid, times, seed):
        Yh[row], dYh[row] = rows
    return Yh, dYh


def _free_wave_rows(grid, times, seed):
    """Per row of the first spectral axis: its index, cos(t|k|), sin(t|k|) and the wave's rows.

    The index reads the row after any leading axes, and the rows are
    ``free_wave(grid, seed, times)``'s; the tables broadcast against a row
    of the seed, and no temporary larger than a row of the output is formed.
    """
    fh, gh = seed
    times = np.reshape(times, np.shape(times) + (1,) * (np.ndim(fh) - 1))
    for i in range(grid.spectral_shape[0]):
        row = (Ellipsis, i) + (slice(None),) * (grid.n - 1)
        absk = grid.absk[row]
        cosk, sink = _trig_tables(times, absk)
        sinc = np.where(absk > 0, sink * grid.inv_absk[row], times)
        f, g = fh[row], gh[row]
        yield row, cosk, sink, (cosk * f + sinc * g, -absk * sink * f + cosk * g)


def _trig_tables(times, absk):
    """cos(t|k|) and sin(t|k|) at the times and modes, which broadcast against each other."""
    return np.cos(times * absk), np.sin(times * absk)


def duhamel_trajectory(grid, tg, Fh):
    """Half spectra of all samples of the Duhamel integral and of its d/dt.

    ``Fh`` is the half spectrum of the forcing, time first.  Splitting
    sin((t-s)|k|) = sin(t|k|)cos(s|k|) - cos(t|k|)sin(s|k|) reduces the
    per-sample trapezoidal sums to two cumulative integrals.  The zero mode
    uses the kernel (t-s) = t*1 - s, split the same way.  The time
    derivative replaces the kernel by cos((t-s)|k|), per the same
    quadrature.
    """
    times = tg.times.reshape((-1,) + (1,) * (Fh.ndim - 1))
    return _duhamel(tg, Fh, *_trig_tables(times, grid.absk), grid.inv_absk)


def _duhamel(tg, Fh, cosk, sink, inv_absk):
    """``duhamel_trajectory`` at the modes of Fh's trailing axes, given their trig tables.

    ``cosk`` and ``sink`` are ``_trig_tables`` of the sample times at those
    modes.  The sums run along time one mode at a time: any block of modes
    that starts at the zero mode or leaves it out gets the whole spectrum's bits.
    """
    C = _cumtrapz(cosk * Fh, tg.dt)
    S = _cumtrapz(sink * Fh, tg.dt)
    out = (sink * C - cosk * S) * inv_absk  # inv_absk is 0 at the zero mode, and only there
    dout = cosk * C + sink * S
    if inv_absk.flat[0] == 0.0:  # the zero mode, kernel (t - s): t * cumtrapz(F) - cumtrapz(s F)
        zero = (Ellipsis,) + (0,) * inv_absk.ndim
        times0 = tg.times.reshape((-1,) + (1,) * (Fh[zero].ndim - 1))
        T0 = _cumtrapz(Fh[zero], tg.dt)
        out[zero] = times0 * T0 - _cumtrapz(times0 * Fh[zero], tg.dt)
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
    du[1:-1] = _central_velocity(tg.dt, u[:-2], u[2:])
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * tg.dt)
    du[-1] = _last_velocity(tg.dt, u[-1], u[-2], u[-3])
    return du


# The stencils per sample or slice of samples: the leapfrog forms each
# sample's box with them as its steps land, and its velocity where it is read.


def _central_velocity(dt, before, after, out=None):
    out = np.subtract(after, before, out=out)
    out /= 2.0 * dt
    return out


def _last_velocity(dt, last, before, before2):
    return (3.0 * last - 4.0 * before + before2) / (2.0 * dt)


def _second_difference(dt, before, u, after):
    return (after - 2.0 * u + before) / dt**2


def _end_second_difference(dt, end, u1, u2, u3):
    """One-sided second difference at an endpoint; u1..u3 step inward from it."""
    return (2.0 * end - 5.0 * u1 + 4.0 * u2 - u3) / dt**2


def _gather(u, samples, modes=None):
    """Samples of a trajectory of half spectra: ``u[samples]``, or their block at flat ``modes``.

    ``samples`` is a slice or an index array, ``modes`` indices into the
    flattened spectral axes; the block is (samples, n, modes).  A slice's block
    is taken along the mode axis alone, three times faster than on two axes.
    """
    if modes is None:
        return u[samples]
    flat = u.reshape(u.shape[:2] + (-1,))
    if isinstance(samples, slice):
        return np.take(flat[samples], modes, axis=2)
    return flat[np.asarray(samples)[:, None, None], np.arange(u.shape[1])[:, None], modes]


def box_trajectory(tg, uh, k2):
    """Half spectra of the finite-difference box of every sample: D_tt u_hat + k2 u_hat.

    ``k2`` is |xi|^2 at uh's modes: ``grid.k2``, or the block of it that uh holds.
    The second difference is one-sided at the endpoints.
    """
    ddu = np.empty_like(uh)
    ddu[1:-1] = _second_difference(tg.dt, uh[:-2], uh[1:-1], uh[2:])
    ddu[0] = _end_second_difference(tg.dt, uh[0], uh[1], uh[2], uh[3])
    ddu[-1] = _end_second_difference(tg.dt, uh[-1], uh[-2], uh[-3], uh[-4])
    ddu += k2 * uh
    return ddu
