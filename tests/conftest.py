import itertools

import numpy as np
import pytest

from hkel.diagnostics import (
    _subsample,
    gradient_besov_norms,
    gradient_besov_sup,
    s_surrogate,
    two_variation,
)
from hkel.direct import direct_step
from hkel.elastic import (
    _accumulate_terms,
    _cofactor,
    _minor_terms,
    curl_free_displacement,
    det_pointwise,
    det_residual,
    null_form,
)
from hkel.picard import PicardState, free_seed
from hkel.spectral import (
    Grid,
    _fine_size,
    _placements,
    fine_to_spectrum,
    jacobian_on_fine,
    pad_to_fine,
    spectrum_to_fine,
    truncate_from_fine,
)
from hkel.waves import (
    _cumtrapz,
    box_trajectory,
    free_wave,
    time_derivative,
)


@pytest.fixture(scope="session")
def grid2():
    return Grid(2, 32)


@pytest.fixture(scope="session")
def grid3():
    return Grid(3, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_vector(grid, rng, band=None):
    from hkel.spectral import random_mean_free

    return np.stack([random_mean_free(grid, rng, band=band) for _ in range(grid.n)])


def random_jacobian(grid, rng, scale=1.0, band=None):
    """Jacobian of a random periodic vector field (curl-compatible)."""
    if band is None:
        band = grid.size // 4
    Y = scale * random_vector(grid, rng, band=band)
    return grid.jacobian(Y)


def physical_spectrum(grid, u):
    """Half spectrum of u without unpaired Nyquist-plane content and the mean."""
    uh = grid.fft(u) * grid.phys_mask
    uh[(Ellipsis,) + (0,) * grid.n] = 0.0
    return uh


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def principal_minor_sum(grid, A, k):
    """Sum of all k x k principal minors of a matrix field, dealiased (the oracle)."""
    n = grid.n
    if not 2 <= k <= n:
        raise ValueError(f"minor order must satisfy 2 <= k <= {n}, got {k}")
    fine = pad_to_fine(grid, np.asarray(A), 2)
    return truncate_from_fine(grid, _accumulate_terms(fine, _minor_terms(n, (k,))), 2)


def cofactor_matrix(M):
    """Pointwise cofactor matrix of a matrix field, one signed Leibniz minor per entry."""
    return np.array([[_cofactor(M, a, b) for b in range(len(M))] for a in range(len(M))])


def physical_box(grid, tg, u):
    """The finite-difference box on physical samples: D_tt u - Laplacian u."""
    ddu = np.empty_like(u)
    ddu[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / tg.dt**2
    ddu[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / tg.dt**2
    ddu[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / tg.dt**2
    return ddu - grid.ifft(grid.fft(u) * (-grid.k2))


def full_spectrum_to_fine(grid, uh, pad):
    """``spectral.spectrum_to_fine`` staged on the whole fine half lattice (the oracle)."""
    big = _fine_size(grid, pad)
    n, half = grid.n, grid.size // 2
    scale = (big / grid.size) ** n
    cols = (slice(0, half),)
    low = uh[..., :half] * (0.5 * scale)
    nyq = uh[..., half] * ((0.5 if big > grid.size else 1.0) * scale)
    fine = np.zeros(uh.shape[:-n] + (big,) * (n - 1) + (big // 2 + 1,), dtype=complex)
    for plus in (False, True):
        for src, dst in _placements(grid.n, grid.size, big, plus):
            fine[(Ellipsis,) + dst + cols] += low[(Ellipsis,) + src + cols]
    for src, dst in _placements(grid.n, grid.size, big, True):
        fine[(Ellipsis,) + dst + (half,)] = nyq[(Ellipsis,) + src]
    return np.fft.irfftn(fine, s=(big,) * n, axes=grid.axes)


def full_fine_to_spectrum(grid, u_fine, pad):
    """``spectral.fine_to_spectrum`` read from the whole rfftn of the fine field (the oracle)."""
    big = _fine_size(grid, pad)
    n, half = grid.n, grid.size // 2
    fh = np.fft.rfftn(u_fine, axes=grid.axes)
    cols = (slice(0, half),)
    uh = np.zeros(fh.shape[:-n] + (grid.size,) * (n - 1) + (half + 1,), dtype=complex)
    for plus in (False, True):
        for src, dst in _placements(grid.n, grid.size, big, plus):
            uh[(Ellipsis,) + src + cols] += fh[(Ellipsis,) + dst + cols]
    uh[..., :half] *= 0.5
    for src, dst in _placements(grid.n, grid.size, big, True):
        uh[(Ellipsis,) + src + (half,)] = fh[(Ellipsis,) + dst + (half,)]
    return uh / (big / grid.size) ** n


def curl_compatibility_residual(grid, G):
    """Max relative failure of d_k G[a, b] = d_b G[a, k] (gradient check)."""
    n = grid.n
    Gh = grid.fft(G)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for k in range(b + 1, n):
                diff = grid.ifft(Gh[a, b] * (1j * grid.dfreq[k]) - Gh[a, k] * (1j * grid.dfreq[b]))
                worst = max(worst, float(np.abs(diff).max()))
    scale = float(np.abs(G).max())
    return worst / scale if scale > 0 else worst


# -- the shear data's velocity by direct summation, as an oracle -------------------


def direct_trig_sum(modes, coeffs, points):
    """sum_m Re(c_m exp(i k_m . x)) at points (n, ...), one mode at a time."""
    out = np.zeros(points.shape[1:])
    for k, c in zip(modes, coeffs):
        phase = sum(float(k_a) * x_a for k_a, x_a in zip(k, points))
        out += c.real * np.cos(phase) - c.imag * np.sin(phase)
    return out


def shear_velocity_oracle(grid, amplitude, seed, band):
    """``make_shear_data``'s g, rebuilt from the same Philox draws by direct summation.

    The modes are the lexicographic |k|_inf <= band whose first nonzero entry is
    positive; a shear's have a zero at its own axis.  Each polynomial draws its
    real parts, then its imaginary parts, and is scaled to unit sup on the
    4 (band + 1)-point lattice: the n shears first, then the potentials (one
    stream function in 2D, three in 3D).  The velocity is v_i = eps_(i j) d_j psi
    or eps_(i j l) d_j A_l, each component and each derivative summed on its
    own, scaled to unit sup over the components, and read at the composed
    shears' points.
    """
    n = grid.n
    rng = np.random.Generator(np.random.Philox(key=seed))
    modes = [k for k in itertools.product(range(-band, band + 1), repeat=n)
             if any(k) and next(a for a in k if a) > 0]
    x1 = 2 * np.pi * np.arange(4 * (band + 1)) / (4 * (band + 1))
    lattice = np.stack(np.meshgrid(*([x1] * n), indexing="ij"))

    def unit(modes):
        c = rng.normal(size=len(modes))
        c = c + 1j * rng.normal(size=len(modes))
        return c / np.abs(direct_trig_sum(modes, c, lattice)).max()

    points = grid.coords.copy()
    for axis in range(n):
        shear_modes = [k for k in modes if k[axis] == 0]
        phi = unit(shear_modes)
        points[axis] = points[axis] + amplitude * direct_trig_sum(shear_modes, phi, points)
    pots = [unit(modes) for _ in range(1 if n == 2 else 3)]
    ik = 1j * np.array(modes, dtype=float).T
    # (i, j, l, sign) of v_i = sign d_j pots[l]
    terms = ([(0, 1, 0, 1.0), (1, 0, 0, -1.0)] if n == 2 else
             [(i, j, l, 1.0 if (i, j, l) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0)
              for i, j, l in itertools.permutations(range(3))])

    def velocity(x):
        v = np.zeros((n,) + x.shape[1:])
        for i, j, l, sign in terms:
            v[i] += sign * direct_trig_sum(modes, ik[j] * pots[l], x)
        return v

    g = amplitude * velocity(points) / np.abs(velocity(lattice)).max()
    return g - g.mean(axis=grid.axes, keepdims=True)


class ComplexGrid:
    """The complex-FFT Grid operators on the full frequency lattice, as an oracle.

    Multipliers live on the full lattice {-N/2..N/2-1}^n and every inverse
    transform keeps the real part, which applies the Hermitian part of the
    multiplier; ``hkel.spectral.Grid`` works on the half lattice instead.
    """

    def __init__(self, grid):
        self.grid = grid
        n, size = grid.n, grid.size
        k1 = np.fft.fftfreq(size, d=1.0 / size)
        d1 = np.where(np.abs(k1) == size // 2, 0.0, k1)
        self.freq, self.dfreq = [], []
        for a in range(n):
            sh = [1] * n
            sh[a] = size
            self.freq.append(k1.reshape(sh))
            self.dfreq.append(d1.reshape(sh))
        self.k2 = sum(k * k for k in self.freq) + np.zeros(grid.shape)
        self.absk = np.sqrt(self.k2)
        nonzero = self.k2 > 0
        self.inv_k2 = np.where(nonzero, 1.0 / np.where(nonzero, self.k2, 1.0), 0.0)
        self.inv_absk = np.where(nonzero, 1.0 / np.where(nonzero, self.absk, 1.0), 0.0)
        with np.errstate(divide="ignore"):
            j = np.floor(np.log2(np.where(nonzero, self.absk, 1.0))).astype(np.int64)
        self.band_of = np.where(nonzero, j, -1)
        mask = np.ones(grid.shape, dtype=bool)
        for a in range(n):
            mask &= np.abs(self.freq[a]) < size // 2
        self.phys_mask = mask

    def fft(self, u):
        return np.fft.fftn(np.asarray(u), axes=self.grid.axes)

    def ifft(self, uh):
        return np.fft.ifftn(uh, axes=self.grid.axes).real

    def deriv(self, u, axis):
        return self.ifft(self.fft(u) * (1j * self.dfreq[axis]))

    def jacobian(self, v):
        vh = self.fft(v)
        n = self.grid.n
        return np.stack([self.ifft(vh * (1j * k)) for k in self.dfreq], axis=vh.ndim - n)

    def divergence(self, v):
        vh = self.fft(v)
        return self.ifft(sum(vh[a] * (1j * self.dfreq[a]) for a in range(self.grid.n)))

    def laplacian(self, u):
        return self.ifft(self.fft(u) * (-self.k2))

    def inverse_laplacian(self, u):
        return self.ifft(self.fft(u) * (-self.inv_k2))

    def riesz(self, u, i):
        return self.ifft(self.fft(u) * (1j * self.dfreq[i] * self.inv_absk))

    def leray_project(self, v):
        vh = self.fft(v)
        kdotv = sum(self.freq[a] * vh[a] for a in range(self.grid.n))
        return self.ifft(np.stack([vh[a] - self.freq[a] * kdotv * self.inv_k2
                                   for a in range(self.grid.n)]))

    def project_physical(self, u):
        uh = self.fft(u) * self.phys_mask
        uh[(Ellipsis,) + (0,) * self.grid.n] = 0.0
        return self.ifft(uh)

    def dyadic_project(self, u, j):
        return self.ifft(self.fft(u) * (self.band_of == j))

    def band_l2_profile(self, u):
        power = np.abs(self.fft(u)) ** 2
        if power.ndim > self.grid.n:
            power = power.sum(axis=tuple(range(power.ndim - self.grid.n)))
        sums = np.bincount((self.band_of + 1).ravel(), weights=power.ravel(),
                           minlength=self.grid.nbands + 1)
        return np.sqrt(sums[1:] * self.grid.cell_volume / self.grid.npoints)


# -- the physical diagnostics path that the spectral one replaced, as an oracle ----


def physical_energy(grid, velocity, G):
    """Quadratic energy 0.5 ||d_t Y||^2 + 0.5 ||grad Y||^2 of one sample, from physical fields."""
    return 0.5 * grid.l2(velocity) ** 2 + 0.5 * grid.l2(G) ** 2


def physical_recover_pressure(grid, G, boxY):
    """Pressure and curl residual of w = (I + G^T) box Y for one physical sample.

    The products are formed with pad_to_fine/truncate_from_fine on the
    pad-3/2 lattice, w is demeaned physically, and the inverse Laplacian and
    the Leray projection run on the complex full-lattice reference grid.
    """
    n, pad, ref = grid.n, 1.5, ComplexGrid(grid)
    Gf, Bf = pad_to_fine(grid, G, pad), pad_to_fine(grid, boxY, pad)
    acc = sum(Gf[l] * Bf[l] for l in range(n))  # G[l, b] over b, boxY[l] along b
    w = boxY + truncate_from_fine(grid, acc, pad)
    w -= w.mean(axis=grid.axes, keepdims=True)
    p = -ref.inverse_laplacian(grid.divergence(w))
    wnorm = grid.l2(w)
    return p, grid.l2(ref.leray_project(w)) / wnorm if wnorm > 0 else 0.0


def batched_recover_pressure(grid, Yh, boxYh):
    """``elastic.recover_pressure`` with all of G and box Y placed on the pad-3/2 lattice at once."""
    n, pad = grid.n, 1.5
    Gf = jacobian_on_fine(grid, Yh, pad)
    Bf = spectrum_to_fine(grid, np.moveaxis(boxYh, 1, 0), pad)
    acc = Gf[0] * Bf[0]  # G[l, b] over b, boxY[l] broadcast along b
    for l in range(1, n):
        acc += Gf[l] * Bf[l]
    wh = grid.fft(grid.ifft(boxYh + np.moveaxis(fine_to_spectrum(grid, acc, pad), 0, 1)))
    wh[(Ellipsis,) + (0,) * n] = 0.0
    wnorm = grid.sample_sq_l2(wh)
    cnorm = grid.sample_sq_l2(grid.leray_of_spectrum(wh))
    return np.sqrt(np.divide(cnorm, wnorm, out=np.zeros_like(wnorm), where=wnorm > 0.0))


def physical_run_direct(grid, data, cfg):
    """The leapfrog's physical Y, central-difference velocity and box trajectories.

    Each step forms its sample's spectrum, Jacobian, Laplacian, grad X and
    det(grad X) afresh from the physical trajectory and hands them to
    ``direct_step``, with grad v the difference of the Jacobians that the
    leapfrog's velocity implies.
    """
    tg, n = cfg.time_grid(), grid.n
    dt, eye = tg.dt, np.eye(n).reshape((n, n) + (1,) * n)
    Y = np.empty((tg.nsamples, n) + grid.shape)
    Y[0] = data.f
    grad_g, G, pressures = grid.jacobian(data.g), [], ()
    for m in range(1, tg.nsamples):
        Yh = grid.fft(Y[m - 1])
        G.append(grid.jacobian_of_spectrum(Yh))
        gradX = G[-1] + eye
        if m == 1:
            gradv = grad_g
        elif m == 2:
            gradv = 2.0 * (G[-1] - G[-2]) / dt - grad_g
        else:
            gradv = (1.5 * G[-1] - 2.0 * G[-2] + 0.5 * G[-3]) / dt
        accel, pressures, _ = direct_step(grid, grid.ifft(Yh * (-grid.k2)), gradX,
                                          det_pointwise(gradX), gradv, pressures,
                                          cfg.pressure_tol, cfg.pressure_max_iter)
        if m == 1:
            Y[1] = Y[0] + dt * data.g + 0.5 * dt**2 * accel
        else:
            Y[m] = 2.0 * Y[m - 1] - Y[m - 2] + dt**2 * accel
    dY = time_derivative(tg, Y)
    dY[0] = data.g
    return Y, dY, physical_box(grid, tg, Y)


def physical_diagnostics(grid, tg, Y, dY, boxY, every=1):
    """``diagnostics.csv`` rows and ``s_surrogate`` of physical trajectories, sample by sample."""
    s = grid.n / 2.0
    rows = []
    for m in range(0, tg.nsamples, every):
        G = grid.jacobian(Y[m])
        rows.append((
            tg.times[m],
            gradient_besov_norms(grid, grid.fft(Y[m : m + 1]), s)[0],
            gradient_besov_norms(grid, grid.fft(dY[m : m + 1]), s - 1.0)[0],
            physical_energy(grid, dY[m], G),
            det_residual(G),
            physical_recover_pressure(grid, G, boxY[m])[1],
        ))
    spectra = [np.stack([grid.fft(u) for u in traj]) for traj in (Y, dY)]
    total, _ = s_surrogate(grid, PicardState(grid, tg, *spectra, None))
    return np.array(rows), total


# -- the surrogate that copied the sampled trajectories whole, as an oracle ----------


def whole_copy_s_surrogate(grid, tg, Yh_ts, dYh_ts):
    """``diagnostics.s_surrogate`` with the sampled times of Y_hat and d_t Y_hat copied whole.

    Every band path then goes through the public ``two_variation``, which
    copies it once more.
    """
    s = grid.n / 2.0
    idx = _subsample(tg.nsamples)
    times = tg.times[idx]
    coeff_scale = np.sqrt(grid.cell_volume) / np.sqrt(grid.npoints)
    flat_absk = grid.absk.ravel()
    flat_band = grid.band_of.ravel()
    flat_paired = np.broadcast_to(grid.parseval_weight == 2.0, grid.spectral_shape).ravel()
    absd = np.sqrt(grid.dk2).ravel()
    absd_inv_absk = absd * grid.inv_absk.ravel()
    Y, W = (u.reshape(tg.nsamples, grid.n, -1)[idx] for u in (Yh_ts, dYh_ts))
    variation = 0.0
    for j in range(grid.nbands):
        sel = np.nonzero(flat_band == j)[0]
        Yj, Wj = Y[:, :, sel] * absd[sel], W[:, :, sel] * absd_inv_absk[sel]
        plus, minus = (
            (Yj + sign * 1j * Wj)
            * np.exp(sign * 1j * times[:, None] * flat_absk[sel])[:, None, :]
            for sign in (+1.0, -1.0)
        )
        paired = flat_paired[sel]
        vj = 0.0
        for own, other in ((plus, minus), (minus, plus)):
            w = np.concatenate([own, other[:, :, paired]], axis=2)
            w *= coeff_scale
            vj += two_variation(w)
        variation += 2.0 ** (j * s) * vj
    return variation + gradient_besov_sup(grid, Yh_ts, s), variation


# -- the whole-trajectory Picard assembly that the in-place one replaced, as an oracle --


def whole_trajectory_duhamel(grid, tg, Fh):
    """Duhamel's integral of Fh and its d/dt, with cos/sin tables over the whole spectrum."""
    times = tg.times.reshape((-1,) + (1,) * (Fh.ndim - 1))
    cosk = np.cos(times * grid.absk)
    sink = np.sin(times * grid.absk)
    C = _cumtrapz(cosk * Fh, tg.dt)
    S = _cumtrapz(sink * Fh, tg.dt)
    out = (sink * C - cosk * S) * grid.inv_absk
    zero = (Ellipsis,) + (0,) * grid.n
    times0 = tg.times.reshape((-1,) + (1,) * (Fh.ndim - 1 - grid.n))
    T0 = _cumtrapz(Fh[zero], tg.dt)
    out[zero] = times0 * T0 - _cumtrapz(times0 * Fh[zero], tg.dt)
    dout = cosk * C + sink * S
    dout[zero] = T0
    return out, dout


def whole_trajectory_picard_map(grid, state, free):
    """``picard.picard_map`` with W_hat and Z_hat kept whole, all samples in one chunk.

    The new state is free + Z, its box the box of Z plus W, and Duhamel's
    integral of each component of W is added last; a state without a box
    (the free seed) has no forcing.
    """
    tg, pad = state.tg, (grid.n + 1) / 2
    Gf = jacobian_on_fine(grid, state.Yh, pad)
    Zh = np.moveaxis(curl_free_displacement(grid, Gf), 0, 1)
    Yh = free.Yh + Zh
    dYh = free.dYh + time_derivative(tg, Zh)
    boxYh = box_trajectory(tg, Zh, grid.k2)
    if state.boxYh is not None:
        Bf = spectrum_to_fine(grid, np.moveaxis(state.boxYh, 1, 0), pad)
        Wh = np.moveaxis(null_form(grid, Gf, Bf), 0, 1)
        boxYh += Wh
        for a in range(grid.n):
            duh, dduh = whole_trajectory_duhamel(grid, tg, Wh[:, a])
            Yh[:, a] += duh
            dYh[:, a] += dduh
    return PicardState(grid, tg, Yh, dYh, boxYh)


# -- the free wave, from fields or from the data, and its whole-lattice closed form ---


def field_free_wave(grid, f, g, t):
    """``waves.free_wave`` of the real fields f and g, seeded by their half spectra."""
    return free_wave(grid, (grid.fft(f), grid.fft(g)), t)


def free_wave_state(grid, tg, data):
    """The Picard solve's first state: the free wave of ``free_seed``, box Y not stored."""
    return PicardState(grid, tg, *free_wave(grid, free_seed(grid, data), tg.times), None)


def whole_lattice_free_wave(grid, seed, t):
    """``waves.free_wave`` with its cos/sin tables over the whole of ``grid.absk`` (the oracle).

    Y_hat = cos(t|k|) f_hat + sinc g_hat and d_t Y_hat = -|k| sin(t|k|) f_hat
    + cos(t|k|) g_hat, with sinc = sin(t|k|)/|k|, and t at the zero mode.
    """
    fh, gh = seed
    t = np.reshape(t, np.shape(t) + (1,) * np.ndim(fh))
    cosk, sink = np.cos(t * grid.absk), np.sin(t * grid.absk)
    sinc = np.where(grid.absk > 0, sink * grid.inv_absk, t)
    return cosk * fh + sinc * gh, -grid.absk * sink * fh + cosk * gh
