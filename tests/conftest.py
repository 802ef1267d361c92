import numpy as np
import pytest

from hkel.diagnostics import gradient_besov_norms, s_surrogate
from hkel.direct import DirectState, direct_step
from hkel.elastic import _accumulate_terms, _minor_terms, det_residual
from hkel.spectral import Grid, _fine_size, _placements, pad_to_fine, truncate_from_fine
from hkel.waves import second_time_derivative, time_derivative


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
        for src, dst in _placements(grid, big, plus):
            fine[(Ellipsis,) + dst + cols] += low[(Ellipsis,) + src + cols]
    for src, dst in _placements(grid, big, True):
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
        for src, dst in _placements(grid, big, plus):
            uh[(Ellipsis,) + src + cols] += fh[(Ellipsis,) + dst + cols]
    uh[..., :half] *= 0.5
    for src, dst in _placements(grid, big, True):
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

    def gradient(self, u):
        uh = self.fft(u)
        return np.stack([self.ifft(uh * (1j * k)) for k in self.dfreq])

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


def physical_run_direct(grid, data, cfg):
    """The leapfrog's physical Y, central-difference velocity and box trajectories."""
    tg = cfg.time_grid()
    Y = np.empty((tg.nsamples, grid.n) + grid.shape)
    Y[0] = data.f
    state = DirectState(data.f.copy(), data.g.copy(), None, None, None)
    for m in range(1, tg.nsamples):
        state = direct_step(grid, state, tg.dt, cfg.pressure_tol, cfg.pressure_max_iter)
        Y[m] = state.Y
    dY = time_derivative(tg, Y)
    dY[0] = data.g
    return Y, dY, second_time_derivative(tg, Y) - grid.laplacian(Y)


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
    total, _ = s_surrogate(grid, tg, np.stack([grid.fft(u) for u in Y]),
                           np.stack([grid.fft(u) for u in dY]))
    return np.array(rows), total
