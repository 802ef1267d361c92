import numpy as np
import pytest

from hkel.spectral import Grid


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
