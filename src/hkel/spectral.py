"""Periodic grids, Fourier multiplier calculus, and dealiased products.

Fields are plain float64 ndarrays sampled on the 2*pi-periodic lattice.
Spatial axes come last: a scalar field has shape ``grid.shape``, a vector
field ``(n,) + grid.shape`` and a matrix field ``(n, n) + grid.shape``.
Every operation broadcasts over leading (component or time) axes, so the
same code path serves scalars, Jacobians and whole trajectories.

The frequency lattice is the integer dual lattice xi in {-N/2, ..., N/2-1}
per axis.  Fields are real, so their spectra are Hermitian and every
transform is a real one (rfftn/irfftn): spectra and multipliers live on the
half lattice ``grid.spectral_shape = shape[:-1] + (N/2 + 1,)``, whose last
axis holds the columns 0..N/2.  Its last column is the Nyquist index, read
as -N/2 like the leading axes' Nyquist index.  Columns 0 and N/2 are
self-paired under xi -> -xi; every interior column stands for itself and
its conjugate partner, so Parseval sums weight it by 2
(``grid.parseval_weight``).  Multipliers with an inverse power of |xi| set
the zero mode to zero; on physical fields they reject inputs whose mean is
not negligible.

Pointwise products are formed on a finer lattice of pad * N points per
axis (an even integer >= N), reached through rfftn half spectra; a product
of d factors is alias-free once pad >= (d + 1) / 2.  Between the lattices
numpy's 1D passes run in irfftn/rfftn order, in place, on only the lines a
coarse spectrum reaches; numpy transforms each line alone, so the result is
bitwise that of irfftn/rfftn.
"""

import math
from functools import cache
from itertools import product

import numpy as np

MEAN_FREE_RTOL = 1e-10
# bytes of one chunk of G on the product lattice: about one core's L2 cache
CHUNK_BYTES = 2**21


def fine_sample_bytes(n, size):
    """Bytes of one time sample of G, n^2 float64 fields, on the (2 N)^n product lattice."""
    return 8 * n**2 * (2 * size) ** n


class Grid:
    """Uniform periodic lattice on the n-torus with frequency bookkeeping.

    Parameters
    ----------
    n : spatial dimension, 2 or 3.
    size : points per axis N, a power of two, N >= 8.
    """

    def __init__(self, n, size):
        if n not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {n}")
        if size < 8 or size & (size - 1) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {size}")
        self.n = n
        self.size = size
        self.shape = (size,) * n
        self.axes = tuple(range(-n, 0))
        self.npoints = size**n
        # cell volume and L2 weight on the 2*pi torus
        self.cell_volume = (2 * np.pi / size) ** n

        k1 = np.fft.fftfreq(size, d=1.0 / size)  # integer frequencies as floats
        half = size // 2
        self.spectral_shape = self.shape[:-1] + (half + 1,)
        # The lattice window {-N/2..N/2-1} holds the unpaired Nyquist line
        # -N/2, which is also where the last axis reads its column N/2.  Real
        # fields are read as symmetric trig interpolants, whose odd-order
        # derivatives vanish at the sample points on that line, so
        # first-order multipliers use dfreq with the Nyquist entry zeroed.
        d1 = np.where(np.abs(k1) == half, 0.0, k1)
        self.freq = []
        self.dfreq = []
        for a in range(n):
            sh = [1] * n
            sh[a] = self.spectral_shape[a]
            self.freq.append(k1[: sh[a]].reshape(sh))
            self.dfreq.append(d1[: sh[a]].reshape(sh))
        # i dfreq_b stacked over b: one inverse transform gives every derivative
        self.idfreq = np.stack([1j * np.broadcast_to(d, self.spectral_shape) for d in self.dfreq])
        self.k2 = sum(k * k for k in self.freq) + np.zeros(self.spectral_shape)
        # |d|^2: grad u has the spectrum i dfreq_b u_hat, so the power of grad u
        # at a mode is |d|^2 |u_hat|^2
        self.dk2 = sum(k * k for k in self.dfreq) + np.zeros(self.spectral_shape)
        self.absk = np.sqrt(self.k2)
        nonzero = self.k2 > 0
        self.inv_k2 = np.where(nonzero, 1.0 / np.where(nonzero, self.k2, 1.0), 0.0)
        self.inv_absk = np.where(nonzero, 1.0 / np.where(nonzero, self.absk, 1.0), 0.0)
        # i dfreq_b |xi|^-2, 0 at the zero mode: d_a of its product with u_hat is R_a R_b u
        self.idfreq_inv_k2 = self.idfreq * self.inv_k2
        # Parseval weight of a half-lattice mode: interior columns count twice
        weight = np.full(half + 1, 2.0)
        weight[[0, half]] = 1.0
        self.parseval_weight = weight.reshape((1,) * (n - 1) + (half + 1,))

        # sharp dyadic shells 2^j <= |xi| < 2^(j+1); the zero mode gets -1
        self.nbands = int(math.log2(half)) + 1
        with np.errstate(divide="ignore"):
            j = np.floor(np.log2(np.where(nonzero, self.absk, 1.0))).astype(np.int64)
        self.band_of = np.where(nonzero, j, -1)
        assert self.band_of.max() == self.nbands - 1

        # physical window: modes below the unpaired Nyquist line on every axis
        mask = np.ones(self.spectral_shape, dtype=bool)
        for a in range(n):
            mask &= np.abs(self.freq[a]) < half
        self.phys_mask = mask

        x1 = 2 * np.pi * np.arange(size) / size
        self.coords = np.stack(np.meshgrid(*([x1] * n), indexing="ij"))

    def __repr__(self):
        return f"Grid(n={self.n}, size={self.size})"

    # -- transforms -------------------------------------------------------

    def fft(self, u):
        """Half spectrum of a real field, on ``spectral_shape``."""
        return np.fft.rfftn(np.asarray(u), axes=self.axes)

    def ifft(self, uh):
        """Real field of a half spectrum (the inverse of ``fft``)."""
        return np.fft.irfftn(uh, s=self.shape, axes=self.axes)

    def l2(self, u):
        """L2 norm over the torus, l2 over any leading component axes."""
        u = np.asarray(u)
        return math.sqrt(self.cell_volume * float(np.sum(u * u)))

    def spectral_l2(self, uh):
        """``l2`` of the real field whose half spectrum is uh, by Parseval."""
        return math.sqrt(self.sample_sq_l2(uh[None])[0])

    def sample_sq_l2(self, uh, weight=1.0):
        """Squared ``l2`` per sample of uh's leading axis by Parseval, mode powers times weight."""
        power = (uh.real**2 + uh.imag**2) * (weight * self.parseval_weight)
        return power.reshape(len(uh), -1).sum(axis=1) * (self.cell_volume / self.npoints)

    def samples_per_chunk(self):
        """Time samples whose G on the product lattice fits ``CHUNK_BYTES``, at least 1."""
        return max(1, CHUNK_BYTES // fine_sample_bytes(self.n, self.size))

    def chunks(self, nsamples, every=1):
        """Slices of the samples 0, every, 2 every, ... < nsamples, ``samples_per_chunk`` each."""
        span = every * self.samples_per_chunk()
        for m0 in range(0, nsamples, span):
            yield slice(m0, min(m0 + span, nsamples), every)

    def require_mean_free(self, u, what="field"):
        u = np.asarray(u)
        m = np.abs(u.mean(axis=self.axes))
        scale = np.sqrt(np.mean(u * u, axis=self.axes))
        if np.any(m > MEAN_FREE_RTOL * np.maximum(scale, 1e-300)):
            raise ValueError(
                f"{what} must be mean-free: |mean| = {float(np.max(m)):.3e} "
                f"exceeds {MEAN_FREE_RTOL:g} * rms"
            )

    # -- first-order calculus ---------------------------------------------

    def jacobian(self, v):
        """Jacobian G[a, b] = d_b v_a of a vector field (component axis just before space).

        Leading axes broadcast: a trajectory (M, n) + shape gives (M, n, n) + shape,
        and a scalar field gives its gradient, (n,) + shape.
        """
        return self.jacobian_of_spectrum(self.fft(v))

    def jacobian_of_spectrum(self, vh):
        """``jacobian`` of the field whose half spectrum is vh: one transform of i dfreq_b vh_a."""
        return self.ifft(np.expand_dims(vh, -self.n - 1) * self.idfreq)

    def divergence(self, v):
        """Divergence, the trace of ``jacobian`` (component axis just before space)."""
        return np.trace(self.jacobian(v), axis1=-self.n - 2, axis2=-self.n - 1)

    def riesz(self, u, i):
        """Riesz-type operator with multiplier i*xi_i/|xi|, zero mode 0."""
        self.require_mean_free(u, "riesz input")
        return self.ifft(self.fft(u) * (1j * self.dfreq[i] * self.inv_absk))

    def leray_project(self, v):
        """Divergence-free part v - grad(inv_lap(div v)), components just before space."""
        v = np.asarray(v)
        if v.ndim <= self.n or v.shape[-self.n - 1] != self.n:
            raise ValueError("leray_project expects a vector field")
        self.require_mean_free(v, "leray_project input")
        return self.ifft(self.leray_of_spectrum(self.fft(v)))

    def leray_of_spectrum(self, vh):
        """Half spectrum of ``leray_project`` of the vector field whose half spectrum is vh."""
        # freq is even under xi -> -xi (mod N) on a Nyquist plane, so xi xi^T
        # is not Hermitian there; a real field sees only its Hermitian part
        # d d^T + e e^T, with d = dfreq and the Nyquist part e = freq - dfreq.
        vh = np.moveaxis(vh, -self.n - 1, 0)
        nyq = [f - d for f, d in zip(self.freq, self.dfreq)]
        ddotv = sum(self.dfreq[a] * vh[a] for a in range(self.n))
        edotv = sum(nyq[a] * vh[a] for a in range(self.n))
        out = np.empty_like(vh)
        for a in range(self.n):
            out[a] = vh[a] - (self.dfreq[a] * ddotv + nyq[a] * edotv) * self.inv_k2
        return np.moveaxis(out, 0, -self.n - 1)

    # -- dyadic shells ------------------------------------------------------

    def dyadic_project(self, u, j):
        """Sharp restriction to the frequency shell 2^j <= |xi| < 2^(j+1)."""
        if not 0 <= j < self.nbands:
            raise ValueError(f"band index must be in 0..{self.nbands - 1}, got {j}")
        return self.ifft(self.fft(u) * (self.band_of == j))

    def band_l2_of_power(self, power):
        """Per-band L2 norms from a power spectrum |u_hat|^2 on ``spectral_shape``.

        Parseval on the half lattice: interior columns count twice.
        """
        return self.band_l2_of_sums(np.bincount(
            (self.band_of + 1).ravel(),
            weights=(power * self.parseval_weight).ravel(),
            minlength=self.nbands + 1,
        ))

    def band_l2_of_sums(self, sums):
        """``band_l2_of_power`` from the weighted power's sums over ``band_of + 1``, 0 to nbands."""
        return np.sqrt(sums[1:] * self.cell_volume / self.npoints)


def random_mean_free(grid, rng, band=None):
    """Random mean-free scalar samples on the physical frequency window.

    With ``band`` set, modes are restricted to |xi|_inf <= band; otherwise
    the full window short of the unpaired Nyquist line is used.  RMS is
    normalized to 1.
    """
    u = rng.standard_normal(grid.shape)
    uh = grid.fft(u)
    half = grid.size // 2
    for a in range(grid.n):
        mask = np.abs(grid.freq[a]) >= (half if band is None else band + 1)
        uh = np.where(mask, 0.0, uh)
    uh[(0,) * grid.n] = 0.0
    u = grid.ifft(uh)
    return u / np.sqrt(np.mean(u * u))


# -- dealiased pointwise products ------------------------------------------


def _fine_size(grid, pad):
    """Points per axis of the pad-times finer lattice; must be even and >= N."""
    big = pad * grid.size
    if big != int(big) or int(big) % 2 or big < grid.size:
        raise ValueError(
            f"pad {pad} gives {big} fine points per axis for N = {grid.size}; "
            "need an even integer >= N"
        )
    return int(big)


@cache
def _placements(n, size, big, plus):
    """Block copies that place the leading axes of a coarse spectrum on the fine one.

    (coarse, fine) index tuples over the n - 1 leading axes of an N = ``size``
    grid, built once per lattice.  Each axis keeps its nonnegative indices at
    the front and its negative ones at the back; the unpaired Nyquist index
    N/2 goes to -N/2 on every axis, or with ``plus`` to +N/2 on every axis.
    """
    cut = size // 2 + (1 if plus else 0)
    blocks = ((slice(0, cut), slice(0, cut)), (slice(cut, size), slice(big - size + cut, big)))
    return tuple((tuple(c for c, _ in combo), tuple(f for _, f in combo))
                 for combo in product(blocks, repeat=n - 1))


def _leading_passes(grid, a, big, transform, order):
    """``transform`` in place along the leading axes -n + k, k in ``order``.

    Only on lines whose later leading indices are rows 0..N/2 or big - N/2..,
    the rows a coarse spectrum fills and truncation reads.
    """
    n, half = grid.n, grid.size // 2
    slabs = (slice(0, half + 1), slice(max(half + 1, big - half), big))
    for k in order:
        for rows in product(slabs, repeat=n - 2 - k):
            view = a[(Ellipsis,) + (slice(None),) * (k + 1) + rows + (slice(None),)]
            transform(view, axis=k - n, out=view)


def pad_to_fine(grid, u, pad):
    """Trigonometric interpolation of real u onto the pad-times finer lattice."""
    return spectrum_to_fine(grid, grid.fft(u), pad)


def spectrum_to_fine(grid, uh, pad):
    """The real field on the pad-times finer lattice of a half spectrum on the grid.

    ``pad * N`` must be an even integer >= N (``ValueError`` otherwise); a
    product of ``d`` factors is alias-free once ``pad >= (d + 1) / 2``.
    The unpaired Nyquist index means what it means on the grid: the real
    part of the interpolant with that mode at -N/2.  So on the columns
    0..N/2-1 a coefficient goes half to the slot with all its leading-axis
    Nyquist indices at -N/2 and half to the slot with them at +N/2 (one
    slot, full weight, when it has none), and the last-axis Nyquist column
    goes half to +N/2, with its leading Nyquist indices at +N/2; the half
    spectrum implies the conjugate half.  At ``pad * N == N`` the slots
    coincide.  Staged on the columns 0..N/2 only: ``ifft`` runs along axes
    -n..-2 on the occupied lines, then ``irfft`` pads the last axis.
    """
    big = _fine_size(grid, pad)
    n, half = grid.n, grid.size // 2
    scale = (big / grid.size) ** n
    cols = (slice(0, half),)
    low = uh[..., :half] * (0.5 * scale)
    nyq = uh[..., half] * ((0.5 if big > grid.size else 1.0) * scale)
    fine = np.zeros(uh.shape[:-n] + (big,) * (n - 1) + (half + 1,), dtype=complex)
    for plus in (False, True):
        for src, dst in _placements(n, grid.size, big, plus):
            fine[(Ellipsis,) + dst + cols] += low[(Ellipsis,) + src + cols]
    for src, dst in _placements(n, grid.size, big, True):
        fine[(Ellipsis,) + dst + (half,)] = nyq[(Ellipsis,) + src]
    _leading_passes(grid, fine, big, np.fft.ifft, range(n - 1))
    return np.fft.irfft(fine, n=big, axis=-1)


def jacobian_on_fine(grid, Yh, pad):
    """G[a, b] = d_b Y_a on the pad lattice, (n, n, time) + fine, from spectra (time, n) + half."""
    Yh = np.moveaxis(Yh, 1, 0)
    return spectrum_to_fine(grid, Yh[:, None] * grid.idfreq[:, None], pad)


def truncate_from_fine(grid, u_fine, pad):
    """Project a real fine-lattice field back onto the grid's frequency window."""
    return grid.ifft(fine_to_spectrum(grid, u_fine, pad))


def fine_to_spectrum(grid, u_fine, pad):
    """Half spectrum on the grid of a real fine-lattice field, truncated to its window.

    The mirror of ``spectrum_to_fine``: the columns 0..N/2-1 average the
    slots with the leading-axis Nyquist indices at -N/2 and at +N/2, and the
    last-axis Nyquist column is read at +N/2.  ``rfft`` runs along the last
    axis, then ``fft`` along axes -2..-n on the columns 0..N/2 and read rows.
    """
    big = _fine_size(grid, pad)
    n, half = grid.n, grid.size // 2
    fh = np.fft.rfft(u_fine, axis=-1)[..., : half + 1]
    _leading_passes(grid, fh, big, np.fft.fft, range(n - 2, -1, -1))
    cols = (slice(0, half),)
    uh = np.zeros(fh.shape[:-n] + (grid.size,) * (n - 1) + (half + 1,), dtype=complex)
    for plus in (False, True):
        for src, dst in _placements(n, grid.size, big, plus):
            uh[(Ellipsis,) + src + cols] += fh[(Ellipsis,) + dst + cols]
    uh[..., :half] *= 0.5
    for src, dst in _placements(n, grid.size, big, True):
        uh[(Ellipsis,) + src + (half,)] = fh[(Ellipsis,) + dst + (half,)]
    return uh / (big / grid.size) ** n


def dealiased_product(grid, factors):
    """Alias-free pointwise product of band-limited fields, in argument order.

    The factors are interpolated onto a lattice refined by the smallest
    integer pad >= (d + 1) / 2 for d factors, multiplied there, and
    truncated back.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("dealiased_product needs at least one factor")
    if len(factors) == 1:
        return np.asarray(factors[0], dtype=float).copy()
    pad = (len(factors) + 2) // 2
    prod = pad_to_fine(grid, factors[0], pad)
    for f in factors[1:]:
        prod = prod * pad_to_fine(grid, f, pad)
    return truncate_from_fine(grid, prod, pad)
