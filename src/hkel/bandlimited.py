"""Band-limited trigonometric polynomials with off-lattice evaluation.

Random initial data is built from a handful of low Fourier modes.  Keeping
the modes explicit (instead of only grid samples) lets shear compositions
evaluate fields exactly at displaced points, which is what keeps the
volume-preserving data generators exact to interpolation accuracy.
"""

import numpy as np


class TrigPoly:
    """Real trigonometric polynomial sum_m Re(c_m exp(i k_m . x)).

    modes : int array (m, n) of frequency vectors
    coeffs : complex array (m,)

    Realness is by construction of the evaluation: only the real part is
    returned, so no Hermitian pairing of the stored modes is required.
    """

    def __init__(self, modes, coeffs):
        self.modes = np.atleast_2d(np.asarray(modes, dtype=np.int64))
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.modes.shape[0] != self.coeffs.shape[0]:
            raise ValueError("mode/coefficient count mismatch")

    @property
    def n(self):
        return self.modes.shape[1]

    def __call__(self, points):
        """Evaluate at points of shape (n, ...); returns shape (...)."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(self.n, -1)
        out = np.zeros(flat.shape[1])
        # chunk the mode/point phase matrix; fixed order keeps it reproducible
        chunk = max(1, 2**22 // max(flat.shape[1], 1))
        for i0 in range(0, len(self.modes), chunk):
            phases = self.modes[i0 : i0 + chunk].astype(float) @ flat
            out += np.cos(phases).T @ self.coeffs.real[i0 : i0 + chunk]
            out -= np.sin(phases).T @ self.coeffs.imag[i0 : i0 + chunk]
        return out.reshape(points.shape[1:])

    def deriv(self, axis):
        return TrigPoly(self.modes, self.coeffs * (1j * self.modes[:, axis]))

    def scaled(self, factor):
        return TrigPoly(self.modes, self.coeffs * factor)


def _band_modes(n, band, fixed_zero_axis=None):
    """All nonzero integer modes with |k|_inf <= band, one per Hermitian pair."""
    rng_axes = [np.arange(-band, band + 1)] * n
    if fixed_zero_axis is not None:
        rng_axes[fixed_zero_axis] = np.array([0])
    mesh = np.stack(np.meshgrid(*rng_axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = []
    for k in mesh:
        if not k.any():
            continue
        nz = k[np.nonzero(k)[0][0]]
        if nz > 0:  # representative of the {k, -k} pair
            keep.append(k)
    return np.array(keep, dtype=np.int64)


def random_scalar(rng, n, band, exclude_axis=None):
    """Random band-limited mean-free scalar, normalized to unit sup norm.

    With ``exclude_axis`` set, the polynomial does not depend on that
    coordinate (its modes have a zero entry there), as needed for shears.
    """
    modes = _band_modes(n, band, fixed_zero_axis=exclude_axis)
    coeffs = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    poly = TrigPoly(modes, coeffs)
    return poly.scaled(1.0 / _sup_estimate(poly))


def random_divergence_free(rng, n, band):
    """Random band-limited divergence-free vector field, unit sup norm.

    n=2 uses a stream function, n=3 the curl of a vector potential, so the
    divergence vanishes identically, not just on the sampling lattice.
    """
    if n == 2:
        psi = random_scalar(rng, 2, band)
        comps = [psi.deriv(1), psi.deriv(0).scaled(-1.0)]
    else:
        pot = [random_scalar(rng, 3, band) for _ in range(3)]
        comps = [
            _poly_sub(pot[2].deriv(1), pot[1].deriv(2)),
            _poly_sub(pot[0].deriv(2), pot[2].deriv(0)),
            _poly_sub(pot[1].deriv(0), pot[0].deriv(1)),
        ]
    sup = max(_sup_estimate(c) for c in comps)
    return [c.scaled(1.0 / sup) for c in comps]


def _poly_sub(a, b):
    return TrigPoly(
        np.concatenate([a.modes, b.modes]), np.concatenate([a.coeffs, -b.coeffs])
    )


def _sup_estimate(poly):
    # crude but deterministic: sample on a lattice fine enough for low bands
    size = 4 * (int(np.abs(poly.modes).max()) + 1)
    x1 = 2 * np.pi * np.arange(size) / size
    pts = np.stack(np.meshgrid(*([x1] * poly.n), indexing="ij"))
    return float(np.abs(poly(pts)).max())
