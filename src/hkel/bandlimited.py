"""Band-limited trigonometric polynomials with off-lattice evaluation.

Random initial data is built from a handful of low Fourier modes.  Keeping
the modes explicit (instead of only grid samples) lets shear compositions
evaluate fields exactly at displaced points, which is what keeps the
volume-preserving data generators exact to interpolation accuracy.

All components of a field share one mode set and one phase table per chunk
of modes.  No step calls BLAS (the phases add up in axis order, numpy's own
``einsum`` loops contract them), so the data's bits do not depend on the
OpenBLAS kernel.

"Unit sup norm" below is a lattice maximum: ``_sup_estimate`` takes the
largest value on 4(band+1) points per axis, and between them a field is
larger.  ``random_divergence_free(Generator(Philox(s)), n, 2)``, s = 0 to 7,
reaches a largest component value of 1.006 to 1.080 on a 256^2 lattice and
1.027 to 1.139 on a 64^3 one, so ``epsilon`` times such a field has a sup
norm up to 8% (2D) and 14% (3D) above ``epsilon``.
"""

import numpy as np


class TrigPoly:
    """Real trigonometric polynomial sum_m Re(c_m exp(i k_m . x)), one or c components.

    modes : int array (m, n) of frequency vectors
    coeffs : complex array (m,), or (c, m) for c components on the same modes

    Realness is by construction of the evaluation: only the real part is
    returned, so no Hermitian pairing of the stored modes is required.
    """

    def __init__(self, modes, coeffs):
        self.modes = np.atleast_2d(np.asarray(modes, dtype=np.int64))
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.modes.shape[0] != self.coeffs.shape[-1]:
            raise ValueError("mode/coefficient count mismatch")

    @property
    def n(self):
        return self.modes.shape[1]

    def __call__(self, points):
        """Evaluate at points of shape (n, ...); returns (...) or, for c components, (c, ...)."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(self.n, -1)
        lead = self.coeffs.shape[:-1]
        out = np.zeros(lead + flat.shape[1:])
        # chunk the mode/point phase table; fixed order keeps it reproducible
        chunk = max(1, 2**22 // max(flat.shape[1], 1))
        for i0 in range(0, len(self.modes), chunk):
            k = self.modes[i0 : i0 + chunk].T.astype(float)
            phases = sum(k_a[:, None] * x_a for k_a, x_a in zip(k, flat))  # in axis order
            c = self.coeffs[..., i0 : i0 + chunk]
            out += np.einsum("...m,mp->...p", c.real, np.cos(phases))
            out -= np.einsum("...m,mp->...p", c.imag, np.sin(phases))
        return out.reshape(lead + points.shape[1:])

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
    lead = mesh[np.arange(len(mesh)), np.argmax(mesh != 0, axis=1)]  # first nonzero entry
    return mesh[lead > 0]  # representative of the {k, -k} pair


def _unit_coeffs(rng, modes, count):
    """(count, m) coefficients of random unit-sup polynomials on ``modes``, real parts first."""
    m = len(modes)
    poly = TrigPoly(modes, [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(count)])
    return poly.coeffs * (1.0 / _sup_estimate(poly)[:, None])


def random_scalar(rng, n, band, exclude_axis=None):
    """Random band-limited mean-free scalar, normalized to unit sup norm.

    With ``exclude_axis`` set, the polynomial does not depend on that
    coordinate (its modes have a zero entry there), as needed for shears.
    """
    modes = _band_modes(n, band, fixed_zero_axis=exclude_axis)
    return TrigPoly(modes, _unit_coeffs(rng, modes, 1)[0])


def random_divergence_free(rng, n, band):
    """Random band-limited divergence-free vector field, unit sup norm, as one n-component poly.

    n=2 uses a stream function, n=3 the curl of a vector potential, so the
    divergence vanishes identically, not just on the sampling lattice.  The
    components' coefficients are formed on the potentials' shared modes.
    """
    modes = _band_modes(n, band)
    ik, c = 1j * modes.T, _unit_coeffs(rng, modes, 1 if n == 2 else 3)
    if n == 2:
        coeffs = [ik[1] * c[0], -(ik[0] * c[0])]
    else:
        coeffs = [ik[1] * c[2] - ik[2] * c[1],
                  ik[2] * c[0] - ik[0] * c[2],
                  ik[0] * c[1] - ik[1] * c[0]]
    field = TrigPoly(modes, coeffs)
    return field.scaled(1.0 / _sup_estimate(field).max())


def _sup_estimate(poly):
    """Max |p| per component (``coeffs.shape[:-1]``) on a lattice fine enough for low bands."""
    size = 4 * (int(np.abs(poly.modes).max()) + 1)
    pts = np.meshgrid(*([2 * np.pi * np.arange(size) / size] * poly.n), indexing="ij")
    return np.abs(poly(pts)).reshape(poly.coeffs.shape[:-1] + (-1,)).max(axis=-1)
