"""Incompressible Hookean elasticity algebra on Jacobian fields.

A Jacobian field G stores G[a, b] = d_b Y_a (component first, derivative
second).  The incompressibility constraint det(I + G) = 1 expands into
trace(G) plus the principal-minor sums E_k(G), and those minors drive both
the curl-free reconstruction and the compatibility checks.

Minors of true Jacobian fields are null Lagrangians, so their means vanish
in exact arithmetic; the Riesz multipliers below vanish at the zero mode,
so the rounding-level mean drops out.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .bandlimited import random_divergence_free, random_scalar
from .spectral import fine_to_spectrum, jacobian_on_fine, pad_to_fine, spectrum_to_fine


@dataclass
class InitialData:
    """Displacement/velocity pair (f, g) at t = 0."""

    f: np.ndarray  # (n,) + grid.shape
    g: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.f.shape != self.g.shape:
            raise ValueError("f and g must have the same shape")


def _det_terms(rows, cols=None):
    """Leibniz terms (sign, [(row, col), ...]) of det(A[rows, cols]), cols = rows by default."""
    cols = rows if cols is None else cols
    return [
        (_parity(perm), [(rows[i], cols[perm[i]]) for i in range(len(rows))])
        for perm in permutations(range(len(rows)))
    ]


def _minor_terms(n, orders):
    """Leibniz terms of every principal minor of each order in ``orders``."""
    terms = []
    for k in orders:
        for subset in combinations(range(n), k):
            terms.extend(_det_terms(subset))
    return terms


def _cofactor_terms(n, a, b):
    """Leibniz terms of the (a, b) cofactor of an n x n matrix, its sign folded in."""
    rows = [r for r in range(n) if r != a]
    cols = [c for c in range(n) if c != b]
    return [((-1) ** (a + b) * sign, entries) for sign, entries in _det_terms(rows, cols)]


def _parity(perm):
    """+1 for an even permutation, -1 for an odd one (inversion count)."""
    inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def _accumulate_terms(stack, terms):
    """Sum signed entry products in a fixed order.

    Each term is (sign, [index, ...]); every index picks one field out of
    ``stack``, factors multiply left to right and terms add in list order.
    """
    acc = np.zeros(stack.shape[len(terms[0][1][0]) :])
    for sign, entries in terms:
        prod = stack[entries[0]].copy()
        for ix in entries[1:]:
            prod *= stack[ix]
        acc += sign * prod
    return acc


def minor_sum_total(grid, G):
    """E_2(G) + ... + E_n(G) with one shared padded transform, on the pad-2 lattice."""
    return grid.ifft(_minor_sum_spectrum(grid, pad_to_fine(grid, np.asarray(G), 2)))


def _minor_sum_spectrum(grid, G_fine):
    """Half spectrum of E_2(G) + ... + E_n(G), truncated from the lattice of ``G_fine``."""
    terms = _minor_terms(grid.n, range(2, grid.n + 1))
    return fine_to_spectrum(grid, _accumulate_terms(G_fine, terms), G_fine.shape[-1] / grid.size)


def curl_free_displacement(grid, G_fine):
    """Half spectrum of the curl-free displacement slaved to the constraint.

    Z_hat[a] = i xi_a |xi|^-2 s_hat with s = sum_k E_k(G), so grad Z is the
    Riesz-Hessian R_a R_b s, whose trace is -s off the Nyquist planes.
    ``G_fine`` is G on a product lattice fine enough for the degree-n minor
    (its pad read from its shape), with any extra (time) axes between its
    component and spatial axes; Z_hat is (n,) + those + ``spectral_shape``.
    """
    sh = _minor_sum_spectrum(grid, G_fine)
    return np.stack([sh * m for m in grid.idfreq_inv_k2])


def null_form(grid, G_fine, H_fine):
    """Half spectrum of the displacement whose gradient is the null-form coupling.

    W_hat[a] = sum_k i xi_k |xi|^-2 B_hat[a, k], so grad W[a, b] is
    sum_k R_b R_k B[a, k], with the bracket
    B[a, k] = sum_l (G[l, a] H[l, k] - G[l, k] H[l, a]) of G and H = box(G);
    B is stored exactly antisymmetrically, so div W vanishes up to rounding.

    ``G_fine`` and ``H_fine`` are G and H on the product lattice of the
    brackets (its pad read from their shape), with any extra (time) axes
    between the component and spatial axes; W_hat is (n,) + those +
    ``spectral_shape``.
    """
    n, Gf, Hf = grid.n, G_fine, H_fine
    pad = Gf.shape[-1] / grid.size
    Bh = np.zeros((n, n) + Gf.shape[2 : Gf.ndim - n] + grid.spectral_shape, dtype=complex)
    for a in range(n):
        for k in range(a + 1, n):
            acc = Gf[0, a] * Hf[0, k] - Gf[0, k] * Hf[0, a]
            for l in range(1, n):
                acc += Gf[l, a] * Hf[l, k] - Gf[l, k] * Hf[l, a]
            Bh[a, k] = fine_to_spectrum(grid, acc, pad)
            Bh[k, a] = -Bh[a, k]
    return np.stack([sum(Bh[a, k] * grid.idfreq_inv_k2[k] for k in range(n)) for a in range(n)])


# -- pointwise matrix algebra ------------------------------------------------


def _cofactor(M, a, b):
    """The (a, b) cofactor of a matrix field: its signed Leibniz minor."""
    return _accumulate_terms(M, _cofactor_terms(len(M), a, b))


def det_pointwise(M):
    """Pointwise determinant of a matrix field, expanded along its first row."""
    M = np.asarray(M)
    return sum(M[0, b] * _cofactor(M, 0, b) for b in range(len(M)))


def cofactor_pointwise(M):
    """Pointwise cofactor matrix of a matrix field."""
    M = np.asarray(M)
    return np.array([[_cofactor(M, a, b) for b in range(len(M))] for a in range(len(M))])


INVERSE_DET_TOL = 0.5


def inverse_pointwise(M):
    """Pointwise inverse by cofactors; valid only near det = 1.

    Raises if the determinant strays from 1 by more than ``INVERSE_DET_TOL``
    at any grid point (large deformation, outside the small-data regime).
    """
    M = np.asarray(M)
    cof = cofactor_pointwise(M)
    det = sum(M[0, b] * cof[0, b] for b in range(len(M)))  # det_pointwise's expansion
    bad = np.abs(det - 1.0) > INVERSE_DET_TOL
    if np.any(bad):
        loc = np.unravel_index(int(np.argmax(np.abs(det - 1.0))), det.shape)
        raise ValueError(
            f"pointwise Jacobian determinant {det[loc]:.4f} at grid point {loc} "
            f"is farther than {INVERSE_DET_TOL} from 1"
        )
    return np.swapaxes(cof, 0, 1) / det


def det_residual(G):
    """max |det(I + G) - 1| over the grid, from pointwise determinants."""
    n = G.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (G.ndim - 2))
    return float(np.abs(det_pointwise(eye + G) - 1.0).max())


# -- compatibility -----------------------------------------------------------


def _cofactor_trace_terms(n):
    """Leibniz terms of sum_{a,b} cof(M)[a, b] * A[a, b] over the stack (M, A).

    The last factor of each term is A[a, b].
    """
    return [
        (sign, [(0, r, c) for r, c in entries] + [(1, a, b)])
        for a in range(n)
        for b in range(n)
        for sign, entries in _cofactor_terms(n, a, b)
    ]


def compatibility_residuals(grid, data):
    """Max-norm residuals of the volume and velocity compatibility conditions.

    Returns (r1, r2) with r1 = max|det(I + grad f) - 1| and r2 the max of
    the exact time derivative of det(grad X) at t = 0, written as
    sum_{a,b} cof(grad X)[a, b] d_b g_a = det(grad X) tr((grad X)^-1 grad g)
    without inverting.  Both maxima are taken on the product-resolving fine
    lattice, where the dealiased products are exact point values.
    """
    n = grid.n
    gradX = grid.jacobian(data.f)
    for a in range(n):
        gradX[a, a] += 1.0
    # pad 2 in 2D too: the maxima are read at these fine lattice points
    gradXf = pad_to_fine(grid, gradX, 2)
    Gfine = gradXf.copy()
    for a in range(n):
        Gfine[a, a] -= 1.0
    trace = sum(Gfine[a, a] for a in range(n))
    minors = _accumulate_terms(Gfine, _minor_terms(n, range(2, n + 1)))
    r1 = float(np.abs(trace + minors).max())

    stack = np.stack([gradXf, pad_to_fine(grid, grid.jacobian(data.g), 2)])
    r2 = float(np.abs(_accumulate_terms(stack, _cofactor_trace_terms(n))).max())
    return r1, r2


# -- volume-preserving data generators ----------------------------------------


def make_shear_data(grid, amplitude, seed, band=2, nshears=None):
    """Compatible initial data from composed coordinate shears.

    Each shear displaces one coordinate by a band-limited function of the
    others, so its Jacobian is unit-triangular and the composition has
    det(I + grad f) = 1 exactly.  The velocity is g(y) = v(y + f(y)) with
    div v = 0, which zeroes the velocity compatibility residual exactly in
    the continuum and to interpolation accuracy on the lattice.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    n = grid.n
    if nshears is None:
        nshears = n
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = grid.coords.copy()
    for s in range(nshears):
        axis = s % n
        phi = random_scalar(rng, n, band, exclude_axis=axis)
        points[axis] = points[axis] + amplitude * phi(points)
    f = points - grid.coords
    v = random_divergence_free(rng, n, band)
    g = np.stack([amplitude * comp(points) for comp in v])
    # remove the rounding-level translation mode; gradients are unchanged
    f -= f.mean(axis=grid.axes, keepdims=True)
    g -= g.mean(axis=grid.axes, keepdims=True)
    return InitialData(f, g)


# -- pressure ------------------------------------------------------------------


def recover_pressure(grid, Yh, boxYh):
    """Curl residual of the momentum balance per sample, from the half spectra of Y and box Y.

    The elastic acceleration balance reads (I + G^T) box(Y) = -grad p, so the
    residual ||leray(w)|| / ||w|| (0 where w = 0) of w = (I + G^T) box(Y),
    mean removed, measures how far w is from a pure gradient.  Yh and boxYh
    are (time, n) + ``spectral_shape``; the residual has shape (time,).  G and
    box Y are placed on the pad-3/2 lattice, where quadratic products are
    alias-free, sum_l G[l, b] boxY[l] is accumulated there in the order of l
    and truncated once, and both norms are read by Parseval: a sample's
    result does not depend on its batch.
    """
    n, pad = grid.n, 1.5
    Gf = jacobian_on_fine(grid, Yh, pad)
    Bf = spectrum_to_fine(grid, np.moveaxis(boxYh, 1, 0), pad)
    acc = Gf[0] * Bf[0]  # G[l, b] over b, boxY[l] broadcast along b
    for l in range(1, n):
        acc += Gf[l] * Bf[l]
    # the spectrum of the real field w: Parseval would also count the
    # non-Hermitian part of the Nyquist column that fine_to_spectrum reads,
    # and of a Picard box's, whose rounding the 1/dt^2 difference amplifies
    wh = grid.fft(grid.ifft(boxYh + np.moveaxis(fine_to_spectrum(grid, acc, pad), 0, 1)))
    wh[(Ellipsis,) + (0,) * n] = 0.0  # the constant part carries no curl
    wnorm = grid.sample_sq_l2(wh)
    cnorm = grid.sample_sq_l2(grid.leray_of_spectrum(wh))
    return np.sqrt(np.divide(cnorm, wnorm, out=np.zeros_like(wnorm), where=wnorm > 0.0))
