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
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .bandlimited import random_divergence_free, random_scalar
from .spectral import fine_to_spectrum, jacobian_on_fine, spectrum_to_fine


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


@cache
def _minor_terms(n, orders):
    """Leibniz terms of every principal minor of each order in ``orders``."""
    return [term for k in orders for subset in combinations(range(n), k)
            for term in _det_terms(subset)]


@cache
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
    prod = np.empty_like(acc)
    for sign, (first, *rest) in terms:
        term = stack[first]
        for ix in rest:
            term = np.multiply(term, stack[ix], out=prod)
        (np.add if sign > 0 else np.subtract)(acc, term, out=acc)
    return acc


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


def _flux(n, row):
    """P_b = sum_l G[l, b] box Y^l on a product lattice, accumulated in the order of l.

    ``row(l)`` gives row l of G (b first) and box Y^l there; each row is
    dropped once its product is added, so a caller may place one per call.
    """
    acc = np.multiply(*row(0))
    prod = np.empty_like(acc)
    for l in range(1, n):
        acc += np.multiply(*row(l), out=prod)
    return acc


def null_form(grid, G_fine, box_fine):
    """Half spectrum of the displacement whose gradient is the null-form coupling.

    The bracket B[a, k] = sum_l (G[l, a] H[l, k] - G[l, k] H[l, a]), H = grad box Y,
    is the curl d_k P_a - d_a P_k of the flux P (``_flux``), so W_hat[a] =
    sum_k i xi_k |xi|^-2 (i xi_k P_hat[a] - i xi_a P_hat[k]), -leray(P) off the
    Nyquist planes, has grad W[a, b] = sum_k R_b R_k B[a, k] and div W = 0 up
    to rounding.  ``G_fine`` (n, n) and ``box_fine`` (n,) are on the flux's
    product lattice (its pad read from their shape), with any (time) axes
    between the component and spatial axes; W_hat is (n,) + those + ``spectral_shape``.
    """
    n, iq, idf = grid.n, grid.idfreq_inv_k2, grid.idfreq
    P = _flux(n, lambda l: (G_fine[l], box_fine[l]))
    Ph = fine_to_spectrum(grid, P, G_fine.shape[-1] / grid.size)
    # sum_k iq_k (idf_k P_a - idf_a P_k), its two sums over k formed once
    div = sum(iq[k] * Ph[k] for k in range(n))
    lap = sum(iq[k] * idf[k] for k in range(n))
    return np.stack([lap * Ph[a] - idf[a] * div for a in range(n)])


# -- pointwise matrix algebra ------------------------------------------------


def _cofactor(M, a, b):
    """The (a, b) cofactor of a matrix field: its signed Leibniz minor."""
    return _accumulate_terms(M, _cofactor_terms(len(M), a, b))


def det_pointwise(M):
    """Pointwise determinant of a matrix field, expanded along its first row."""
    M = np.asarray(M)
    return sum(M[0, b] * _cofactor(M, 0, b) for b in range(len(M)))


INVERSE_DET_TOL = 0.5


def inverse_pointwise(M, det):
    """Pointwise inverse by cofactors, returned with them and det: (M^-1, cof(M), det(M)).

    ``det`` is det_pointwise(M), which the caller has formed.  Valid only
    near det = 1: raises if the determinant strays from 1 by more than
    ``INVERSE_DET_TOL`` at any grid point (outside the small-data regime).
    """
    M = np.asarray(M)
    cof = np.array([[_cofactor(M, a, b) for b in range(len(M))] for a in range(len(M))])
    bad = np.abs(det - 1.0) > INVERSE_DET_TOL
    if np.any(bad):
        loc = np.unravel_index(int(np.argmax(np.abs(det - 1.0))), det.shape)
        raise ValueError(
            f"pointwise Jacobian determinant {det[loc]:.4f} at grid point {loc} "
            f"is farther than {INVERSE_DET_TOL} from 1"
        )
    return np.swapaxes(cof, 0, 1) / det, cof, det


def det_residual(G):
    """max |det(I + G) - 1| over the grid, from pointwise determinants."""
    n = G.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (G.ndim - 2))
    return float(np.abs(det_pointwise(eye + G) - 1.0).max())


# -- compatibility -----------------------------------------------------------


@cache
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
    # pad 2 in 2D too: the maxima are read at these fine lattice points.  G
    # and grad g share one buffer, each placed from its spectrum, and grad g
    # is placed once r1 is read, so the check peaks at about four samples of
    # G on that lattice
    stack = np.empty((2, n, n) + (2 * grid.size,) * n)
    G = stack[0]
    G[...] = jacobian_on_fine(grid, grid.fft(data.f)[None], 2)[:, :, 0]
    trace = sum(G[a, a] for a in range(n))
    r1 = float(np.abs(trace + _accumulate_terms(G, _minor_terms(n, range(2, n + 1)))).max())
    del trace
    for a in range(n):
        G[a, a] += 1.0  # grad X
    stack[1] = jacobian_on_fine(grid, grid.fft(data.g)[None], 2)[:, :, 0]
    r2 = float(np.abs(_accumulate_terms(stack, _cofactor_trace_terms(n))).max())
    return r1, r2


# -- volume-preserving data generators ----------------------------------------


def make_shear_data(grid, amplitude, seed, band=2):
    """Compatible initial data from composed coordinate shears.

    Each of n shears displaces one coordinate by a band-limited function of
    the others, so its Jacobian is unit-triangular and the composition has
    det(I + grad f) = 1 exactly.  The velocity is g(y) = v(y + f(y)) with
    div v = 0, which zeroes the velocity compatibility residual exactly in
    the continuum and to interpolation accuracy on the lattice.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    n = grid.n
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = grid.coords.copy()
    for axis in range(n):
        phi = random_scalar(rng, n, band, exclude_axis=axis)
        points[axis] = points[axis] + amplitude * phi(points)
    f = points - grid.coords
    v = random_divergence_free(rng, n, band)
    g = amplitude * v(points)
    # remove the rounding-level translation mode; gradients are unchanged
    f -= f.mean(axis=grid.axes, keepdims=True)
    g -= g.mean(axis=grid.axes, keepdims=True)
    return InitialData(f, g)


# -- pressure ------------------------------------------------------------------


def recover_pressure(grid, Yh, boxYh):
    """Curl residual of the momentum balance per sample, from the half spectra of Y and box Y.

    The elastic acceleration balance reads (I + G^T) box(Y) = -grad p, so the
    residual ||leray(w)|| / ||w|| (0 where w = 0) of w = box Y + P, P = G^T box Y
    the flux (``_flux``), mean removed, measures how far w is from a pure
    gradient.  Yh and boxYh are (time, n) + ``spectral_shape``; the residual has
    shape (time,).  P is formed on the pad-3/2 lattice, where quadratic products
    are alias-free, a row l of G and box Y^l placed at a time, and truncated
    once; both norms are read by Parseval: a sample's result does not depend on its batch.
    """
    n, pad = grid.n, 1.5
    acc = _flux(n, lambda l: (jacobian_on_fine(grid, Yh[:, l:l + 1], pad)[0],
                              spectrum_to_fine(grid, boxYh[:, l], pad)))
    # the spectrum of the real field w: Parseval would also count the
    # non-Hermitian part of the Nyquist column that fine_to_spectrum reads,
    # and of a Picard box's, whose rounding the 1/dt^2 difference amplifies
    wh = grid.fft(grid.ifft(boxYh + np.moveaxis(fine_to_spectrum(grid, acc, pad), 0, 1)))
    wh[(Ellipsis,) + (0,) * n] = 0.0  # the constant part carries no curl
    wnorm = grid.sample_sq_l2(wh)
    cnorm = grid.sample_sq_l2(grid.leray_of_spectrum(wh))
    return np.sqrt(np.divide(cnorm, wnorm, out=np.zeros_like(wnorm), where=wnorm > 0.0))
