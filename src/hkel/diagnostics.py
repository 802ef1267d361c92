"""Computable function-space diagnostics: Besov norms, energy, variation norms.

The 2-variation norm replaces the atomic path-space norm wherever one is
needed: it admits an exact O(M^2) dynamic program over sample times.  The
propagator-twisted surrogate built on it vanishes on exact free waves, so
its size measures the deviation from free evolution.

Every trajectory-level norm of G = grad Y is read from the half spectra of
the displacement Y: grad Y has the spectrum i dfreq_b Y_hat_a, so a mode of G
carries the power of Y_hat weighted by |d|^2 = sum_b dfreq_b^2
(``grid.dk2``), and no trajectory of G is formed.
"""

from dataclasses import dataclass, field

import numpy as np


def besov_norm(grid, u, s):
    """Dyadic Besov norm sum_j 2^(j s) ||P_j u||_L2 (l2 over components)."""
    profile = grid.band_l2_profile(u)
    weights = 2.0 ** (s * np.arange(grid.nbands))
    return float(np.dot(weights, profile))


def besov_sup(grid, u_ts, s):
    """Sup over the leading (time) axis of the Besov norm; NaN if any sample is NaN."""
    return float(np.max([besov_norm(grid, u_m, s) for u_m in u_ts]))


def gradient_besov_norms(grid, Yh_ts, s):
    """Besov norm of grad Y per sample of the leading (time) axis, from the half spectra of Y.

    Per band ||P_j grad Y||^2 sums |d|^2 sum_a |Y_hat_a|^2; no Jacobian is formed.
    """
    power = (np.abs(Yh_ts) ** 2).sum(axis=1) * grid.dk2
    weights = 2.0 ** (s * np.arange(grid.nbands))
    return np.array([np.dot(weights, grid.band_l2_of_power(p)) for p in power])


def gradient_besov_sup(grid, Yh_ts, s):
    """Sup over the leading (time) axis of ``gradient_besov_norms``; NaN if any sample is NaN."""
    return float(np.max(gradient_besov_norms(grid, Yh_ts, s)))


def data_norm(grid, data):
    """Size of initial data: ||f|| at n/2+1 plus ||g|| at n/2."""
    s = grid.n / 2.0
    return besov_norm(grid, data.f, s + 1.0) + besov_norm(grid, data.g, s)


def solution_norm(grid, Yh_ts, dYh_ts):
    """Sup-in-time size of a solution: ||grad Y|| at n/2 plus ||grad d_t Y|| at n/2-1.

    From the half spectra of Y and d_t Y, time first.
    """
    s = grid.n / 2.0
    return gradient_besov_sup(grid, Yh_ts, s) + gradient_besov_sup(grid, dYh_ts, s - 1.0)


def energy(grid, Yh_ts, dYh_ts):
    """Quadratic energy 0.5 ||d_t Y||^2 + 0.5 ||grad Y||^2 per sample of the leading (time) axis.

    By Parseval from the half spectra of Y and d_t Y: a mode of grad Y
    carries the power of Y_hat times |d|^2.
    """
    return 0.5 * grid.sample_sq_l2(dYh_ts) + 0.5 * grid.sample_sq_l2(Yh_ts, grid.dk2)


# -- 2-variation by dynamic programming --------------------------------------


def pairwise_sq_dists(path):
    """Squared L2-type distances between all snapshot pairs, via a Gram matrix.

    ``path`` has snapshots along the first axis; trailing axes are flattened.
    Complex snapshots use the Hermitian inner product.  The path is centered
    on its mean snapshot first: distances are unchanged, but the Gram
    cancellation then happens at the fluctuation scale, so nearly constant
    paths come out near zero instead of at the sqrt(eps ||w||^2) floor.
    """
    X = np.ascontiguousarray(path).reshape(len(path), -1).copy()
    X -= X.mean(axis=0)
    gram = (X @ X.conj().T).real
    q = np.diag(gram)
    d2 = q[:, None] + q[None, :] - 2.0 * gram
    return np.maximum(d2, 0.0)


def two_variation_from_dists(d2):
    """Exact sup over partitions of sum of squared increments, O(M^2).

    best[i] = max_{j<i} best[j] + d2[j, i]; appending later samples never
    decreases the sum, so the supremum is attained at the final sample.
    """
    m = d2.shape[0]
    best = np.zeros(m)
    for i in range(1, m):
        best[i] = np.max(best[:i] + d2[:i, i])
    return float(np.sqrt(best[-1]))


def two_variation(path, max_samples=None):
    """2-variation of a sampled path (first axis = time)."""
    path = np.asarray(path)
    if len(path) < 2:
        raise ValueError("a path needs at least 2 samples")
    if max_samples is not None:
        path = _subsample(path, max_samples)
    return two_variation_from_dists(pairwise_sq_dists(path))


def _subsample(path, max_samples):
    m = len(path)
    if m <= max_samples:
        return path
    stride = -(-m // max_samples)  # ceil
    idx = list(range(0, m, stride))
    if idx[-1] != m - 1:
        idx.append(m - 1)
    return path[idx]


# -- propagator-twisted surrogate ---------------------------------------------

VARIATION_MAX_SAMPLES = 256


def s_surrogate(grid, tg, Yh_ts, dYh_ts, s=None, max_samples=VARIATION_MAX_SAMPLES):
    """Iteration-space surrogate of G = grad Y: twisted per-band 2-variation plus sup-Besov.

    Per band j and sign, the path w(t) = exp(+-i t |k|)(G +- i |k|^-1 d_t G)
    restricted to the band is constant for exact free waves; its 2-variation
    accumulates only the inhomogeneous part of the evolution.  The twist and
    |k|^-1 are scalars per mode, so the distances between samples of w are
    those of the path of Y_hat and d_t Y_hat weighted by |d|: the path runs
    over the n components of Y, not the n^2 of G.  Bands are combined with
    the weight 2^(j s) and the sup-in-time Besov norm of G is added.
    ``Yh_ts`` and ``dYh_ts`` are the half spectra of Y and d_t Y, time first.
    """
    if s is None:
        s = grid.n / 2.0
    idx = _subsample(np.arange(tg.nsamples), max_samples)
    times = tg.times[idx]
    coeff_scale = np.sqrt(grid.cell_volume) / np.sqrt(grid.npoints)
    flat_absk = grid.absk.ravel()
    flat_band = grid.band_of.ravel()
    flat_paired = np.broadcast_to(grid.parseval_weight == 2.0, grid.spectral_shape).ravel()
    absd = np.sqrt(grid.dk2).ravel()

    Yh = Yh_ts[idx].reshape(len(idx), grid.n, -1)  # copies: idx is an index array
    Wh = dYh_ts[idx].reshape(Yh.shape)
    Yh *= absd
    Wh *= absd * grid.inv_absk.ravel()

    # On the full lattice the sign-+ path at -xi is the conjugate of the
    # sign-- path at xi, so each sign's variation runs over its own path on
    # the half lattice and the other sign's path on the interior columns,
    # whose partners -xi the half lattice leaves out.
    variation = 0.0
    for j in range(grid.nbands):
        sel = np.nonzero(flat_band == j)[0]
        if len(sel) == 0:
            continue
        plus, minus = (
            (Yh[:, :, sel] + sign * 1j * Wh[:, :, sel])
            * np.exp(sign * 1j * times[:, None] * flat_absk[sel])[:, None, :]
            for sign in (+1.0, -1.0)
        )
        paired = flat_paired[sel]
        vj = 0.0
        for own, other in ((plus, minus), (minus, plus)):
            w = np.concatenate([own, other[:, :, paired]], axis=2)
            vj += two_variation(w * coeff_scale)
        variation += 2.0 ** (j * s) * vj
    return variation + gradient_besov_sup(grid, Yh_ts, s), variation


@dataclass
class DiagnosticsReport:
    """Per-time diagnostic rows plus run-level summary fields."""

    CSV_COLUMNS = (
        "t",
        "besov_G",
        "besov_dG",
        "energy",
        "det_residual",
        "pressure_curl_residual",
    )

    rows: list = field(default_factory=list)  # float tuples in CSV_COLUMNS order
    ratios: list = field(default_factory=list)
    s_surrogate: float = 0.0
    s_variation_part: float = 0.0
    variation_stride: int = 1
    converged: bool = True
    iterations: int = 0
    wall_clock: float = 0.0


# -- sweep analytics -----------------------------------------------------------


@dataclass
class SweepRow:
    epsilon: float
    data_norm: float
    solution_norm: float
    ratio: float
    first_picard_ratio: float
    iterations: int
    converged: bool
    free_deviation: float  # sup-Besov distance to the free-wave trajectory
    monotone: bool = True


def sweep_report(rows):
    """Order rows by amplitude and flag departures from the small-data regime.

    Flags (never raises): non-monotone solution norms and non-converged runs.
    """
    if len(rows) < 3:
        raise ValueError("a sweep needs at least 3 amplitudes")
    rows = sorted(rows, key=lambda r: r.epsilon)
    eps = [r.epsilon for r in rows]
    if len(set(eps)) != len(eps):
        raise ValueError("sweep amplitudes must be distinct")
    for i, r in enumerate(rows):
        r.monotone = all(
            rows[j].solution_norm <= r.solution_norm or not rows[j].converged
            for j in range(i)
        )
    return rows
