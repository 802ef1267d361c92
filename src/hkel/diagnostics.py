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

from .waves import _gather


def _besov_of_bands(grid, band_l2, s):
    """sum_j 2^(j s) ||P_j u||_L2 from the per-band norms ``band_l2`` of a field u."""
    # a product and numpy's sum, not BLAS: the bits do not depend on the OpenBLAS kernel
    weights = 2.0 ** (s * np.arange(grid.nbands))
    return float((weights * band_l2).sum())


def besov_norm(grid, u, s):
    """Dyadic Besov norm sum_j 2^(j s) ||P_j u||_L2 (l2 over components)."""
    power = np.abs(grid.fft(u)) ** 2
    power = power.sum(axis=tuple(range(power.ndim - grid.n)))
    return _besov_of_bands(grid, grid.band_l2_of_power(power), s)


def besov_sup(grid, u_ts, s):
    """Sup over the leading (time) axis of the Besov norm; NaN if any sample is NaN."""
    return float(np.max([besov_norm(grid, u_m, s) for u_m in u_ts]))


def gradient_besov_norms(grid, Yh_ts, s):
    """Besov norm of grad Y per sample of the leading (time) axis, from the half spectra of Y.

    Per band ||P_j grad Y||^2 sums |d|^2 sum_a |Y_hat_a|^2, a sample at a time; no G is formed.
    """
    return np.array([_besov_of_bands(grid, grid.band_l2_of_power(
        (np.abs(Yh) ** 2).sum(axis=0) * grid.dk2), s) for Yh in Yh_ts])


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
    X = np.array(path, dtype=complex if np.iscomplexobj(path) else float).reshape(len(path), -1)
    X -= X.mean(axis=0)
    return _sq_dists(_add_gram(np.zeros((len(X), len(X))), X))


def _add_gram(gram, X):
    """gram += Re(X X^H) over the rows of the C-contiguous X: one syrk on its real view."""
    Xr = X.reshape(len(X), -1).view(np.float64)
    gram += Xr @ Xr.T
    return gram


def _sq_dists(gram):
    """|x_i - x_j|^2 from the Gram matrix of the x_i."""
    q = np.diag(gram)
    return np.maximum(q[:, None] + q[None, :] - 2.0 * gram, 0.0)


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


def two_variation(path):
    """2-variation of a sampled path (first axis = time)."""
    path = np.asarray(path)
    if len(path) < 2:
        raise ValueError("a path needs at least 2 samples")
    return two_variation_from_dists(pairwise_sq_dists(path))


# -- propagator-twisted surrogate ---------------------------------------------

VARIATION_MAX_SAMPLES = 256
# Modes per block of a band in s_surrogate, about 0.26 MB at 129 samples in 2D: direct2d
# peaks at 95.1, 95.6, 98.5 and 104.2 MiB with 32, 64, 128 and 256, and 64 is the fastest.
_BLOCK_MODES = 64


def variation_stride(nsamples):
    """Stride of the samples ``s_surrogate`` reads: at most VARIATION_MAX_SAMPLES, and the last."""
    return -(-nsamples // VARIATION_MAX_SAMPLES)  # ceil


def _subsample(nsamples):
    """Indices of every ``variation_stride``-th sample and of the last one."""
    idx = np.arange(0, nsamples, variation_stride(nsamples))
    return idx if idx[-1] == nsamples - 1 else np.append(idx, nsamples - 1)


def s_surrogate(grid, traj):
    """Iteration-space surrogate of G = grad Y: twisted per-band 2-variation plus sup-Besov.

    Per band j and sign, the path w(t) = exp(+-i t |k|)(G +- i |k|^-1 d_t G)
    restricted to the band is constant for exact free waves; its 2-variation
    accumulates only the inhomogeneous part of the evolution.  The twist and
    |k|^-1 are scalars per mode, so the distances between samples of w are
    those of the path of Y_hat and d_t Y_hat weighted by |d|: the path runs
    over the n components of Y, not the n^2 of G.  Bands are combined with
    the weight 2^(j s), s = n/2, and the sup-in-time Besov norm of G is added.
    ``traj`` is a ``PicardState`` or a ``DirectRun``: its ``tg``, its half
    spectra ``Yh`` of Y, time first, and ``velocity`` of d_t Y, read a block
    of modes at a time.
    """
    s = grid.n / 2.0
    tg = traj.tg
    idx = _subsample(tg.nsamples)
    times = tg.times[idx]
    coeff_scale = np.sqrt(grid.cell_volume) / np.sqrt(grid.npoints)
    flat_absk = grid.absk.ravel()
    flat_band = grid.band_of.ravel()
    flat_paired = np.broadcast_to(grid.parseval_weight == 2.0, grid.spectral_shape).ravel()
    absd = np.sqrt(grid.dk2).ravel()
    absd_inv_absk = absd * grid.inv_absk.ravel()

    # each block copies only its own sampled times and modes
    samples = slice(None) if len(idx) == tg.nsamples else idx

    # On the full lattice the sign-+ path at -xi is the conjugate of the
    # sign-- path at xi, so each sign's variation runs over its own path on
    # the half lattice and the other sign's path on the interior columns,
    # whose partners -xi the half lattice leaves out.  No path is ever whole:
    # a band's modes go by blocks, each twisted per mode in the order written
    # (exp(-i t |k|) is the conjugate table), scaled and centred column by
    # column, and added to the Gram matrix of each sign.
    variation = 0.0
    for j in range(grid.nbands):
        sel = np.nonzero(flat_band == j)[0]
        grams = np.zeros((2, len(idx), len(idx)))  # sign +, sign -
        for b in range(0, len(sel), _BLOCK_MODES):
            cols = sel[b : b + _BLOCK_MODES]
            base = _gather(traj.Yh, samples, cols) * absd[cols]
            rot = traj.velocity(samples, cols) * absd_inv_absk[cols]
            table = np.exp(1j * times[:, None] * flat_absk[cols])[:, None, :]
            paths = [(np.multiply(sign * 1j, rot) + base) * twist * coeff_scale
                     for sign, twist in ((1.0, table), (-1.0, table.conj()))]
            for w in paths:
                w -= w.mean(axis=0)
            for gram, own, other in zip(grams, paths, paths[::-1]):
                _add_gram(_add_gram(gram, own), other[:, :, flat_paired[cols]])
        variation += 2.0 ** (j * s) * sum(two_variation_from_dists(_sq_dists(g)) for g in grams)
    return variation + gradient_besov_sup(grid, traj.Yh, s), variation


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
    converged: bool = True
    iterations: int = 0
    pressure_iterations_total: int = 0  # the leapfrog's, over all steps
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
    rows = sorted(rows, key=lambda r: r.epsilon)
    for i, r in enumerate(rows):
        r.monotone = all(
            rows[j].solution_norm <= r.solution_norm or not rows[j].converged
            for j in range(i)
        )
    return rows
