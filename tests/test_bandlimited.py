import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hkel.bandlimited import TrigPoly, _band_modes, random_divergence_free
from hkel.elastic import make_shear_data
from hkel.spectral import Grid

from conftest import shear_velocity_oracle

SRC = Path(__file__).resolve().parents[1] / "src"


def random_poly(rng, n, band, components):
    modes = _band_modes(n, band)
    shape = (components, len(modes))
    return TrigPoly(modes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_components_evaluate_as_the_stack_of_single_polys(rng):
    poly = random_poly(rng, 3, 2, 4)
    points = rng.uniform(0.0, 2 * np.pi, size=(3, 5, 7))
    got = poly(points)
    singles = np.stack([TrigPoly(poly.modes, c)(points) for c in poly.coeffs])
    assert got.shape == (4, 5, 7) and singles.shape == (4, 5, 7)
    assert np.abs(got - singles).max() <= 1e-14 * np.abs(singles).max()
    # deriv and scaled act on every component
    single = TrigPoly(poly.modes, poly.coeffs[2])
    assert np.array_equal(poly.deriv(1).coeffs[2], single.deriv(1).coeffs)
    assert np.array_equal(poly.scaled(2.0).coeffs, 2.0 * poly.coeffs)


def test_chunked_mode_tables_sum_to_the_whole(rng):
    # 2**15 points bound a chunk to 128 of the 200 modes; each half of the points is one chunk
    modes = rng.integers(-6, 7, size=(200, 2))
    coeffs = rng.normal(size=(2, 200)) + 1j * rng.normal(size=(2, 200))
    points = rng.uniform(0.0, 2 * np.pi, size=(2, 2**15))
    poly = TrigPoly(modes, coeffs)
    halves = np.concatenate([poly(points[:, :2**14]), poly(points[:, 2**14:])], axis=1)
    assert np.abs(poly(points) - halves).max() <= 1e-13 * np.abs(halves).max()


def test_mode_count_mismatch_is_rejected():
    with pytest.raises(ValueError):
        TrigPoly(np.zeros((3, 2)), np.zeros((2, 4)))


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_shear_velocity_matches_direct_summation_oracle(n, size):
    grid = Grid(n, size)
    g = make_shear_data(grid, 5e-3, seed=0).g
    assert np.abs(g - shear_velocity_oracle(grid, 5e-3, 0, 2)).max() <= 1e-15
    assert np.abs(g).max() > 1e-3  # the bound is far below the field


def test_divergence_free_field_is_one_unit_sup_poly_with_spectral_divergence_zero(grid3):
    v = random_divergence_free(np.random.Generator(np.random.Philox(key=0)), 3, 2)
    assert v.coeffs.shape == (3, len(_band_modes(3, 2)))
    values = v(grid3.coords)
    assert values.shape == (3,) + grid3.shape
    div = np.trace(grid3.jacobian(values))
    assert np.abs(div).max() <= 1e-13 * np.abs(values).max()
    assert 0.9 < np.abs(values).max() < 1.1  # unit sup on the coarser sampling lattice


HASH_SCRIPT = """
import hashlib
import numpy as np
from hkel.diagnostics import gradient_besov_norms
from hkel.elastic import make_shear_data
from hkel.spectral import Grid
digest = hashlib.sha256()
for n, size in ((2, 64), (3, 16)):
    grid = Grid(n, size)
    data = make_shear_data(grid, 5e-3, seed=0)
    Yh = grid.fft(np.random.default_rng(0).standard_normal((4, n) + grid.shape))
    for values in (data.f, data.g, gradient_besov_norms(grid, Yh, 1.5)):
        digest.update(values.tobytes())
print(digest.hexdigest())
"""


def test_shear_data_and_besov_norms_do_not_depend_on_the_blas_kernel():
    digests = []
    for coretype in (None, "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
