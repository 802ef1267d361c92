"""Pseudo-spectral incompressible Hookean elastodynamics on the torus."""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .diagnostics import (
    DiagnosticsReport,
    besov_norm,
    besov_sup,
    data_norm,
    energy,
    s_surrogate,
    solution_norm,
    sweep_report,
    two_variation,
)
from .direct import DirectRun, cross_validate, direct_step, run_direct
from .elastic import (
    InitialData,
    compatibility_residuals,
    curl_free_displacement,
    make_shear_data,
    null_form,
    recover_pressure,
)
from .picard import (
    PicardResult,
    PicardState,
    free_seed,
    picard_map,
    picard_solve,
)
from .spectral import Grid, dealiased_product
from .waves import TimeGrid, duhamel_trajectory, free_wave

__all__ = [
    "Grid",
    "TimeGrid",
    "InitialData",
    "RunConfig",
    "PicardState",
    "PicardResult",
    "DirectRun",
    "DiagnosticsReport",
    "parse_config",
    "make_shear_data",
    "compatibility_residuals",
    "curl_free_displacement",
    "null_form",
    "recover_pressure",
    "free_wave",
    "duhamel_trajectory",
    "free_seed",
    "picard_map",
    "picard_solve",
    "direct_step",
    "run_direct",
    "cross_validate",
    "besov_norm",
    "besov_sup",
    "data_norm",
    "solution_norm",
    "energy",
    "two_variation",
    "s_surrogate",
    "sweep_report",
    "dealiased_product",
]
