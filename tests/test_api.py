"""The exported names resolve, so ``from hkel import *`` keeps working, and
so do the names the benchmark in ``perfbench/`` looks up at run time."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["hkel", "hkel.picard"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from hkel import *", namespace)
    import hkel

    assert set(hkel.__all__) <= set(namespace)


def test_benchmark_name_lookups_resolve():
    # no tier-1 test runs perfbench, so a library deletion would otherwise
    # break `perfbench/run.py --trace 1` or its correctness gate unnoticed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{modname}.{name}"
        for modname, names in tracing.TARGETS.items()
        for name in names or ()
        if not hasattr(importlib.import_module(modname), name)
    ]
    assert missing == []

    from hkel import cli, diagnostics
    from hkel.direct import DirectRun
    from hkel.picard import PicardState

    # the correctness gate reads besov_sup(grid, result.state.G, n / 2)
    assert hasattr(diagnostics, "besov_sup") and hasattr(PicardState, "G")
    assert {"det_drift", "pressure_iterations"} <= {f.name for f in dataclasses.fields(DirectRun)}
    for name in ("compatibility_residuals", "picard_solve", "run_direct", "run_one"):
        assert hasattr(cli, name), name
