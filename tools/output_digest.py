"""Digest of the files `hkel simulate` writes for each benchmark workload.

Run from anywhere in a checkout:

    python3 tools/output_digest.py [--seed 0] [--files] [--keep DIR]

It first prints a ``platform`` line: numpy's version, the machine, the CPU
dispatch targets numpy enabled and ``blas=<core>``, the kernel set that
numpy's bundled OpenBLAS picked (``blas=none`` without one).  The digests
hold per platform (numpy and OpenBLAS pick their kernels from the CPU at run
time, and the surrogate's Gram matrix runs on OpenBLAS), so only lines under
equal platform lines compare.
For each workload of perfbench/spec.py it runs cli.run_one on that
workload's configuration and data seed, in a temporary directory or, with
``--keep DIR``, in ``DIR/<workload>``, and prints one line
``workload exit_code sha256``.  Two more lines, sweep_picard
and sweep_direct, cover ``hkel sweep`` (cli.cmd_sweep) with each solver on
2D N=16 data at three amplitudes, sweep.csv and every run's files.  The
digest covers every output file in sorted order, with the two lines that
differ between identical runs left out: ``wall_clock_s`` in report.txt and
``output_dir`` in config.txt.  ``--files`` adds one ``name sha256`` line
per file.  A last line ``selftest exit_code sha256`` covers the lines that
``hkel selftest`` (selftest.run_selftest) prints, which no file records.
Two checkouts whose lines agree wrote the same bytes and printed the same
self-test; tools/output_moves.py names what moved between two kept trees.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"
VOLATILE = {"report.txt": b"wall_clock_s", "config.txt": b"output_dir"}
SWEEP = {"dimension": 2, "grid_n": 16, "t_end": 0.25, "dt": 1 / 32}
SWEEP_EPSILONS = (1e-3, 3e-3, 1e-2)


def load_spec():
    """perfbench/spec.py as a module, leaving no bytecode next to it."""
    sys.dont_write_bytecode = True
    loader = importlib.util.spec_from_file_location("spec", ROOT / "perfbench" / "spec.py")
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return spec


def blas_core():
    """The core name of numpy's bundled OpenBLAS (``SkylakeX``, ``Haswell``, ...), or ``none``."""
    for lib in sorted(NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "none"


def platform_line():
    """``platform numpy <version> <machine> <targets> blas=<core>``.

    <targets> are the CPU dispatch targets numpy enabled, <core> is ``blas_core()``.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    return f"platform numpy {np.__version__} {platform.machine()} {targets} blas={blas_core()}"


def output_files(outdir):
    """(posix path relative to outdir, path) per file under outdir, in path order."""
    return [(p.relative_to(outdir).as_posix(), p)
            for p in sorted(p for p in outdir.rglob("*") if p.is_file())]


def stable_bytes(path):
    """The file's bytes, with the lines that differ between identical runs dropped."""
    data = path.read_bytes()
    if path.name in VOLATILE:
        lines = data.splitlines(keepends=True)
        data = b"".join(ln for ln in lines if not ln.startswith(VOLATILE[path.name]))
    return data


def file_digests(outdir):
    """(name, sha256 hex) per file under outdir, sorted, volatile lines dropped."""
    return [(name, hashlib.sha256(stable_bytes(path)).hexdigest())
            for name, path in output_files(outdir)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="data seed (default 0)")
    ap.add_argument("--files", action="store_true", help="also print one digest per file")
    ap.add_argument("--keep", type=Path, metavar="DIR",
                    help="write each run's files to DIR/<name>/; DIR must be new or empty")
    args = ap.parse_args(argv)
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        ap.error(f"--keep {args.keep}: not empty")

    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    from hkel import cli
    from hkel.config import RunConfig

    def simulate(cfg):
        return cli.run_one(cfg)[0]

    def sweep(cfg):
        return cli.cmd_sweep(cfg, SWEEP_EPSILONS)

    runs = [(name, dict(spec.COMMON, **workload["config"]), simulate)
            for name, workload in spec.WORKLOADS.items()]
    runs += [(f"sweep_{solver}", dict(SWEEP, solver=solver), sweep)
             for solver in ("picard", "direct")]
    print(platform_line(), flush=True)
    for name, config, command in runs:
        with (contextlib.nullcontext(str(args.keep / name)) if args.keep  # the run makes it
              else tempfile.TemporaryDirectory()) as tmp:
            code = command(RunConfig(seed=args.seed, output_dir=tmp, **config))
            digests = file_digests(Path(tmp))
        total = hashlib.sha256()
        for fname, digest in digests:
            total.update(f"{fname}\0{digest}\n".encode())
        print(f"{name} {code} {total.hexdigest()}", flush=True)
        if args.files:
            for fname, digest in digests:
                print(f"  {fname} {digest}")
    selftest = hashlib.sha256()
    passed = cli.run_selftest(lambda line: selftest.update(f"{line}\n".encode()))
    print(f"selftest {cli.EXIT_OK if passed else cli.EXIT_ERROR} {selftest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
