"""Own-process peak RSS, minor page faults and CPU time at the end of each phase of one run.

Run from anywhere in a checkout, once per measurement:

    python3 tools/phase_memory.py WORKLOAD [--seed 0] [--t-end T] [--grid-n N]

WORKLOAD is a workload of perfbench/spec.py (picard2d, picard3d or
direct2d).  The tool runs cli.run_one on that workload's configuration and
data seed, with its horizon replaced by T and its grid size by N if given,
in a temporary directory, and prints one line per phase as the phase ends:

    phase ru_maxrss_mib ru_minflt minflt_delta cpu_s

``import`` ends when hkel is imported, ``data`` when load_initial_data
returns (the grid is built before it), ``compat`` when
compatibility_residuals returns, ``solve`` when picard_solve or run_direct returns,
``surrogate`` when s_surrogate returns and ``diagnostics`` when the
per-sample loop has ended, as the first output file is written.  A line
``exit N`` gives run_one's exit code, a line ``estimate MiB`` the peak that
cli.memory_estimate admits the run at, which each phase's ru_maxrss should
stay below, and a last line ``trajectories X`` the solve phase's growth of
ru_maxrss over ``compat`` in trajectories of cli.trajectory_bytes,
(steps+1) n N^(n-1) (N/2+1) 16 bytes: cli.TRAJECTORY_ARRAYS rounds up the
growth of the peak per trajectory of horizon, read from this line at
several ``--t-end``.  ``ru_maxrss`` (KiB on Linux, printed
in MiB) and ``ru_minflt`` are counts of the whole process, so each call of
the tool measures one run in a fresh process; ``minflt_delta`` is the
phase's own faults and ``cpu_s`` its own user plus system CPU seconds
(``import`` counts from the process's start).  The post-solve faults are the
sum of the surrogate's and the diagnostics' deltas.  BLAS and OpenMP pools
run one thread, as in perfbench's workers: with two, the surrogate phase's
cpu_s read 0.10 to 0.97 s against 0.055 s, the idle thread's spinning.
"""

import argparse
import contextlib
import importlib.util
import os
import resource
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
# the cli name each phase ends at, and whether it ends after the call or before it
PHASES = (("data", "load_initial_data", "after"), ("compat", "compatibility_residuals", "after"),
          ("solve", "picard_solve", "after"),
          ("solve", "run_direct", "after"), ("surrogate", "s_surrogate", "after"),
          ("diagnostics", "write_csv", "before"))


def load_spec():
    """perfbench/spec.py as a module, leaving no bytecode next to it."""
    sys.dont_write_bytecode = True
    loader = importlib.util.spec_from_file_location("spec", ROOT / "perfbench" / "spec.py")
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return spec


def usage():
    """(peak RSS in MiB, minor page faults, user plus system CPU seconds) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_maxrss / 1024.0, ru.ru_minflt, ru.ru_utime + ru.ru_stime


def marking(fn, phase, when, marks):
    """``fn`` that appends (phase, usage()) to marks after or before its first call."""
    def wrapped(*args, **kwargs):
        if when == "before" and not any(p == phase for p, _ in marks):
            marks.append((phase, usage()))
        out = fn(*args, **kwargs)
        if when == "after":
            marks.append((phase, usage()))
        return out
    return wrapped


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="data seed (default 0)")
    ap.add_argument("--t-end", type=float, help="horizon in place of the workload's")
    ap.add_argument("--grid-n", type=int, help="grid size N in place of the workload's")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from hkel import cli
    from hkel.config import RunConfig

    marks = [("import", usage())]
    config = dict(spec.COMMON, **spec.WORKLOADS[args.workload]["config"])
    if args.t_end is not None:
        config["t_end"] = args.t_end
    if args.grid_n is not None:
        config["grid_n"] = args.grid_n
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as patches:
        for phase, name, when in PHASES:
            wrapped = marking(getattr(cli, name), phase, when, marks)
            patches.enter_context(mock.patch.object(cli, name, wrapped))
        cfg = RunConfig(seed=args.seed, output_dir=tmp, **config)
        code = cli.run_one(cfg)[0]
    last_minflt = last_cpu = 0
    for phase, (rss, minflt, cpu) in marks:
        print(f"{phase} {rss:.2f} {minflt} {minflt - last_minflt} {cpu - last_cpu:.3f}")
        last_minflt, last_cpu = minflt, cpu
    print(f"exit {code}")
    print(f"estimate {cli.memory_estimate(cfg) / 2**20:.2f}")
    rss = {phase: mark[0] for phase, mark in marks}
    growth = rss["solve"] - rss["compat"] if "solve" in rss else float("nan")  # nan: no solve
    print(f"trajectories {growth * 2**20 / cli.trajectory_bytes(cfg):.3f}")
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.exit(main())
