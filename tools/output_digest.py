"""Digest of the files `hkel simulate` writes for each benchmark workload.

Run from anywhere in a checkout:

    python3 tools/output_digest.py [--seed 0] [--files]

For each workload of perfbench/spec.py it runs cli.run_one on that
workload's configuration and data seed, in a temporary directory, and
prints one line ``workload exit_code sha256``.  Two more lines, sweep_picard
and sweep_direct, cover ``hkel sweep`` (cli.cmd_sweep) with each solver on
2D N=16 data at three amplitudes, sweep.csv and every run's files.  The
digest covers every output file in sorted order, with the two lines that
differ between identical runs left out: ``wall_clock_s`` in report.txt and
``output_dir`` in config.txt.  ``--files`` adds one ``name sha256`` line
per file.  Two checkouts whose lines agree wrote the same bytes.
"""

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def file_digests(outdir):
    """(name, sha256 hex) per file under outdir, sorted, volatile lines dropped."""
    out = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        name = path.relative_to(outdir).as_posix()
        data = path.read_bytes()
        if path.name in VOLATILE:
            lines = data.splitlines(keepends=True)
            data = b"".join(ln for ln in lines if not ln.startswith(VOLATILE[path.name]))
        out.append((name, hashlib.sha256(data).hexdigest()))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="data seed (default 0)")
    ap.add_argument("--files", action="store_true", help="also print one digest per file")
    args = ap.parse_args(argv)

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
    for name, config, command in runs:
        with tempfile.TemporaryDirectory() as tmp:
            code = command(RunConfig(seed=args.seed, output_dir=tmp, **config))
            digests = file_digests(Path(tmp))
        total = hashlib.sha256()
        for fname, digest in digests:
            total.update(f"{fname}\0{digest}\n".encode())
        print(f"{name} {code} {total.hexdigest()}", flush=True)
        if args.files:
            for fname, digest in digests:
                print(f"  {fname} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
