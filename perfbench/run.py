"""hkel benchmark: one workload of `hkel simulate`'s pipeline, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload picard2d --seed 0 --seconds 40 --trace 0

Each measurement is a fresh process (worker.py) that imports hkel from
``src/``, builds the workload's data from ``--seed`` and runs cli.run_one,
one after the other (a closed loop with one caller).  With ``--trace 0`` the
run repeats full pipeline processes for ``--seconds`` seconds and reports the
median of each end-to-end metric; a few extra set-up-only processes give
set-up time more samples.  With ``--trace 1`` it runs one untraced process
between two traced ones, whatever ``--seconds`` says, and reports the
per-layer metrics of spec.PER_LAYER.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Provenance and the
per-process records are also written to .bench_out/<workload>/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
BUDGET_S = 170.0  # every run must end within 180 s
SETUP_ONLY_PROCESSES = 4
THREADS = "1"  # BLAS/OpenMP pools; numpy's FFT is single-threaded anyway
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    """Refuse to run without the sources, or when BENCHMARK.json disagrees."""
    if not (ROOT / "src" / "hkel" / "cli.py").is_file():
        fail(f"no hkel sources under {ROOT / 'src'}; run from the repository root")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    want = (
        sorted(WORKLOADS),
        sorted((k, u, b, d) for k, (u, b, d, _) in END_TO_END.items()),
        sorted((k, u) for k, (u, _, _) in PER_LAYER.items()),
    )
    have = (
        sorted(w["name"] for w in bench.get("workloads", [])),
        sorted((m["name"], m["unit"], m["better"], m["bound"])
               for m in bench.get("end_to_end", [])),
        sorted((m["name"], m["unit"]) for m in bench.get("per_layer", [])),
    )
    if want != have:
        fail("BENCHMARK.json does not match perfbench/spec.py")


def provenance(args):
    import numpy

    src = ROOT / "src" / "hkel"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "params": WORKLOADS[args.workload]["config"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": {k: THREADS for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    """Starts worker processes one at a time and keeps their records."""

    def __init__(self, args, outdir):
        self.args = args
        self.outdir = outdir
        self.deadline = time.monotonic() + BUDGET_S
        self.records = []
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{k: THREADS for k in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)

    def run(self, mode, trace=0):
        run_id = f"{self.args.workload}-s{self.args.seed}-{len(self.records)}"
        out = self.outdir / f"{run_id}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--trace", str(trace),
               "--run-id", run_id, "--out", str(out)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=self.remaining(),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            status = proc.returncode
            err = proc.stderr.strip().splitlines()
        except subprocess.TimeoutExpired:
            status, err = "timeout", []
        rec = {"run_id": run_id, "mode": mode, "trace": trace, "ok": False,
               "wall_s": time.monotonic() - t0}
        if status == 0 and out.is_file():
            rec.update(json.loads(out.read_text()))
        else:
            rec["reason"] = f"worker status {status}: {err[-1] if err else ''}"
        if not rec["ok"]:
            print(f"FAILED {run_id}: {rec['reason']}", file=sys.stderr)
        self.records.append(rec)
        return rec

    def remaining(self):
        return max(1.0, self.deadline - time.monotonic())


def median_of(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def measure(runner, seconds):
    """End-to-end metrics: set-up-only processes, then full runs for `seconds`."""
    for _ in range(SETUP_ONLY_PROCESSES):
        runner.run("setup")
    start = time.monotonic()
    full = []
    while True:
        full.append(runner.run("full"))
        elapsed = time.monotonic() - start
        if (not full[-1]["ok"] or elapsed + full[-1]["wall_s"] > seconds
                or runner.remaining() < 2 * full[-1]["wall_s"]):
            break
    ok = [r for r in runner.records if r["ok"]]
    ok_full = [r for r in full if r["ok"]]
    if not ok_full:
        return None
    return {
        "run_s": median_of(ok_full, "run_s"),
        "solve_s": median_of(ok_full, "solve_cpu_s"),
        "setup_s": median_of(ok, "setup_s"),
        "peak_rss_mb": median_of(ok_full, "peak_rss_mb"),
        "ok_frac": len(ok) / len(runner.records),
    }


def measure_layers(runner):
    """Per-layer metrics: an untraced full run between two traced ones.

    The untraced run sits in the middle so that a steady drift in machine
    speed cancels out of trace.overhead_frac.
    """
    traced = [runner.run("full", trace=1)]
    plain = runner.run("full")
    traced.append(runner.run("full", trace=1))
    if not plain["ok"] or not all(r["ok"] for r in traced):
        return None
    first, second = (r["layers"] for r in traced)
    mismatched = [k for k in EXACT_COUNTS if first[k] != second[k]]
    for k in mismatched:
        print(f"FLAG count {k} differs between traced runs: {first[k]} vs {second[k]}",
              file=sys.stderr)
    metrics = {}
    for k in first:
        unit = PER_LAYER[k][0]
        metrics[k] = first[k] if unit == "count" else statistics.median([first[k], second[k]])
    metrics["picard.peak_traj_arrays"] = plain["peak_rss_mb"] / metrics["picard.traj_mb"]
    metrics["trace.overhead_frac"] = median_of(traced, "run_s") / plain["run_s"] - 1.0
    metrics["trace.count_mismatches"] = len(mismatched)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")
    check_checkout()

    outdir = ROOT / ".bench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args)
    runner = Runner(args, outdir)
    values = measure_layers(runner) if args.trace else measure(runner, args.seconds)
    if values is None:
        fail("no run of the pipeline passed the correctness gate")

    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": spec[k][0]} for k in spec}
    failed = sum(not r["ok"] for r in runner.records)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": metrics,
    }
    (outdir / f"result_s{args.seed}_t{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "processes": runner.records}, indent=1))
    print("provenance " + json.dumps(prov))
    print(f"processes {len(runner.records)}, failed {failed}, "
          f"failed_frac {failed / len(runner.records):.3f}")
    if not args.trace:
        full = [r for r in runner.records if r["mode"] == "full" and r["ok"]]
        print(f"  median solve wall time {median_of(full, 'solve_wall_s'):.6g} s "
              f"over {len(full)} pipeline processes")
    for k, m in metrics.items():
        print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
