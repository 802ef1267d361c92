"""Spans around hkel's public functions, installed from outside the package.

The pipeline resolves module-level functions at call time through each
module's globals (``from .elastic import null_form`` binds a name in
``picard``), so a wrapper must replace every binding of the same function
object in every ``hkel`` module.  ``numpy.fft.fftn`` and ``ifftn`` are looked
up as attributes on each call and are replaced on ``numpy.fft`` itself.

Nothing under ``src/`` changes; the wrappers exist only in the traced process.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np

# module -> public functions to wrap; None means every public function
# defined in that module.
TARGETS = {
    "hkel.picard": None,
    "hkel.elastic": None,
    "hkel.waves": None,
    "hkel.spectral": ("pad_to_fine", "truncate_from_fine", "dealiased_product"),
    "hkel.direct": ("run_direct", "direct_step", "solve_pressure"),
    "hkel.diagnostics": ("besov_norm", "besov_sup", "s_surrogate"),
    "hkel.snapshots": ("write_snapshot",),
    "hkel.cli": ("run_one", "write_csv", "write_run_summary"),
}

WRITERS = ("cli.write_csv", "snapshots.write_snapshot", "cli.write_run_summary")
# report.txt carries a wall clock whose printed width varies between runs
COUNTED_WRITERS = ("cli.write_csv", "snapshots.write_snapshot")


class Tracer:
    """In-memory spans: [name, start, end, parent index, size]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, size_of=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1], 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size_of is not None:
                span[4] = size_of(args, out)
            return out

        return traced


def write_spans(path, run_id, spans):
    """Write spans as one JSON object per line, once, at the end."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, size in spans:
            fh.write(
                f'{{"run":"{run_id}","name":"{name}","start":{start!r},'
                f'"end":{end!r},"parent":{parent},"size":{size}}}\n'
            )


def _fft_points(args, out):
    return int(out.size)


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def rebind(original, replacement):
    """Point every hkel global bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "hkel" or modname.startswith("hkel.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer):
    """Wrap every target function of the already imported hkel package."""
    for modname, names in TARGETS.items():
        module = sys.modules[modname]
        if names is None:
            names = [
                key for key, value in vars(module).items()
                if not key.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == modname
            ]
        short = modname.split(".", 1)[1]
        for key in names:
            label = f"{short}.{key}"
            size_of = _file_bytes if label in COUNTED_WRITERS else None
            original = getattr(module, key)
            rebind(original, tracer.wrap(label, original, size_of))
    for key in ("fftn", "ifftn"):
        setattr(np.fft, key, tracer.wrap(f"numpy.{key}", getattr(np.fft, key),
                                         _fft_points))


# -- per-layer metrics from the recorded spans ----------------------------------


def layer_metrics(spans, setup_end, solve_end, facts):
    """Per-layer metrics of one traced process (see spec.PER_LAYER).

    ``setup_end`` and ``solve_end`` are clock readings taken by the worker at
    the return of compatibility_residuals and of the solver; ``facts`` holds
    values read from the solver's result (iterations, pressure iterations,
    trajectory size).
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def outside_solve(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == "picard.picard_solve":
                return False
            p = spans[p][3]
        return True

    def sel(*names, pred=None):
        return [i for i in range(n) if spans[i][0] in names and (pred is None or pred(i))]

    def self_sum(*names, pred=None):
        return sum(self_t[i] for i in sel(*names, pred=pred))

    def incl_sum(*names, pred=None):
        return sum(dur[i] for i in sel(*names, pred=pred))

    root = sel("cli.run_one")[0]
    run_end = spans[root][2]
    top = [i for i in range(n) if spans[i][3] == root]
    writes = [i for i in top if spans[i][0] in WRITERS]
    write_start = min(spans[i][1] for i in writes)
    in_loop = [i for i in top if solve_end <= spans[i][1] < write_start]
    loop_layers = ("elastic.recover_pressure", "diagnostics.besov_norm",
                   "diagnostics.besov_sup", "diagnostics.s_surrogate",
                   "waves.box_trajectory")
    covered = sum(dur[i] for i in top if spans[i][1] >= setup_end)

    return {
        "spectral.fft_calls": len(sel("numpy.fftn", "numpy.ifftn")),
        "spectral.fft_points": sum(spans[i][4] for i in sel("numpy.fftn", "numpy.ifftn")),
        "spectral.fft_s": self_sum("numpy.fftn", "numpy.ifftn"),
        "spectral.pad_to_fine_calls": len(sel("spectral.pad_to_fine")),
        "spectral.pad_to_fine_s": self_sum("spectral.pad_to_fine"),
        "spectral.truncate_s": self_sum("spectral.truncate_from_fine"),
        "spectral.dealiased_product_s": self_sum("spectral.dealiased_product"),
        "elastic.null_form_s": self_sum("elastic.null_form"),
        "elastic.minor_sum_s": self_sum("elastic.minor_sum_total",
                                        "elastic.principal_minor_sum"),
        "elastic.compat_s": self_sum("elastic.compatibility_residuals"),
        "elastic.recover_pressure_s": self_sum("elastic.recover_pressure"),
        "elastic.recover_pressure_calls": len(sel("elastic.recover_pressure")),
        "waves.duhamel_s": self_sum("waves.duhamel_trajectory"),
        "waves.duhamel_calls": len(sel("waves.duhamel_trajectory")),
        "waves.box_s": self_sum("waves.box_trajectory", "waves.second_time_derivative"),
        "waves.time_derivative_s": self_sum("waves.time_derivative"),
        "picard.iterations": facts["iterations"],
        "picard.free_wave_s": self_sum("picard.free_wave_state"),
        "picard.map_s": incl_sum("picard.picard_map"),
        "picard.map_self_s": self_sum("picard.picard_map"),
        "picard.norm_s": incl_sum(
            "diagnostics.besov_sup",
            pred=lambda i: spans[spans[i][3]][0] == "picard.picard_solve"),
        "picard.traj_mb": facts["traj_mb"],
        "direct.steps": len(sel("direct.direct_step")),
        "direct.pressure_iters": facts["pressure_iters"],
        "direct.pressure_iters_max": facts["pressure_iters_max"],
        "direct.solve_pressure_s": self_sum("direct.solve_pressure"),
        "direct.step_self_s": self_sum("direct.direct_step"),
        "diagnostics.besov_calls": len(sel("diagnostics.besov_norm", pred=outside_solve)),
        "diagnostics.besov_s": self_sum("diagnostics.besov_norm", "diagnostics.besov_sup",
                                        pred=outside_solve),
        "diagnostics.s_surrogate_s": self_sum("diagnostics.s_surrogate"),
        "cli.diag_loop_self_s": (write_start - solve_end)
        - sum(dur[i] for i in in_loop if spans[i][0] in loop_layers),
        "cli.write_s": incl_sum(*WRITERS),
        "cli.bytes_written": sum(spans[i][4] for i in sel(*COUNTED_WRITERS)),
        "bandlimited.make_data_s": incl_sum("elastic.make_shear_data"),
        "trace.spans": n,
        "trace.coverage_frac": covered / (run_end - setup_end),
    }
