"""What the benchmark runs and reports: workloads, metrics, correctness bounds.

This module is the single source for the benchmark's definitions.
``BENCHMARK.json`` at the repository root lists the same workload and metric
names, units and bounds; ``run.py`` refuses to run when the two disagree.

The last field of each PER_LAYER entry names the end-to-end metric that the
layer metric should move, and on which workloads, so a performance change can
cite one metric and one workload from here without re-deriving the mapping.
A ``*_s`` per-layer metric is self time (span duration minus the time its
traced child spans cover) summed over calls, unless its description says
"inclusive".
"""

# All workloads run `hkel simulate`'s pipeline (cli.run_one) on shear-composed
# data with the default solver tolerances; only the seed of the data comes
# from the command line.  picard3d uses amplitude 5e-3: at 1e-2 about one
# seed in six gives 3D N=16 data whose velocity compatibility residual
# (1.0e-8 to 1.6e-8, scaling as amplitude^4) exceeds COMPATIBILITY_TOL = 1e-8,
# so run_one refuses it; at 5e-3 the worst of 200 seeds is 9.6e-10.
# direct2d runs to T=1, not 2, so that a 40-s run holds five ~7-s processes
# instead of two ~14-s ones.
COMMON = {"init": "shear_composition", "diagnostics_every": 1}

WORKLOADS = {
    "picard2d": {
        "config": {"dimension": 2, "grid_n": 64, "t_end": 1.0, "dt": 0.01,
                   "epsilon": 1e-2, "solver": "picard", "snapshot_every": 10},
        "why": "picard n=2 N=64 T=1 dt=0.01 eps=1e-2, snapshots/10: batched "
               "fine-lattice padding, null form and Duhamel on large arrays; "
               "the only workload that writes snapshots",
    },
    "picard3d": {
        "config": {"dimension": 3, "grid_n": 16, "t_end": 0.3, "dt": 0.01,
                   "epsilon": 5e-3, "solver": "picard", "snapshot_every": 0},
        "why": "picard n=3 N=16 T=0.3 dt=0.01 eps=5e-3: 9 components, cubic minor and "
               "8x padding make pad_to_fine about half the run; heaviest "
               "set-up (3D data and compatibility check)",
    },
    "direct2d": {
        "config": {"dimension": 2, "grid_n": 64, "t_end": 1.0, "dt": 1.0 / 256,
                   "epsilon": 1e-2, "solver": "direct", "snapshot_every": 0},
        "why": "leapfrog n=2 N=64 T=1 dt=1/256 eps=1e-2: bypasses every Picard layer; "
               "thousands of small unbatched transforms in the pressure solve "
               "and 257 recover_pressure calls",
    },
}

# name -> (unit, better, bound, description)
END_TO_END = {
    "run_s": ("s", "lower", 0.25,
              "median wall time from the end of set-up to the last output file"),
    # CPU time, not wall time: the process is single-threaded (BLAS/OpenMP
    # pools at 1, numpy's FFT has none), so the two differ only by the time
    # the host takes the CPU away, which made this the noisiest metric.
    # run_s stays wall time.
    "solve_s": ("s", "lower", 0.25,
                "median CPU time of the process inside picard_solve or "
                "run_direct"),
    "setup_s": ("s", "lower", 0.25,
                "median time to import hkel, build the Grid and the data and "
                "run compatibility_residuals, over all processes of the run"),
    # the same picard2d process peaks at 263.6 or 275.2 MB (one trajectory
    # array apart) depending on the state of the machine
    "peak_rss_mb": ("MB", "lower", 0.15,
                    "median own-process peak RSS of the pipeline processes"),
    "ok_frac": ("frac", "higher", 0.01,
                "processes that passed the correctness gate / processes "
                "started (1 - failed_frac)"),
}

PICARD = ("picard2d", "picard3d")
ALL = ("picard2d", "picard3d", "direct2d")

# name -> (unit, description, (end-to-end metric it should move, workloads))
PER_LAYER = {
    "spectral.fft_calls": ("count", "numpy.fft.fftn and ifftn calls",
                           ("solve_s", ("direct2d",))),
    "spectral.fft_points": ("count", "points produced by those transforms",
                            ("solve_s", ALL)),
    "spectral.fft_s": ("s", "time in numpy.fft.fftn and ifftn",
                       ("solve_s", ("direct2d",))),
    "spectral.pad_to_fine_calls": ("count", "pad_to_fine calls",
                                   ("solve_s", PICARD)),
    "spectral.pad_to_fine_s": ("s", "pad_to_fine self time (its transforms "
                               "are in spectral.fft_s)",
                               ("solve_s", ("picard3d", "picard2d"))),
    "spectral.truncate_s": ("s", "truncate_from_fine self time",
                            ("solve_s", ("picard3d", "picard2d"))),
    "spectral.dealiased_product_s": ("s", "dealiased_product self time "
                                     "(sha256 ordering and products)",
                                     ("run_s", ("direct2d",))),
    "elastic.null_form_s": ("s", "null_form self time", ("solve_s", PICARD)),
    "elastic.minor_sum_s": ("s", "minor_sum_total and principal_minor_sum "
                            "self time", ("solve_s", PICARD)),
    "elastic.compat_s": ("s", "compatibility_residuals self time",
                         ("setup_s", ("picard3d",))),
    "elastic.recover_pressure_s": ("s", "recover_pressure self time",
                                   ("run_s", ("direct2d",))),
    "elastic.recover_pressure_calls": ("count", "recover_pressure calls",
                                       ("run_s", ALL)),
    "waves.duhamel_s": ("s", "duhamel_trajectory self time",
                        ("solve_s", PICARD)),
    "waves.duhamel_calls": ("count", "duhamel_trajectory calls",
                            ("solve_s", PICARD)),
    "waves.box_s": ("s", "box_trajectory and second_time_derivative self "
                    "time; on direct2d this is the one call in run_one",
                    ("solve_s", PICARD)),
    "waves.time_derivative_s": ("s", "time_derivative self time",
                                ("solve_s", PICARD)),
    "picard.iterations": ("count", "Picard iterations", ("solve_s", PICARD)),
    "picard.free_wave_s": ("s", "free_wave_state self time",
                           ("solve_s", PICARD)),
    "picard.map_s": ("s", "picard_map, inclusive", ("solve_s", PICARD)),
    "picard.map_self_s": ("s", "picard_map self time (Riesz and curl-free "
                          "assembly)", ("solve_s", PICARD)),
    "picard.norm_s": ("s", "besov_sup called by picard_solve (stopping "
                      "rule), inclusive", ("solve_s", PICARD)),
    "picard.traj_mb": ("MB", "one trajectory array, "
                       "samples * n^2 * N^n * 8 bytes",
                       ("peak_rss_mb", PICARD)),
    "picard.peak_traj_arrays": ("1", "untraced peak RSS / picard.traj_mb",
                                ("peak_rss_mb", PICARD)),
    "direct.steps": ("count", "direct_step calls", ("solve_s", ("direct2d",))),
    "direct.pressure_iters": ("count", "pressure iterations, summed over "
                              "steps", ("solve_s", ("direct2d",))),
    "direct.pressure_iters_max": ("count", "most pressure iterations in a step",
                                  ("solve_s", ("direct2d",))),
    "direct.solve_pressure_s": ("s", "solve_pressure self time",
                                ("solve_s", ("direct2d",))),
    "direct.step_self_s": ("s", "direct_step self time",
                           ("solve_s", ("direct2d",))),
    "diagnostics.besov_calls": ("count", "besov_norm calls outside "
                                "picard_solve", ("run_s", ALL)),
    "diagnostics.besov_s": ("s", "besov_norm and besov_sup self time outside "
                            "picard_solve", ("run_s", ("direct2d", "picard2d",
                                                       "picard3d"))),
    "diagnostics.s_surrogate_s": ("s", "s_surrogate self time",
                                  ("run_s", ("direct2d", "picard2d",
                                             "picard3d"))),
    "cli.diag_loop_self_s": ("s", "diagnostics loop of run_one less "
                             "recover_pressure, besov, s_surrogate and "
                             "box_trajectory (includes the transforms of "
                             "vector_from_gradient)", ("run_s", ALL)),
    "cli.write_s": ("s", "write_csv, write_snapshot and write_run_summary, "
                    "inclusive", ("run_s", ("picard2d",))),
    "cli.bytes_written": ("count", "bytes of diagnostics.csv and snapshots "
                          "(report.txt is left out: its wall clock varies in "
                          "width)", ("run_s", ("picard2d",))),
    "bandlimited.make_data_s": ("s", "make_shear_data, inclusive",
                                ("setup_s", ("picard3d",))),
    "trace.spans": ("count", "spans recorded in one traced process",
                    (None, ())),
    "trace.coverage_frac": ("frac", "share of run_s covered by the spans of "
                            "run_one's direct callees", (None, ())),
    "trace.overhead_frac": ("frac", "traced run_s / untraced run_s - 1",
                            (None, ())),
    "trace.count_mismatches": ("count", "exact counts that differ between the "
                               "two traced processes (0 when deterministic)",
                               (None, ())),
}

# Counts that must repeat exactly across processes with the same seed.
EXACT_COUNTS = (
    "spectral.fft_calls",
    "spectral.fft_points",
    "picard.iterations",
    "direct.pressure_iters",
    "cli.bytes_written",
)

# Correctness gate.  The bounds do not depend on the seed; the values observed
# at amplitude 1e-2 (and T=2 for the leapfrog) sit one to several orders of
# magnitude inside them.
MAX_CONTRACTION_RATIO = 0.1      # observed about 0.01 (ratio ~ epsilon)
MAX_DET_RESIDUAL_PICARD = 1e-8   # observed 2e-14 (2D) and 3e-10 (3D)
MAX_DET_DRIFT_DIRECT = 1e-6      # observed 9e-8 (leapfrog, O(dt^2))
