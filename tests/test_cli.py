import dataclasses

import numpy as np
import pytest

from hkel import cli
from hkel.cli import main
from hkel.config import RunConfig, parse_config
from hkel.diagnostics import SweepRow, gradient_besov_sup
from hkel.direct import run_direct
from hkel.snapshots import read_snapshot, write_snapshot

from conftest import physical_diagnostics, physical_run_direct, whole_lattice_free_wave


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SMALL = """
dimension = 2
grid_n = 16
epsilon = {eps}
t_end = 0.25
dt = 0.03125
seed = 5
solver = {solver}
output_dir = {out}
"""


# -- snapshots -------------------------------------------------------------------


def test_snapshot_round_trip_bitwise(tmp_path, rng):
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        size = 8
        comps = rng.standard_normal((int(rng.integers(1, 5)),) + (size,) * n)
        t = float(rng.uniform(0, 10))
        path = tmp_path / f"snap_{i}.hkel"
        write_snapshot(path, n, size, t, comps)
        n2, size2, t2, back = read_snapshot(path)
        assert (n2, size2) == (n, size)
        assert t2 == t
        assert np.array_equal(back, comps.reshape(back.shape))
        header = 28
        assert path.stat().st_size == header + 8 * comps.size


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hkel"
    path.write_bytes(b"NOPE" + bytes(24))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path, rng):
    path = tmp_path / "trunc.hkel"
    write_snapshot(path, 2, 8, 0.0, rng.standard_normal((2, 8, 8)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)


# -- simulate ---------------------------------------------------------------------


def test_simulate_zero_amplitude(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.0, solver="picard", out=out))
    assert main(["simulate", cfg]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,besov_G,besov_dG,energy,det_residual,pressure_curl_residual"
    assert len(lines) == 1 + 9  # 8 steps + initial sample
    for line in lines[1:]:
        values = [float(x) for x in line.split(",")]
        assert all(v == 0.0 for v in values[1:])


def test_simulate_writes_snapshots_and_report(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        SMALL.format(eps=0.01, solver="picard", out=out) + "snapshot_every = 4\n",
    )
    assert main(["simulate", cfg]) == 0
    snaps = sorted(out.glob("snapshot_*.hkel"))
    assert len(snaps) == 3  # samples 0, 4, 8
    n, size, t, comps = read_snapshot(snaps[0])
    assert (n, size, t) == (2, 16, 0.0)
    assert comps.shape == (4, 16, 16)
    report = (out / "report.txt").read_text()
    assert "converged = True" in report
    assert "pressure_iterations_total" not in report  # a leapfrog line
    assert (out / "config.txt").exists()


def test_simulate_direct_solver(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="direct", out=out))
    assert main(["simulate", cfg]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    det = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(det) <= 1e-4
    # iterations is the most in one step; the total line sums every step's
    from hkel.elastic import make_shear_data
    from hkel.spectral import Grid

    cfg = parse_config(SMALL.format(eps=0.01, solver="direct", out=out))
    grid = Grid(2, 16)
    steps = run_direct(grid, make_shear_data(grid, cfg.epsilon, seed=cfg.seed), cfg)
    lines = (out / "report.txt").read_text().splitlines()[1:]
    report = dict(line.split(" = ", 1) for line in lines)
    assert int(report["iterations"]) == max(steps.pressure_iterations)
    assert int(report["pressure_iterations_total"]) == sum(steps.pressure_iterations)


def test_simulate_deterministic_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out_a), "a.cfg")
    cfg_b = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out_b), "b.cfg")
    assert main(["simulate", cfg_a]) == 0
    assert main(["simulate", cfg_b]) == 0
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()


@pytest.mark.parametrize("solver", ["picard", "direct"])
def test_diagnostics_bytes_independent_of_chunk_size(tmp_path, monkeypatch, solver):
    from hkel.spectral import Grid

    default = Grid.samples_per_chunk
    chunks = (("one", lambda grid: 1), ("four", lambda grid: 4), ("default", default))
    for n, eps in ((2, 0.01), (3, 5e-3)):  # the default is 64 samples in 2D, 1 in 3D
        outputs = []
        for name, chunk in chunks:
            monkeypatch.setattr(Grid, "samples_per_chunk", chunk)
            out = tmp_path / f"{name}{n}"
            body = SMALL.format(eps=eps, solver=solver, out=out) + "diagnostics_every = 3\n"
            body = body.replace("dimension = 2", f"dimension = {n}")
            assert main(["simulate", write_cfg(tmp_path, body, f"{name}{n}.cfg")]) == 0
            outputs.append((out / "diagnostics.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], n
        assert len(outputs[0].splitlines()) == 1 + 3  # t = 0, 3 dt, 6 dt of 9 samples
    assert Grid(2, 16).samples_per_chunk() > 3  # the default batches several samples


@pytest.mark.parametrize("solver", ["picard", "direct"])
def test_every_second_row_equals_the_every_sample_row(tmp_path, monkeypatch, solver):
    # a row reads its own sample and, for the leapfrog's velocity, the samples
    # beside it, which lie outside a batch of every second sample; chunks of
    # three samples put batch edges inside the run
    from hkel.spectral import Grid

    monkeypatch.setattr(Grid, "samples_per_chunk", lambda grid: 3)
    tables = []
    for every in (1, 2):
        out = tmp_path / f"every{every}"
        body = SMALL.format(eps=0.01, solver=solver, out=out) + f"diagnostics_every = {every}\n"
        assert main(["simulate", write_cfg(tmp_path, body, f"every{every}.cfg")]) == 0
        tables.append((out / "diagnostics.csv").read_text().splitlines())
    every_sample, every_second = tables
    assert len(every_second) == 1 + 5  # t = 0, 2 dt, ..., 8 dt, the last sample
    assert every_second == every_sample[:1] + every_sample[1::2]


def test_run_one_after_the_leapfrog_holds_little_beyond_y_and_box(tmp_path, monkeypatch):
    # the leapfrog hands over Y and box Y only, and its velocity is formed a
    # chunk or a block of modes at a time where it is read, so nothing after
    # the solve holds a third trajectory (direct2d's lattice, 129 samples)
    import tracemalloc

    solved = {}

    def solve(*args, **kwargs):
        solved["run"] = run = run_direct(*args, **kwargs)
        tracemalloc.reset_peak()
        return run

    monkeypatch.setattr(cli, "run_direct", solve)
    body = SMALL.format(eps=0.01, solver="direct", out=tmp_path / "out")
    body = body.replace("grid_n = 16", "grid_n = 64").replace(
        "t_end = 0.25\ndt = 0.03125", "t_end = 0.5\ndt = 0.00390625")
    tracemalloc.start()
    try:
        assert main(["simulate", write_cfg(tmp_path, body)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run = solved["run"]
    assert len(run.Yh) == 129
    # 0.41 of a trajectory above Y and box Y here, 1.4 with the velocity stored
    assert peak < run.Yh.nbytes + run.boxYh.nbytes + 0.5 * run.Yh.nbytes


# Largest move of each diagnostics.csv column (and of report.txt's s_surrogate)
# from the physical path, relative to the oracle's value, except det_residual,
# which sits at its rounding floor and is bounded absolutely.  Measured at this
# configuration: Picard besov_G 1.9e-12, besov_dG 2.6e-12, energy 3.2e-16,
# det_residual 0, pressure_curl_residual 1.8e-6 (rounding amplified by the
# box's 1/dt^2), s_surrogate 1.6e-12; the leapfrog besov_dG 2.2e-15, energy
# 2.1e-15, pressure_curl_residual 4.8e-10 and s_surrogate 1.9e-15.  The
# leapfrog transforms its physical Y and box as the oracle does, so besov_G and
# det_residual match exactly; its velocity is the difference of Y's spectra,
# the oracle's the transform of the physical difference.
ORACLE_BOUNDS = {
    "picard": dict(t=0.0, besov_G=1e-11, besov_dG=1e-11, energy=1e-14, det_residual=1e-15,
                   pressure_curl_residual=1e-5, s_surrogate=1e-10),
    "direct": dict(t=0.0, besov_G=0.0, besov_dG=1e-14, energy=1e-14, det_residual=0.0,
                   pressure_curl_residual=1e-8, s_surrogate=1e-14),
}


@pytest.mark.parametrize("solver", ["picard", "direct"])
def test_diagnostics_match_physical_oracle(tmp_path, solver):
    from hkel.elastic import make_shear_data
    from hkel.picard import picard_solve
    from hkel.spectral import Grid

    out = tmp_path / "out"
    body = SMALL.format(eps=0.01, solver=solver, out=out)
    assert main(["simulate", write_cfg(tmp_path, body)]) == 0
    cfg = parse_config(body)
    grid = Grid(2, 16)
    data = make_shear_data(grid, cfg.epsilon, seed=cfg.seed)
    if solver == "picard":
        state = picard_solve(grid, data, cfg).state
        trajectories = [grid.ifft(uh) for uh in (state.Yh, state.dYh, state.boxYh)]
    else:
        trajectories = physical_run_direct(grid, data, cfg)
    want, want_s = physical_diagnostics(grid, cfg.time_grid(), *trajectories)
    got = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
    lines = (out / "report.txt").read_text().splitlines()[1:]
    report = dict(line.split(" = ", 1) for line in lines)
    bounds = ORACLE_BOUNDS[solver]
    for j, name in enumerate(("t", "besov_G", "besov_dG", "energy", "det_residual",
                              "pressure_curl_residual")):
        scale = 1.0 if name == "det_residual" else np.abs(want[:, j])
        assert np.all(np.abs(got[:, j] - want[:, j]) <= bounds[name] * scale), name
    assert abs(float(report["s_surrogate"]) - want_s) <= bounds["s_surrogate"] * want_s


def test_simulate_output_override(tmp_path):
    out = tmp_path / "default"
    override = tmp_path / "elsewhere"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.0, solver="picard", out=out))
    assert main(["simulate", cfg, "--output", str(override)]) == 0
    assert (override / "diagnostics.csv").exists()
    assert not out.exists()


def test_simulate_exit_two_on_non_convergence(tmp_path, capsys):
    out = tmp_path / "out"
    body = SMALL.format(eps=0.01, solver="picard", out=out)
    body += "picard_max_iter = 1\npicard_tol = 1e-15\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["simulate", cfg]) == 2
    assert (out / "diagnostics.csv").exists()  # diagnostics still written
    err = capsys.readouterr().err
    assert "not converged" in err


def test_simulate_diverging_iteration_exits_two(tmp_path, capsys, monkeypatch):
    # amplitude 1 fails the compatibility check, which is skipped here to
    # reach a Picard iteration whose ratios stay above 1
    monkeypatch.setattr(cli, "compatibility_residuals", lambda grid, data: (0.0, 0.0))
    out = tmp_path / "out"
    body = SMALL.format(eps=1.0, solver="picard", out=out)
    body = body.replace("t_end = 0.25\ndt = 0.03125\nseed = 5", "t_end = 2\ndt = 0.05\nseed = 0")
    assert main(["simulate", write_cfg(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("not converged: diverging Picard iteration: ratios")
    assert "at iteration 5" in err


def test_simulate_refuses_run_larger_than_memory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    need = cli.memory_estimate(parse_config((tmp_path / "run.cfg").read_text()))
    # 9 samples of 2 half spectra of 16 x 9 modes; G on 32^2 points is below the chunk budget
    trajectory = 9 * 2 * 16 * 9 * 16
    fixed = cli.BASELINE_BYTES + cli.CHUNK_LATTICES * cli.CHUNK_BYTES
    assert need == cli.TRAJECTORY_ARRAYS["picard"] * trajectory + fixed
    monkeypatch.setattr(cli, "physical_memory", lambda: need - 1)
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{need / 1e9:.3g} GB" in err and f"{(need - 1) / 1e9:.3g} GB" in err
    assert not out.exists()
    monkeypatch.setattr(cli, "physical_memory", lambda: need)
    assert main(["simulate", cfg]) == 0


def test_memory_estimate_admits_3d_n32_to_t5():
    # the guard once counted n^2 N^n float64 arrays and refused this run at
    # 9.46 GB, then 10 half-spectrum trajectories at 4.34 GB and 6 at 2.67 GB;
    # 4 read 1.83 GB
    from hkel.config import RunConfig

    cfg = RunConfig(dimension=3, grid_n=32, t_end=5.0, dt=0.01, epsilon=5e-3)
    assert 1.7e9 < cli.memory_estimate(cfg) < 2e9


MEASURED_RUN = """
import resource, sys
from hkel import cli
from hkel.config import parse_config
cfg = parse_config(open(sys.argv[1]).read())
assert cli.run_one(cfg)[0] == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024, cli.memory_estimate(cfg))
"""
# ru_maxrss keeps the high-water mark of the memory a process replaces at exec,
# which a child of pytest copies from pytest, so the run starts from a small launcher
LAUNCH = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"


@pytest.mark.parametrize(
    "n, size, t_end, eps, solver",
    [(2, 64, 0.5, 1e-2, "picard"), (3, 16, 0.3, 5e-3, "picard"), (3, 16, 2.4, 5e-3, "picard"),
     (2, 64, 1.5, 1e-2, "direct")],
    ids=["2-64-0.5-0.01", "3-16-0.3-0.005", "3-16-2.4-0.005", "direct-2-64-1.5-0.01"],
)
def test_memory_estimate_bounds_measured_peak(tmp_path, n, size, t_end, eps, solver):
    # own-process peak RSS (ru_maxrss, KiB on Linux) of a fresh interpreter
    import os
    import subprocess
    import sys
    from pathlib import Path

    body = SMALL.format(eps=eps, solver=solver, out=tmp_path / "out")
    body = body.replace("dimension = 2\ngrid_n = 16", f"dimension = {n}\ngrid_n = {size}")
    body = body.replace("t_end = 0.25\ndt = 0.03125", f"t_end = {t_end}\ndt = 0.01")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", LAUNCH, "-c", MEASURED_RUN, write_cfg(tmp_path, body)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
    peak, need = map(int, out.stdout.split())
    assert need / 2 < peak < need


@pytest.mark.parametrize("command", ["simulate", "check-data"])
def test_missing_init_file_exits_one(tmp_path, capsys, command):
    missing = tmp_path / "missing.hkel"
    body = SMALL.format(eps=0.01, solver="picard", out=tmp_path / "out")
    assert main([command, write_cfg(tmp_path, body + f"init = file:{missing}\n")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize(
    "command", [["simulate"], ["sweep", "--epsilons", "1e-3,3e-3,1e-2"]], ids=["simulate", "sweep"]
)
def test_output_dir_that_is_a_file_exits_one(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=taken))
    assert main(command[:1] + [cfg] + command[1:]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(taken) in err


def test_simulate_bad_config_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dimension = 4\n")
    assert main(["simulate", cfg]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["dt = nan", "t_end = inf", "epsilon = nan"])
def test_simulate_non_finite_value_exit_one(tmp_path, capsys, line):
    key = line.split()[0]
    body = "\n".join(
        x for x in SMALL.format(eps=0.01, solver="picard", out=tmp_path / "out").splitlines()
        if not x.startswith(key)
    )
    assert main(["simulate", write_cfg(tmp_path, body + f"\n{line}\n")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{key} must be finite" in err


def test_simulate_rejects_snapshot_with_nan(tmp_path, capsys, grid2):
    from hkel.elastic import make_shear_data

    data = make_shear_data(grid2, 1e-2, seed=9, band=2)
    comps = np.concatenate([data.f, data.g])
    comps[0, 3, 5] = np.nan
    snap = tmp_path / "init.hkel"
    write_snapshot(snap, 2, 32, 0.0, comps)
    body = SMALL.format(eps=0.01, solver="picard", out=tmp_path / "out")
    body = body.replace("grid_n = 16", "grid_n = 32") + f"init = file:{snap}\n"
    assert main(["simulate", write_cfg(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "incompatible initial data: residuals (nan, nan)" in err


def test_simulate_refuses_under_resolved_shear_data_and_suggests_a_grid(tmp_path, capsys):
    # 3D N=16 shear data at amplitude 1e-2, seed 6, miss the velocity residual
    # bound by truncation of the composed shears; at N=32 the same seed passes
    body = SMALL.format(eps=0.01, solver="picard", out=tmp_path / "out")
    body = body.replace("dimension = 2", "dimension = 3").replace("seed = 5", "seed = 6")
    assert main(["simulate", write_cfg(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: incompatible initial data: residuals (")
    assert err.rstrip().endswith(
        "the composed shears are under-resolved at grid_n = 16, try grid_n = 32")
    body = body.replace("grid_n = 16", "grid_n = 32")
    assert main(["check-data", write_cfg(tmp_path, body)]) == 0


def test_simulate_from_snapshot_file(tmp_path, grid2):
    from hkel.elastic import make_shear_data

    data = make_shear_data(grid2, 1e-2, seed=9, band=2)
    snap = tmp_path / "init.hkel"
    write_snapshot(
        snap, 2, 32, 0.0, np.concatenate([data.f, data.g]).reshape((4,) + grid2.shape)
    )
    out = tmp_path / "out"
    body = SMALL.format(eps=0.01, solver="picard", out=out).replace(
        "grid_n = 16", "grid_n = 32"
    )
    body += f"init = file:{snap}\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["simulate", cfg]) == 0


# -- sweep -------------------------------------------------------------------------


def test_sweep_requires_three_amplitudes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["sweep", cfg]) == 1
    assert main(["sweep", cfg, "--epsilons", "1e-2"]) == 1
    assert "at least 3" in capsys.readouterr().err


def test_sweep_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["sweep", cfg, "--epsilons", "1e-3,3e-3,1e-2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    columns = [f.name for f in dataclasses.fields(SweepRow)]
    assert lines[0].split(",") == columns
    assert len(lines) == 4
    for line in lines[1:]:
        cells = dict(zip(columns, line.split(",")))
        for name in ("iterations", "converged", "monotone"):
            assert cells[name] == str(int(cells[name])), (name, cells[name])
    for eps in ("0.001", "0.003", "0.01"):
        assert (out / f"eps_{eps}" / "diagnostics.csv").exists()
        # each run's config.txt records the amplitude that run used
        assert parse_config((out / f"eps_{eps}" / "config.txt").read_text()).epsilon == float(eps)


@pytest.mark.parametrize("solver", ["picard", "direct"])
def test_sweep_free_deviation_against_whole_lattice_free_wave_bitwise(tmp_path, solver):
    # the configuration and amplitudes of tools/output_digest.py's sweep lines
    for eps in (1e-3, 3e-3, 1e-2):
        cfg = RunConfig(dimension=2, grid_n=16, t_end=0.25, dt=1 / 32, epsilon=eps,
                        solver=solver, output_dir=str(tmp_path / f"{solver}{eps}"))
        code, art = cli.run_one(cfg)
        assert code == cli.EXIT_OK
        grid = art.grid
        seed = [grid.fft(grid.leray_project(u)) for u in (art.data.f, art.data.g)]
        free = whole_lattice_free_wave(grid, seed, art.tg.times)[0]
        want = gradient_besov_sup(grid, art.Yh - free, grid.n / 2.0)
        got = cli._sweep_row(eps, art).free_deviation
        assert got > 0.0 and np.float64(got).tobytes() == np.float64(want).tobytes(), eps


def test_sweep_rejects_repeated_amplitudes_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["sweep", cfg, "--epsilons", "1e-3,1e-3,1e-2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: sweep amplitudes must be distinct\n"
    assert not out.exists()


def test_sweep_close_amplitudes_get_their_own_directories(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["sweep", cfg, "--epsilons", "1e-3,1.0000001e-3,1e-2"]) == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["eps_0.001", "eps_0.0010000001", "eps_0.01"]
    for name in dirs:
        eps = parse_config((out / name / "config.txt").read_text()).epsilon
        assert name == f"eps_{eps!r}"


def test_sweep_direct_pressure_failure_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    body = SMALL.format(eps=0.01, solver="direct", out=out) + "pressure_max_iter = 2\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["sweep", cfg, "--epsilons", "1e-3,3e-3,1e-2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not converged: pressure iteration" in err


def test_sweep_rejects_non_finite_amplitude_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["sweep", cfg, "--epsilons", "1e-3,2e-3,nan"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "epsilon must be finite" in err
    assert not out.exists()


def test_sweep_rejects_file_init(tmp_path, capsys):
    snap = tmp_path / "init.hkel"
    write_snapshot(snap, 2, 16, 0.0, np.zeros((4, 16, 16)))
    out = tmp_path / "out"
    body = SMALL.format(eps=0.01, solver="picard", out=out) + f"init = file:{snap}\n"
    assert main(["sweep", write_cfg(tmp_path, body), "--epsilons", "1e-3,3e-3,1e-2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "shear_composition" in err
    assert not out.exists()


# -- check-data / selftest ------------------------------------------------------------


def test_check_data(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, SMALL.format(eps=0.01, solver="picard", out=out))
    assert main(["check-data", cfg]) == 0
    text = capsys.readouterr().out
    assert "velocity residual" in text


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") >= 6
    assert "FAIL" not in text


def test_selftest_deterministic():
    from hkel.selftest import SUITES, run_selftest

    assert len(SUITES) > 0
    a, b = [], []
    assert run_selftest(out=a.append)
    assert run_selftest(out=b.append)
    assert a == b
