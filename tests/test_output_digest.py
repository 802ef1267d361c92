import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="output_digest"):
    loader = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def write_run(root, report_lines, config_lines, csv="t,x\n0,1\n"):
    (root / "eps_0.01").mkdir(parents=True)
    (root / "eps_0.01" / "report.txt").write_text("".join(report_lines))
    (root / "config.txt").write_text("".join(config_lines))
    (root / "diagnostics.csv").write_text(csv)
    return root


REPORT = ["hkel 0.1.0\n", "wall_clock_s = 1.234\n", "iterations = 5\n"]
CONFIG = ["dimension = 2\n", "output_dir = /somewhere\n", "seed = 0\n"]


def test_file_digests_drop_exactly_the_volatile_lines(tmp_path):
    tool = load_tool()
    digests = tool.file_digests(write_run(tmp_path / "a", REPORT, CONFIG))
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digests == [
        ("config.txt", sha("dimension = 2\nseed = 0\n")),
        ("diagnostics.csv", sha("t,x\n0,1\n")),
        ("eps_0.01/report.txt", sha("hkel 0.1.0\niterations = 5\n")),
    ]
    # another wall clock and output directory give the same digests
    report = [REPORT[0], "wall_clock_s = 99.0\n", REPORT[2]]
    config = [CONFIG[0], "output_dir = /elsewhere\n", CONFIG[2]]
    assert tool.file_digests(write_run(tmp_path / "b", report, config)) == digests


def test_file_digests_follow_every_other_line_its_order_and_the_files(tmp_path):
    tool = load_tool()
    base = tool.file_digests(write_run(tmp_path / "base", REPORT, CONFIG))
    variants = {
        # a volatile key only counts at the start of its own file's line
        "report_key_in_config": (REPORT, CONFIG + ["wall_clock_s = 1.0\n"]),
        "indented_key": ([REPORT[0], " wall_clock_s = 1.234\n", REPORT[2]], CONFIG),
        "changed_line": ([REPORT[0], REPORT[1], "iterations = 6\n"], CONFIG),
        "swapped_lines": (REPORT, [CONFIG[2], CONFIG[1], CONFIG[0]]),
    }
    for name, (report, config) in variants.items():
        assert tool.file_digests(write_run(tmp_path / name, report, config)) != base, name
    assert tool.file_digests(write_run(tmp_path / "csv", REPORT, CONFIG, "t,x\n0,2\n")) != base
    extra = write_run(tmp_path / "extra", REPORT, CONFIG)
    (extra / "0_first.txt").write_text("")
    digests = tool.file_digests(extra)
    assert digests[0][0] == "0_first.txt" and digests[1:] == base


def test_platform_line_names_numpy_the_machine_and_the_dispatch_targets(tmp_path, monkeypatch):
    import platform

    import numpy as np

    tool = load_tool()
    words = tool.platform_line().split()
    assert words[:4] == ["platform", "numpy", np.__version__, platform.machine()]
    assert len(words) == 6 and all(words[4].split(","))  # "none" if no target is enabled
    # the OpenBLAS core, read from the library numpy loaded
    assert words[5] == f"blas={tool.blas_core()}" and len(words[5]) > len("blas=")
    if any(tool.NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        assert tool.blas_core() != "none"
    monkeypatch.setattr(tool, "NUMPY_LIBS", tmp_path)  # no such library
    assert tool.blas_core() == "none" and tool.platform_line().endswith(" blas=none")


def test_output_moves_names_each_moved_column_and_the_identical_files(tmp_path, capsys):
    tool = load_tool("output_moves")
    sweep = "epsilon,ratio\n1e-3,2.0\n"
    a = write_run(tmp_path / "a", REPORT + ["s_surrogate = 2.0 4.0\n", "converged = True\n"],
                  CONFIG, "t,x,y\n0,1,2\n1,4,0\n")
    b = write_run(tmp_path / "b", [REPORT[0], "wall_clock_s = 9.9\n", REPORT[2],
                                   "s_surrogate = 2.5 4.0\n", "converged = False\n",
                                   "pressure_iterations_total = 9\n"],
                  [CONFIG[0], "output_dir = /elsewhere\n", CONFIG[2]], "t,x,y\n0,1,2\n1,4.5,0\n")
    for root in (a, b):
        (root / "sweep.csv").write_text(sweep)
    (b / "snapshot_000000.hkel").write_bytes(b"HKEL")
    assert tool.tree_moves(a, b) == [
        "config.txt identical",  # only the volatile output_dir line differs
        "diagnostics.csv t abs 0.00e+00 rel 0.00e+00",
        "diagnostics.csv x abs 5.00e-01 rel 1.11e-01",  # |4 - 4.5| / 4.5
        "diagnostics.csv y abs 0.00e+00 rel 0.00e+00",  # 0 against 0 is no move
        "eps_0.01/report.txt iterations abs 0.00e+00 rel 0.00e+00",
        "eps_0.01/report.txt s_surrogate abs 5.00e-01 rel 2.00e-01",
        "eps_0.01/report.txt converged differs",
        "eps_0.01/report.txt pressure_iterations_total only in B",
        "snapshot_000000.hkel only in B",
        "sweep.csv identical",
    ]
    (b / "sweep.csv").write_text("epsilon,ratio\n1e-3,2.0\n3e-3,2.0\n")
    (a / "snapshot_000000.hkel").write_bytes(b"HKEM")
    assert tool.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "snapshot_000000.hkel differs" in out
    assert "sweep.csv epsilon differs" in out and "sweep.csv ratio differs" in out


def test_output_moves_exits_0_on_identical_trees(tmp_path, capsys):
    tool = load_tool("output_moves")
    a = write_run(tmp_path / "a", REPORT, CONFIG)
    b = write_run(tmp_path / "b", [REPORT[0], "wall_clock_s = 9.9\n", REPORT[2]], CONFIG)
    assert tool.main([str(a), str(b)]) == 0
    assert all(line.endswith(" identical") for line in capsys.readouterr().out.splitlines())
    (b / "diagnostics.csv").write_text("t,x\n0,1.5\n")
    assert tool.main([str(a), str(b)]) == 1


def test_output_moves_reads_snapshots_as_their_time_and_field(tmp_path):
    from hkel.snapshots import write_snapshot

    tool = load_tool("output_moves")
    a, b = tmp_path / "a", tmp_path / "b"
    field = np.array([[[1.0, -2.0], [4.0, 0.0]]])
    for root, moved, time, ncomp in ((a, 0.0, 0.5, 1), (b, 0.5, 0.25, 2)):
        root.mkdir()
        write_snapshot(root / "snapshot_000000.hkel", 2, 2, 0.5, field)
        write_snapshot(root / "snapshot_000010.hkel", 2, 2, 0.5, field + [[[0, 0], [moved, 0]]])
        write_snapshot(root / "snapshot_000020.hkel", 2, 2, time, np.repeat(field, ncomp, axis=0))
    assert tool.tree_moves(a, b) == [
        "snapshot_000000.hkel identical",
        "snapshot_000010.hkel time abs 0.00e+00 rel 0.00e+00",
        "snapshot_000010.hkel field abs 5.00e-01 rel 1.11e-01",  # |4 - 4.5| / 4.5
        "snapshot_000020.hkel time abs 2.50e-01 rel 5.00e-01",
        "snapshot_000020.hkel field differs",  # 1 component against 2
    ]


def test_keep_writes_each_run_to_its_own_directory_and_refuses_a_used_one(tmp_path, monkeypatch,
                                                                          capsys):
    from hkel import cli

    def write(cfg, *rest):
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.output_dir) / "report.txt").write_text(f"seed = {cfg.seed}\n")
        return 0

    monkeypatch.setattr(cli, "run_one", lambda cfg: (write(cfg), None))
    monkeypatch.setattr(cli, "cmd_sweep", write)
    tool, kept = load_tool(), tmp_path / "kept"
    assert tool.main(["--keep", str(kept), "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == tool.platform_line()
    names = [line.split()[0] for line in lines[1:]]
    assert sorted(p.name for p in kept.iterdir()) == sorted(names) and len(names) == 5
    assert all((kept / name / "report.txt").read_text() == "seed = 3\n" for name in names)
    with pytest.raises(SystemExit):  # a second run would mix its files into the first's
        tool.main(["--keep", str(kept)])


def test_phase_memory_marks_the_end_of_each_phase_of_one_run(monkeypatch, capsys):
    from hkel import cli

    stubs = {name: (lambda *args, **kwargs: None) for name in (
        "load_initial_data", "compatibility_residuals", "picard_solve", "run_direct",
        "s_surrogate", "write_csv")}
    for name, stub in stubs.items():
        monkeypatch.setattr(cli, name, stub)
    configs = []

    def run_one(cfg):  # the phases in run_one's order; the loop writes two files
        configs.append(cfg)
        cli.load_initial_data()
        cli.compatibility_residuals()
        cli.run_direct()
        cli.s_surrogate()
        cli.write_csv()
        cli.write_csv()
        return 2, None

    monkeypatch.setattr(cli, "run_one", run_one)
    assert load_tool("phase_memory").main(["direct2d", "--seed", "3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [words[0] for words in lines] == [
        "import", "data", "compat", "solve", "surrogate", "diagnostics", "exit", "estimate",
        "trajectories"]
    assert lines[-3] == ["exit", "2"]
    rss, minflt, delta, cpu = (np.array([float(w[i]) for w in lines[:-3]]) for i in (1, 2, 3, 4))
    assert np.all(rss > 0) and np.all(np.diff(rss) >= 0) and np.all(np.diff(minflt) >= 0)
    assert np.array_equal(np.cumsum(delta), minflt)  # each phase's own faults
    assert np.all(cpu >= 0) and cpu[0] > 0  # each phase's own CPU time; the import takes some
    cfg, = configs
    assert (cfg.seed, cfg.solver, cfg.dimension, cfg.grid_n) == (3, "direct", 2, 64)
    assert lines[-2] == ["estimate", f"{cli.memory_estimate(cfg) / 2**20:.2f}"]
    # solve over compat, from the MiB printed to two places
    growth, trajectory_mib = rss[3] - rss[2], cli.trajectory_bytes(cfg) / 2**20
    assert lines[-1][0] == "trajectories"
    assert abs(float(lines[-1][1]) * trajectory_mib - growth) <= 0.011 + 5e-4 * trajectory_mib
    assert all(getattr(cli, name) is stub for name, stub in stubs.items())  # unwrapped after
    assert load_tool("phase_memory").main(["picard3d", "--t-end", "0.5"]) == 0
    assert (configs[-1].solver, configs[-1].dimension, configs[-1].t_end) == ("picard", 3, 0.5)
    estimate = capsys.readouterr().out.splitlines()[-2].split()
    assert estimate == ["estimate", f"{cli.memory_estimate(configs[-1]) / 2**20:.2f}"]
