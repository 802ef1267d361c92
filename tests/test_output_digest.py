import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def load_tool():
    loader = importlib.util.spec_from_file_location("output_digest", TOOL)
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
