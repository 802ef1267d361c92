import pytest

from hkel.config import ConfigError, RunConfig, format_config, parse_config

MINIMAL = """
dimension = 2
grid_n = 64
epsilon = 0.01
t_end = 5
dt = 0.01
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.dimension == 2
    assert cfg.grid_n == 64
    assert cfg.solver == "picard"
    assert cfg.init == "shear_composition"
    assert cfg.picard_max_iter == 20
    assert cfg.snapshot_every == 0


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\n" + MINIMAL + "\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'grid_m'"):
        parse_config(MINIMAL + "\ngrid_m = 32\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'dt'"):
        parse_config("dimension = 2\ngrid_n = 64\nepsilon = 0.01\nt_end = 5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(MINIMAL + "\nseed = 1\nseed = 2\n")


def test_dimension_must_be_2_or_3():
    bad = MINIMAL.replace("dimension = 2", "dimension = 4")
    with pytest.raises(ConfigError, match="dimension must be 2 or 3"):
        parse_config(bad)


def test_zero_dt_rejected_by_name():
    bad = MINIMAL.replace("dt = 0.01", "dt = 0")
    with pytest.raises(ConfigError, match="dt"):
        parse_config(bad)


def test_inconsistent_horizon_rejected():
    bad = MINIMAL.replace("t_end = 5", "t_end = 5.003")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(bad)


def test_bad_value_names_key():
    bad = MINIMAL.replace("epsilon = 0.01", "epsilon = lots")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(bad)


def test_bad_solver_rejected():
    with pytest.raises(ConfigError, match="solver"):
        parse_config(MINIMAL + "\nsolver = magic\n")


def test_non_power_of_two_grid_rejected():
    bad = MINIMAL.replace("grid_n = 64", "grid_n = 48")
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config(bad)


def test_sweep_epsilons_parsed():
    cfg = parse_config(MINIMAL + "\nsweep_epsilons = 1e-3, 1e-2, 1e-1\n")
    assert cfg.sweep_epsilons == (1e-3, 1e-2, 1e-1)


def test_format_config_round_trips():
    cfg = parse_config(MINIMAL + "\nseed = 42\nsweep_epsilons = 1e-3,1e-2,1e-1\n")
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_steps_and_time_grid():
    cfg = parse_config(MINIMAL)
    assert cfg.steps == 500
    tg = cfg.time_grid()
    assert (tg.dt, tg.steps) == (0.01, 500)


@pytest.mark.parametrize(
    "key, value",
    [("dt", "nan"), ("t_end", "inf"), ("epsilon", "nan"), ("picard_tol", "nan"),
     ("pressure_tol", "-inf"), ("sweep_epsilons", "1e-3, nan, 1e-1")],
)
def test_non_finite_value_rejected_by_name(key, value):
    kept = [line for line in MINIMAL.splitlines() if not line.startswith(key)]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config("\n".join(kept) + f"\n{key} = {value}\n")


def test_step_count_overflow_rejected():
    with pytest.raises(ConfigError, match="t_end"):
        RunConfig(t_end=1e300, dt=1e-300)
