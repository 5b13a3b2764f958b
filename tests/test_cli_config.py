"""Command-line configuration: every `ScenarioConfig` key is a flag with the
same meaning as in a config file, argument errors exit as configuration
errors, and the corridor `trim_backward` default is one rule on both the
command-line and the library path."""

from dataclasses import fields

import pytest

from swarmplan.cli import (
    EXIT_CONFIG,
    ConfigError,
    ScenarioConfig,
    _load_cfg,
    build_scenario,
    make_parser,
    run_command,
)

# one non-default value per config key, written so that a config file and a
# flag parse it to equal values
NON_DEFAULT = {
    "scenario": "corridor",
    "map_path": "maps/custom.txt",
    "robots": 7,
    "k": 2,
    "order": 6,
    "r_comm": 12.5,
    "attract_amp": 0.8,
    "repulse_amp": 1.5,
    "attract_len": 16.5,
    "repulse_len": 3.5,
    "goal_amp": 2.5,
    "goal_len": 18.5,
    "sigma": 1.5,
    "occupied_value": 4.5,
    "start_x": 6.5,
    "start_y": 7.5,
    "start_std": 1.5,
    "goal_x": 20.5,
    "goal_y": 21.5,
    "horizon": 5,
    "execution_fraction": 0.75,
    "goal_radius": 2.5,
    "max_horizons": 40,
    "v_nominal": 1.5,
    "d_safe": 1.25,
    "dt": 0.1,
    "trim_backward": True,
    "use_goal": False,
    "seed": 9,
    "map_size": 36,
    "corridor_width": 5,
    "wall_thickness": 3,
    "n_blocks": 4,
    "block_max": 5,
}

DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _flag(name, value):
    flag = "--" + name.replace("_", "-")
    if isinstance(value, bool):
        return [flag] if value else ["--no-" + flag[2:]]
    return [flag, str(value)]


def _cfg(argv):
    return _load_cfg(make_parser().parse_args([*argv, "--out", "unused"]))


def test_non_default_table_covers_every_key():
    assert set(NON_DEFAULT) == set(DEFAULTS)
    assert all(NON_DEFAULT[n] != DEFAULTS[n] for n in DEFAULTS)


@pytest.mark.parametrize("command", ["plan", "mrf-only", "render-field"])
@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_every_config_key_is_a_flag(command, name):
    value = NON_DEFAULT[name]
    args = make_parser().parse_args([command, *_flag(name, value), "--out", "unused"])
    assert getattr(args, name) == value


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_flag_equals_config_file_and_wins(name, tmp_path):
    value = NON_DEFAULT[name]
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"{name} = {value}\n")
    by_flag = _cfg(["plan", *_flag(name, value)])
    assert getattr(by_flag, name) == value
    assert by_flag == _cfg(["plan", "--config", str(cfgfile)])

    cfgfile.write_text(f"{name} = {DEFAULTS[name]}\n")
    assert _cfg(["plan", "--config", str(cfgfile), *_flag(name, value)]) == by_flag


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--robots", "x", "--out", "unused"],
        ["plan", "--scenario", "maze", "--out", "unused"],
        ["plan", "--scenario", "free"],
    ],
    ids=["bad-int", "unknown-scenario", "missing-out"],
)
def test_argument_errors_exit_as_config_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == EXIT_CONFIG


@pytest.mark.parametrize("line", ["robots = 5.5", "k = two", "use_goal = maybe", "seed = none"])
def test_config_file_value_of_the_wrong_type_is_a_config_error(line, tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match=line.split(" =")[0]):
        ScenarioConfig.from_text(line + "\n")
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(line + "\n")
    monkeypatch.chdir(tmp_path)
    assert run_command(["plan", "--config", str(cfgfile), "--out", "out"]) == EXIT_CONFIG


def test_config_file_value_is_typed_by_the_field(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("start_x = 10\ngoal_x = none\nsigma = inf\nuse_goal = FALSE\n")
    by_file = _cfg(["plan", "--config", str(cfgfile)])
    by_flag = _cfg(["plan", "--start-x", "10", "--sigma", "inf", "--no-use-goal"])
    assert by_file == by_flag
    assert type(by_file.start_x) is float
    assert by_file.goal_x is None
    assert by_file.to_text() == by_flag.to_text()
    assert "start_x = 10.0\n" in by_file.to_text()


def test_corridor_trim_backward_default_same_on_library_and_cli():
    _, lib = build_scenario(ScenarioConfig(scenario="corridor"))
    _, cli = build_scenario(_cfg(["plan", "--scenario", "corridor"]))
    assert lib.trim_backward is True
    assert cli == lib
    _, free = build_scenario(ScenarioConfig(scenario="free"))
    assert free.trim_backward is False


def test_corridor_trim_backward_can_be_turned_off(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("scenario = corridor\ntrim_backward = false\n")
    _, by_file = build_scenario(_cfg(["plan", "--config", str(cfgfile)]))
    assert by_file.trim_backward is False
    _, by_flag = build_scenario(_cfg(["plan", "--scenario", "corridor", "--no-trim-backward"]))
    assert by_flag.trim_backward is False


def test_map_path_run_defaults_trim_backward_off(tmp_path):
    mapfile = tmp_path / "map.txt"
    mapfile.write_text("gridmap 12 12 1.0\n" + ("0 " * 12 + "\n") * 12)
    _, cfg = build_scenario(
        _cfg(["plan", "--scenario", "corridor", "--map-path", str(mapfile),
              "--start-x", "6", "--start-y", "6", "--goal-x", "8", "--goal-y", "8"])
    )
    assert cfg.trim_backward is False
