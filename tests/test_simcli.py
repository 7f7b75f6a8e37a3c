import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.geometry import GridState
from absim.qlearning import load_qtable
from absim.simcli import (ConfigValidationError, PlotDataError, config_to_dict,
                          emit_plot_data, load_config, main, read_metrics,
                          read_trajectory, run_train, smooth_series)


def small_config_dict(episodes=3):
    """Desk-sized scenario that trains in well under a second."""
    return {
        "area": {"x_min_m": 0.0, "x_max_m": 400.0, "y_min_m": 0.0,
                 "y_max_m": 400.0, "cells_per_axis": 4, "altitude_m": 100.0},
        "abs": [
            {"initial_cell": [1, 1], "final_cell": [4, 4]},
            {"initial_cell": [4, 1], "final_cell": [1, 4]},
        ],
        "users": {"count": 4, "placement_seed": 5},
        "n_subchannels": 2,
        "learning": {"max_episodes": episodes, "max_steps_per_episode": 40},
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# every float the config reads, as (section or None for top level, key)
FLOAT_FIELDS = [("area", k) for k in ("x_min_m", "x_max_m", "y_min_m", "y_max_m",
                                      "altitude_m")] \
    + [("propagation", k) for k in ("a", "b", "eta_los", "eta_nlos", "carrier_freq_hz",
                                    "speed_of_light_m_per_s", "noise_power_watts")] \
    + [("gbs", k) for k in ("x_m", "y_m", "height_m", "power_per_subchannel_watts")] \
    + [("learning", k) for k in ("alpha", "gamma", "epsilon", "epsilon_decay",
                                 "initial_q")] \
    + [("reward_weights", k) for k in ("beta1", "beta2", "beta3")] \
    + [(None, "p_max_watts"), (None, "d_min_m")]

# json.loads reads all three: NaN and Infinity by name, 1e400 as inf
NON_FINITE = ["NaN", "Infinity", "1e400"]


def write_with_token(tmp_path, data, token):
    """Write data as JSON with the string "TOKEN" replaced by a raw JSON token."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data).replace('"TOKEN"', token))
    return str(path)


class TestLoadConfig:
    def test_defaults_mirror_headline_scenario(self):
        config, params = load_config()
        assert config.area.cells_per_axis == 30
        assert config.area.x_max == 3000.0
        assert config.n_agents == 2
        assert config.users_xy.shape == (20, 2)
        assert config.association.tolist() == [0] * 10 + [1] * 10
        assert config.n_subchannels == 8
        assert config.p_max == 0.2
        assert config.d_min == 5.0
        assert (config.beta1, config.beta2, config.beta3) == (10.0, 0.25, 1000.0)
        assert config.propagation.a == 5.0 and config.propagation.b == 0.5
        assert config.propagation.eta_los == 1.0 and config.propagation.eta_nlos == 20.0
        assert config.propagation.carrier_freq == 2.0e9
        assert config.area.altitude == 100.0
        assert params.gamma == 0.9 and params.epsilon == 0.1
        assert params.max_episodes == 2000

    def test_partial_override(self, tmp_path):
        path = write_config(tmp_path, {"p_max_watts": 0.5,
                                       "learning": {"epsilon": 0.3}})
        config, params = load_config(path)
        assert config.p_max == 0.5
        assert params.epsilon == 0.3
        assert params.gamma == 0.9  # untouched default

    def test_invalid_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, {"area": {"cells_per_axis": 1}})
        with pytest.raises(ConfigValidationError):
            load_config(path)

    def test_negative_weight_rejected(self, tmp_path):
        path = write_config(tmp_path, {"reward_weights": {"beta3": -1.0}})
        with pytest.raises(ConfigValidationError):
            load_config(path)

    @pytest.mark.parametrize("data", [
        {"users": {"count": "ten"}},
        {"users": {"placement_seed": "x"}},
        {"users": 5},
        {"users": {"positions_m": 5.0}},
        {"abs": [{"initial_cell": [1], "final_cell": [2, 2]}]},
        [1, 2],
        # int(inf) raises OverflowError, not ValueError
        {"area": {"cells_per_axis": float("inf")}},
        {"users": {"count": float("inf")}},
        {"learning": {"max_episodes": float("inf")}},
        {"n_subchannels": float("inf")},
        # bool("false") is True: only a JSON boolean switches the GBS
        {"gbs": {"enabled": "false"}},
        {"gbs": {"enabled": 0}},
        {"gbs": {"enabled": "yes"}},
        # int() would truncate these silently
        {"area": {"cells_per_axis": 30.7}},
        {"area": {"cells_per_axis": True}},
        {"users": {"count": 20.5}},
        {"users": {"placement_seed": 1.5}},
        {"n_subchannels": 8.5},
        {"learning": {"max_episodes": 2.9}},
        {"learning": {"max_steps_per_episode": 10.5}},
        {"distance_exponent": 1.5},
        {"abs": [{"initial_cell": [1.9, 1], "final_cell": [30, 30]}]},
        {"abs": [{"initial_cell": [1, 1], "final_cell": [30, "30"]}]},
        {"abs": [{"initial_cell": [1, 1, 7], "final_cell": [30, 30]}]},
        {"users": {"positions_m": [[10.0, 10.0], [20.0, 20.0]],
                   "association": [0.5, 1.7]}},
    ])
    def test_malformed_values_rejected(self, tmp_path, data):
        with pytest.raises(ConfigValidationError):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("data, message", [
        ({"gbs": {"enabled": "false"}}, "gbs: enabled must be true or false, got 'false'"),
        ({"area": {"cells_per_axis": 30.7}},
         "area: cells_per_axis must be an integer, got 30.7"),
        ({"learning": {"max_episodes": 2.9}},
         "learning: max_episodes must be an integer, got 2.9"),
        ({"users": {"positions_m": [[10.0, 10.0], [20.0, 20.0]], "association": [0, 1.7]}},
         "users.association: association entry must be an integer, got 1.7"),
    ])
    def test_bad_integer_or_boolean_named(self, tmp_path, capsys, data, message):
        assert main(["validate-config", "--config", write_config(tmp_path, data)]) == 2
        assert message in capsys.readouterr().err

    def test_integral_float_accepted(self, tmp_path):
        config, params = load_config(write_config(tmp_path, {
            "area": {"cells_per_axis": 30.0}, "learning": {"max_episodes": 3.0},
            "abs": [{"initial_cell": [1.0, 1], "final_cell": [30, 30.0]}]}))
        assert config.area.cells_per_axis == 30 and params.max_episodes == 3
        assert type(config.area.cells_per_axis) is int
        assert config.initial_states == (GridState(1, 1),)

    def test_all_errors_reported_together(self, tmp_path):
        path = write_config(tmp_path, {"area": {"cells_per_axis": 1},
                                       "reward_weights": {"beta3": -1.0},
                                       "propagation": {"noise_power_watts": 0.0}})
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        text = str(err.value)
        assert "area" in text and "propagation" in text
        assert len(err.value.errors) >= 2
        # two bad fields of one section are both named
        path = write_config(tmp_path, {"learning": {"epsilon": "x", "gamma": "y"}})
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        assert err.value.errors == ["learning: gamma must be a finite number, got 'y'",
                                    "learning: epsilon must be a finite number, got 'x'"]
        # a non-finite top-level field is named beside a failed section
        path = write_with_token(tmp_path, {"p_max_watts": "TOKEN",
                                           "area": {"cells_per_axis": 1}}, "NaN")
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        assert err.value.errors == ["scenario: p_max_watts must be a finite number, got nan",
                                    "area: cells_per_axis must be at least 2"]

    @pytest.mark.parametrize("data, errors", [
        ({"p_max_watts": -1, "d_min_m": -1, "n_subchannels": 0,
          "reward_weights": {"beta1": -1}, "distance_exponent": 3},
         ["scenario: n_subchannels must be at least 1",
          "scenario: p_max must be positive",
          "scenario: d_min must be positive",
          "scenario: reward weights must be non-negative",
          "scenario: distance_exponent must be 1 or 2"]),
        ({"area": {"cells_per_axis": 1, "altitude_m": -5},
          "learning": {"alpha": 2, "gamma": 1.5}},
         ["area: cells_per_axis must be at least 2",
          "area: altitude must be positive",
          "learning: alpha must lie in [0, 1]",
          "learning: gamma must lie in [0, 1)"]),
        ({"abs": [{"initial_cell": [0, 1], "final_cell": [31, 30]}],
          "users": {"positions_m": [[10, 10], [20, 20], [30, 30]],
                    "association": [0, 5, 0]}},
         ["scenario: grid state GridState(k1=0, k2=1) outside 30x30 grid",
          "scenario: grid state GridState(k1=31, k2=30) outside 30x30 grid",
          "scenario: association indices outside the fleet"]),
        # a field that does not convert is reported and its default stands
        # in, so the section's other invariants are still checked
        ({"learning": {"max_steps_per_episode": -1, "epsilon_decay": 0,
                       "alpha_schedule": "x"}},
         ["learning: alpha_schedule must be one of 'constant', 'visit_count', got 'x'",
          "learning: max_steps_per_episode must be non-negative",
          "learning: epsilon_decay must lie in (0, 1]"]),
        ({"area": {"cells_per_axis": 2.5, "altitude_m": -5, "x_max_m": -1}},
         ["area: cells_per_axis must be an integer, got 2.5",
          "area: x_min must be strictly below x_max",
          "area: altitude must be positive"]),
    ])
    def test_every_violated_invariant_listed(self, tmp_path, capsys, data, errors):
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        assert err.value.errors == errors
        assert main(["validate-config", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [f"  {e}" for e in errors]

    def test_explicit_users(self, tmp_path):
        path = write_config(tmp_path, small_config_dict() | {
            "users": {"positions_m": [[10.0, 10.0], [350.0, 350.0]],
                      "association": [0, 1]}})
        config, _ = load_config(path)
        assert config.users_xy.tolist() == [[10.0, 10.0], [350.0, 350.0]]
        assert config.association.tolist() == [0, 1]

    @pytest.mark.parametrize("token", NON_FINITE)
    @pytest.mark.parametrize("section, key", FLOAT_FIELDS)
    def test_non_finite_number_rejected(self, tmp_path, capsys, section, key, token):
        data = {key: "TOKEN"} if section is None else {section: {key: "TOKEN"}}
        assert main(["validate-config", "--config",
                     write_with_token(tmp_path, data, token)]) == 2
        err = capsys.readouterr().err
        assert f"{section or 'scenario'}: {key} must be a finite number" in err

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_user_position_rejected(self, tmp_path, capsys, token):
        data = {"users": {"positions_m": [[10.0, "TOKEN"], [350.0, 350.0]],
                          "association": [0, 1]}}
        assert main(["validate-config", "--config",
                     write_with_token(tmp_path, data, token)]) == 2
        assert "users.positions_m: every coordinate must be a finite number" \
            in capsys.readouterr().err

    def test_unknown_keys_listed_with_field_errors(self, tmp_path):
        path = write_config(tmp_path, {"p_max_watt": 5, "n_subchannels": 0.5,
                                       "learning": {"max_episode": 3, "gamma": 2.0}})
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        assert err.value.errors == [
            "scenario: unknown key 'p_max_watt' (did you mean 'p_max_watts'?)",
            "learning: unknown key 'max_episode' (did you mean 'max_episodes'?)",
            "scenario: n_subchannels must be an integer, got 0.5",
            "learning: gamma must lie in [0, 1)",
        ]

    @pytest.mark.parametrize("data, message", [
        # unknown keys: top level, in a section, in an abs entry
        ({"p_max_watt": 5}, "scenario: unknown key 'p_max_watt' (did you mean 'p_max_watts'?)"),
        ({"Fading": "none"}, "scenario: unknown key 'Fading' (did you mean 'fading'?)"),
        ({"learning": {"max_episode": 3}},
         "learning: unknown key 'max_episode' (did you mean 'max_episodes'?)"),
        ({"gbs": {"enable": True}}, "gbs: unknown key 'enable' (did you mean 'enabled'?)"),
        ({"users": {"count": 4, "seed": 3}}, "users: unknown key 'seed'"),
        ({"abs": [{"initial_cell": [1, 1], "final_cell": [30, 30]},
                  {"initial_cell": [30, 1], "final_cell": [1, 30], "final_cel": [1, 30]}]},
         "abs[1]: unknown key 'final_cel' (did you mean 'final_cell'?)"),
        # objects and lists of the wrong shape
        ({"area": 5}, "area: must be a JSON object"),
        ({"learning": [1]}, "learning: must be a JSON object"),
        ({"abs": [{"initial_cell": [1, 1]}]}, "abs[0]: final_cell is missing"),
        ({"abs": {"initial_cell": [1, 1]}}, "abs: must be a JSON list"),
        ({"abs": [[1, 1]]}, "abs[0]: must be a JSON object"),
        ({"abs": [{"initial_cell": [1], "final_cell": [2, 2]}]},
         "abs[0]: initial_cell must be a pair [k1, k2], got [1]"),
        ({"users": {"positions_m": [[1.0, 2.0], [3.0]]}},
         "users.positions_m: positions_m must be a list of [x, y] pairs"),
        ({"users": {"count": 2, "association": 1}},
         "users.association: association must be a list of station indices, got 1"),
        ({"users": {"positions_m": [[1.0, 2.0], [3.0, 4.0]], "count": 2}},
         "users: positions_m excludes count and placement_seed"),
        # the association gives one station per user, generated or listed
        ({"users": {"count": 4, "association": [1, 1, 0]}},
         "scenario: association must give one station per user"),
        ({"users": {"positions_m": [[10.0, 10.0], [20.0, 20.0]], "association": [0, 1, 1]}},
         "scenario: association must give one station per user"),
        # values of the wrong kind
        ({"p_max_watts": "0.5"}, "scenario: p_max_watts must be a finite number, got '0.5'"),
        ({"fading": "Rayleigh"},
         "scenario: fading must be one of 'none', 'rayleigh', got 'Rayleigh'"),
        ({"learning": {"alpha_schedule": 1}},
         "learning: alpha_schedule must be one of 'constant', 'visit_count', got 1"),
        # sizes whose arrays would not fit in memory
        ({"users": {"count": 1e12}},
         "users.count: the placement would hold 1000000000000 x 2 elements"),
        ({"n_subchannels": 1e12}, "scenario: one step's gains (abs x users x n_subchannels) "
                                  "would hold 2 x 20 x 1000000000000 elements"),
        ({"area": {"cells_per_axis": 1e9}},
         "area.cells_per_axis: each Q-table would hold 1000000000000000000 x 4 elements"),
        # seeds outside Philox's 64-bit key would alias seeds inside it
        ({"users": {"placement_seed": -1}},
         "users.placement_seed: must be in [0, 2^64), got -1"),
        ({"users": {"placement_seed": 2 ** 64}},
         f"users.placement_seed: must be in [0, 2^64), got {2 ** 64}"),
        ({"users": {"placement_seed": 1e30}},
         f"users.placement_seed: must be in [0, 2^64), got {int(1e30)}"),
        # a key that entered no computation, and is no field now
        ({"velocity_m_per_s": 10.0}, "scenario: unknown key 'velocity_m_per_s'"),
    ])
    def test_config_error_named(self, tmp_path, capsys, data, message):
        assert main(["validate-config", "--config", write_config(tmp_path, data)]) == 2
        assert message in capsys.readouterr().err

    def test_association_with_generated_users(self, tmp_path):
        config, _ = load_config(write_config(tmp_path, {
            "users": {"count": 4, "association": [1, 1, 0, 0]}}))
        assert config.association.tolist() == [1, 1, 0, 0]
        assert config.users_xy.shape == (4, 2)

    def test_roundtrip_identical(self, tmp_path):
        config, params = load_config(write_config(tmp_path, small_config_dict()))
        snapshot = config_to_dict(config, params)
        reloaded = load_config(write_config(tmp_path, snapshot, "again.json"))
        assert config_to_dict(*reloaded) == snapshot


def finite_floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Config dicts that load: explicit or generated users, the GBS on or
    off, null or set initial_q and max_steps_per_episode."""
    m = draw(st.integers(2, 6))
    x_min, y_min = draw(finite_floats(-1e4, 1e4)), draw(finite_floats(-1e4, 1e4))
    cell = st.lists(st.integers(1, m), min_size=2, max_size=2)
    n_abs = draw(st.integers(1, 3))
    if draw(st.booleans()):
        k = draw(st.integers(n_abs, 6))
        pair = st.lists(finite_floats(-1e4, 1e4), min_size=2, max_size=2)
        users = {"positions_m": draw(st.lists(pair, min_size=k, max_size=k)),
                 "association": draw(st.permutations([i % n_abs for i in range(k)]))}
    else:
        users = {"count": draw(st.integers(n_abs, 6)),
                 "placement_seed": draw(st.integers(0, 2**32))}
    positive = finite_floats(1e-3, 1e3)
    eta_los = draw(finite_floats(1.0, 50.0))
    return {
        "area": {"x_min_m": x_min, "x_max_m": x_min + draw(finite_floats(1.0, 1e4)),
                 "y_min_m": y_min, "y_max_m": y_min + draw(finite_floats(1.0, 1e4)),
                 "cells_per_axis": m, "altitude_m": draw(positive)},
        "abs": [{"initial_cell": draw(cell), "final_cell": draw(cell)} for _ in range(n_abs)],
        "users": users,
        "n_subchannels": draw(st.integers(1, 16)),
        "p_max_watts": draw(positive),
        "d_min_m": draw(positive),
        "reward_weights": {f"beta{i}": draw(finite_floats(0.0, 1e3)) for i in (1, 2, 3)},
        "propagation": {"a": draw(positive), "b": draw(positive), "eta_los": eta_los,
                        "eta_nlos": draw(finite_floats(eta_los, 100.0)),
                        "carrier_freq_hz": draw(finite_floats(1e6, 1e11)),
                        "speed_of_light_m_per_s": draw(positive),
                        "noise_power_watts": draw(finite_floats(1e-15, 1.0))},
        "fading": draw(st.sampled_from(["none", "rayleigh"])),
        "gbs": {"enabled": draw(st.booleans()), "x_m": draw(finite_floats(-1e4, 1e4)),
                "y_m": draw(finite_floats(-1e4, 1e4)), "height_m": draw(positive),
                "power_per_subchannel_watts": draw(finite_floats(0.0, 1.0))},
        "distance_exponent": draw(st.sampled_from([1, 2])),
        "learning": {"alpha": draw(finite_floats(0.0, 1.0)),
                     "alpha_schedule": draw(st.sampled_from(["constant", "visit_count"])),
                     "gamma": draw(finite_floats(0.0, 0.99)),
                     "epsilon": draw(finite_floats(0.0, 1.0)),
                     "epsilon_decay": draw(finite_floats(0.01, 1.0)),
                     "max_episodes": draw(st.integers(0, 5000)),
                     "max_steps_per_episode": draw(st.none() | st.integers(0, 10000)),
                     "initial_q": draw(st.none() | finite_floats(-1e6, 1e6))},
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_configs())
def test_snapshot_roundtrip_property(data):
    with tempfile.TemporaryDirectory() as tmp:
        config, params = load_config(write_config(Path(tmp), data))
        snapshot = config_to_dict(config, params)
        reloaded = load_config(write_config(Path(tmp), snapshot, "again.json"))
    assert config_to_dict(*reloaded) == snapshot
    # every field lands where it was given; generated users become positions
    if "count" in data["users"]:
        count = data.pop("users")["count"]
        assert snapshot.pop("users")["association"] == [i * len(data["abs"]) // count
                                                        for i in range(count)]
    assert snapshot == data


@st.composite
def extreme_configs(draw):
    """Small grids and short runs, with up to five float fields drawn
    log-uniformly over 1e-300..1e308 or 1e290..1e308 (now and then negative)
    and the rest at their defaults."""
    m = draw(st.integers(2, 4))
    cells = [{"initial_cell": [1, 1], "final_cell": [m, m]},
             {"initial_cell": [m, 1], "final_cell": [1, m]}]
    data = {"area": {"cells_per_axis": m}, "abs": cells[:draw(st.integers(1, 2))],
            "users": {"count": draw(st.integers(2, 4)), "placement_seed": 5},
            "n_subchannels": draw(st.integers(1, 4)),
            "fading": draw(st.sampled_from(["none", "rayleigh"])),
            "distance_exponent": draw(st.sampled_from([1, 2])),
            "gbs": {"enabled": draw(st.booleans())},
            "learning": {"max_episodes": draw(st.integers(1, 2)),
                         "max_steps_per_episode": draw(st.none() | st.integers(0, 60))}}
    # overflow lives in the top decades, so half the draws come from there
    magnitude = (st.floats(-300.0, 308.0) | st.floats(290.0, 308.0)).map(lambda e: 10.0 ** e)
    for section, key in draw(st.sets(st.sampled_from(FLOAT_FIELDS), min_size=1, max_size=5)):
        value = draw(magnitude) * draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))
        (data if section is None else data.setdefault(section, {}))[key] = value
    return data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(extreme_configs())
def test_validated_config_trains_finite(data):
    """validate-config exits 0 or 2, and a config it accepts trains to finite
    numbers in metrics.csv and every Q-table (an overflow warning fails it too,
    as pytest turns warnings into errors)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), data)
        code = main(["validate-config", "--config", path])
        assert code in (0, 2)
        if code == 0:
            out = Path(tmp) / "out"
            assert main(["train", "--config", path, "--out-dir", str(out)]) == 0
            rows = (out / "metrics.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
            for j in range(len(data["abs"])):  # load_qtable also rejects non-finite rows
                assert np.isfinite(load_qtable(out / f"qtable_agent{j}.txt").values).all()


class TestRunTrain:
    def test_artifacts_and_manifest(self, tmp_path):
        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"
        manifest = run_train(config, params, master_seed=1, out_dir=str(out))
        expected = {"metrics.csv", "qtable_agent0.txt", "qtable_agent1.txt",
                    "trajectory.csv"}
        assert set(manifest.files) == expected
        for name, digest in manifest.files.items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        episodes, means = read_metrics(str(out / "metrics.csv"))
        assert episodes.tolist() == [1, 2]
        assert np.isfinite(means).all()
        assert (out / "manifest.json").exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        m1 = run_train(config, params, master_seed=9, out_dir=str(tmp_path / "a"))
        m2 = run_train(config, params, master_seed=9, out_dir=str(tmp_path / "b"))
        assert m1.files == m2.files

    def test_different_seed_different_metrics(self, tmp_path):
        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        m1 = run_train(config, params, master_seed=1, out_dir=str(tmp_path / "a"))
        m2 = run_train(config, params, master_seed=2, out_dir=str(tmp_path / "b"))
        assert m1.files["metrics.csv"] != m2.files["metrics.csv"]

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"

        import absim.simcli as simcli

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(simcli, "extract_trajectory", boom)
        with pytest.raises(RuntimeError):
            run_train(config, params, master_seed=1, out_dir=str(out))
        assert not any(p.name != "manifest.json" for p in out.iterdir())

    def test_only_artifacts_left_and_checkpoints_readable_on_return(self, tmp_path,
                                                                    monkeypatch):
        import absim.simcli as simcli

        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"
        sizes = []
        original = simcli.save_qtable

        def sized(q, path):
            original(q, path)
            sizes.append(os.path.getsize(path))  # the file must exist on return

        monkeypatch.setattr(simcli, "save_qtable", sized)
        run_train(config, params, master_seed=1, out_dir=str(out))
        assert len(sizes) == 2 and min(sizes) > 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "metrics.csv", "qtable_agent0.txt", "qtable_agent1.txt",
            "trajectory.csv"]

    @pytest.mark.parametrize("writer, final_name", [
        ("write_metrics", "metrics.csv"),
        ("save_qtable", "qtable_agent1.txt"),
        ("write_trajectory", "trajectory.csv"),
        ("write_manifest", "manifest.json"),
    ])
    def test_writer_failing_halfway_leaves_nothing(self, tmp_path, monkeypatch,
                                                   writer, final_name):
        import absim.simcli as simcli

        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"
        original = getattr(simcli, writer)
        calls = []

        def half_then_fail(*args):
            calls.append(args)
            if writer == "save_qtable" and len(calls) == 1:
                return original(*args)  # the first checkpoint succeeds
            path = args[1]
            original(*args)
            with open(path, "r+", encoding="ascii") as fh:
                fh.truncate(os.path.getsize(path) // 2)
            assert not (out / final_name).exists()  # nothing half written in place
            raise OSError("disk full")

        monkeypatch.setattr(simcli, writer, half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run_train(config, params, master_seed=1, out_dir=str(out))
        assert list(out.iterdir()) == []

    def test_failed_rerun_keeps_previous_run(self, tmp_path, monkeypatch):
        import absim.simcli as simcli

        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"
        run_train(config, params, master_seed=1, out_dir=str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def boom(*args):
            raise OSError("disk full")

        monkeypatch.setattr(simcli, "write_trajectory", boom)
        with pytest.raises(OSError):
            run_train(config, params, master_seed=2, out_dir=str(out))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rename_failing_midway_leaves_no_manifest(self, tmp_path, monkeypatch):
        import absim.simcli as simcli

        config, params = load_config(write_config(tmp_path, small_config_dict(2)))
        out = tmp_path / "out"
        run_train(config, params, master_seed=1, out_dir=str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        original = os.replace
        renamed = []

        def second_fails(src, dst):
            if renamed:
                raise OSError("rename failed")
            original(src, dst)
            renamed.append(os.path.basename(dst))

        monkeypatch.setattr(simcli.os, "replace", second_fails)
        with pytest.raises(OSError, match="rename failed"):
            run_train(config, params, master_seed=2, out_dir=str(out))
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        # the earlier manifest is gone, so the mixed directory cannot pass
        # for a complete run; no temp file is left behind
        assert sorted(after) == sorted(set(before) - {"manifest.json"})
        assert renamed == ["metrics.csv"]
        assert after["metrics.csv"] != before["metrics.csv"]


class TestPlotData:
    def make_run(self, tmp_path, episodes=30):
        config, params = load_config(write_config(tmp_path,
                                                  small_config_dict(episodes)))
        out = tmp_path / "run"
        run_train(config, params, master_seed=4, out_dir=str(out))
        return out

    def test_window_one_is_identity(self, tmp_path):
        out = self.make_run(tmp_path, episodes=10)
        plots = tmp_path / "plots"
        emit_plot_data(str(out / "metrics.csv"), str(out / "trajectory.csv"),
                       str(plots), window=1)
        _, means = read_metrics(str(out / "metrics.csv"))
        rows = (plots / "sum_rate_smoothed.csv").read_text().splitlines()[1:]
        assert len(rows) == 10
        for value, row in zip(means, rows):
            assert float(row.split(",")[1]) == pytest.approx(value, rel=1e-12)

    def test_window_row_count(self, tmp_path):
        out = self.make_run(tmp_path, episodes=30)
        plots = tmp_path / "plots"
        emit_plot_data(str(out / "metrics.csv"), str(out / "trajectory.csv"),
                       str(plots), window=10)
        rows = (plots / "sum_rate_smoothed.csv").read_text().splitlines()[1:]
        assert len(rows) == 30 - 10 + 1

    def test_trajectory_files_per_agent(self, tmp_path):
        out = self.make_run(tmp_path, episodes=10)
        plots = tmp_path / "plots"
        emit_plot_data(str(out / "metrics.csv"), str(out / "trajectory.csv"),
                       str(plots), window=2)
        agents = read_trajectory(str(out / "trajectory.csv"))
        for j, positions in agents.items():
            rows = (plots / f"trajectory_agent{j}.csv").read_text().splitlines()
            assert rows[0] == "x_m,y_m"
            assert len(rows) - 1 == len(positions)

    def test_single_move_trajectory_two_rows(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text("agent,step,x_m,y_m\n0,0,0.0,0.0\n0,1,100.0,0.0\n")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("episode,mean_sum_rate,collision_steps\n1,0.5,0\n")
        plots = tmp_path / "plots"
        emit_plot_data(str(metrics), str(path), str(plots), window=1)
        rows = (plots / "trajectory_agent0.csv").read_text().splitlines()
        assert len(rows) - 1 == 2

    def test_malformed_metrics_reports_line(self, tmp_path):
        bad = tmp_path / "metrics.csv"
        bad.write_text("episode,mean_sum_rate,collision_steps\n1,0.5,0\n2,oops\n")
        traj = tmp_path / "trajectory.csv"
        traj.write_text("agent,step,x_m,y_m\n0,0,0.0,0.0\n")
        with pytest.raises(PlotDataError, match="line 3"):
            emit_plot_data(str(bad), str(traj), str(tmp_path / "p"), window=1)

    METRICS = b"episode,mean_sum_rate,collision_steps\n1,0.5,0\n2,0.6,0\n"
    TRAJECTORY = b"agent,step,x_m,y_m\n0,0,0.0,0.0\n0,1,100.0,0.0\n"

    @pytest.mark.parametrize("name, content, message", [
        ("metrics.csv", METRICS.replace(b"0.6", b"0.\xff6"), "line 3: byte 0xff is not ASCII"),
        ("metrics.csv", b"episode,mean_sum_rate\n1,nan\n2,inf\n",
         "line 2: mean_sum_rate must be a finite number, got 'nan'"),
        ("metrics.csv", b"episode,mean_sum_rate\n1,0.5\n2,inf\n",
         "line 3: mean_sum_rate must be a finite number, got 'inf'"),
        ("metrics.csv", b"episode,mean_sum_rate\n1.5,0.5\n",
         "line 2: episode must be an integer, got '1.5'"),
        ("trajectory.csv", TRAJECTORY + b"\xff", "line 4: byte 0xff is not ASCII"),
        ("trajectory.csv", b"agent,step,x_m,y_m\n0,zz,nan,1.0\n",
         "line 2: step must be an integer, got 'zz'"),
        ("trajectory.csv", b"agent,step,x_m,y_m\n0,0,nan,1.0\n",
         "line 2: x_m must be a finite number, got 'nan'"),
        ("trajectory.csv", b"agent,step,x_m,y_m\n0,0,0.0,1.0\n0,1,0.0,-inf\n",
         "line 3: y_m must be a finite number, got '-inf'"),
        ("metrics.csv", b"episode,collision_steps\n1,0\n", "line 1: no mean_sum_rate column"),
        ("metrics.csv", b"", "line 1: no episode column"),
        ("trajectory.csv", b"agent,x_m,y_m\n0,0.0,0.0\n", "line 1: no step column"),
        ("trajectory.csv", b"agent,step,x_m,y_m\n0,0,0.0\n",
         "line 2: expected 4 fields, got 3"),
    ])
    def test_bad_input_named_by_file_and_line(self, tmp_path, capsys, name, content,
                                              message):
        files = {"metrics.csv": self.METRICS, "trajectory.csv": self.TRAJECTORY}
        files[name] = content
        for file_name, data in files.items():
            (tmp_path / file_name).write_bytes(data)
        plots = tmp_path / "plots"
        assert main(["plot-data", "--metrics", str(tmp_path / "metrics.csv"),
                     "--trajectory", str(tmp_path / "trajectory.csv"),
                     "--out-dir", str(plots), "--window", "1"]) == 2
        assert capsys.readouterr().err == f"{tmp_path / name}: {message}\n"
        assert not plots.exists()

    def test_columns_read_by_name(self, tmp_path):
        # reordered and extra columns: only the named ones are read
        path = tmp_path / "trajectory.csv"
        path.write_text("y_m,note,agent,x_m,step\n2.0,a,1,1.0,0\n4.0,b,1,3.0,1\n"
                        "6.0,c,0,5.0,0\n")
        assert read_trajectory(str(path)) == {1: [(1.0, 2.0), (3.0, 4.0)], 0: [(5.0, 6.0)]}
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("mean_sum_rate,episode\n0.5,1\n0.25,2\n")
        episodes, means = read_metrics(str(metrics))
        assert episodes.tolist() == [1, 2] and means.tolist() == [0.5, 0.25]

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(ValueError):
            smooth_series(np.arange(5.0), 6)


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate-config"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"area": {"cells_per_axis": 0}})
        assert main(["validate-config", "--config", path]) == 2
        assert "area" in capsys.readouterr().err

    def test_validate_non_integer_count(self, tmp_path, capsys):
        path = write_config(tmp_path, {"users": {"count": "ten"}})
        assert main(["validate-config", "--config", path]) == 2
        assert "users.count" in capsys.readouterr().err

    @pytest.mark.parametrize("data, field", [
        ({"users": {"count": 1e12}}, "users.count"),
        ({"users": {"count": 2 ** 25 + 1}}, "users.count"),
        ({"n_subchannels": 1e12}, "n_subchannels"),
        ({"area": {"cells_per_axis": 1e9}}, "area.cells_per_axis"),
    ])
    def test_oversize_config_exits_2(self, tmp_path, capsys, data, field):
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        for args in (["validate-config"], ["train", "--out-dir", str(out)]):
            assert main(args + ["--config", path]) == 2
            err = capsys.readouterr().err
            assert field in err and f"more than {2 ** 26}" in err
        assert not out.exists()

    @pytest.mark.parametrize("data, section, message", [
        # an infinite path loss: every gain would be 0.0
        ({"propagation": {"carrier_freq_hz": 1e300}}, "propagation",
         "gains from stations would span 0.0 to 0.0"),
        # a separation of 1.4e200 m overflows when squared
        ({"area": {"x_max_m": 1e200, "y_max_m": 1e200}}, "area",
         "the area diagonal overflows"),
        # a user at the foot of a ground transmitter 1e-200 m tall: a link of
        # length 0.0 once squared, so its gain would be infinite
        ({"users": {"positions_m": [[100.0, 100.0], [2000.0, 2000.0]]},
          "gbs": {"enabled": True, "x_m": 100.0, "y_m": 100.0, "height_m": 1e-200,
                  "power_per_subchannel_watts": 0.001}},
         "gbs", "gains from the ground transmitter would span"),
        # gains that stay finite, but not one step's products of them: noise over
        # a gain, station and ground powers times gains, and the SNR
        ({"propagation": {"noise_power_watts": 1e300}}, "propagation",
         "the water level of one step could reach inf"),
        ({"p_max_watts": 1e308, "propagation": {"carrier_freq_hz": 1.0}}, "p_max",
         "interference of one step could reach inf"),
        ({"gbs": {"enabled": True, "power_per_subchannel_watts": 1e308},
          "propagation": {"carrier_freq_hz": 1.0}}, "gbs",
         "interference of one step could reach inf"),
        ({"p_max_watts": 1e300, "propagation": {"noise_power_watts": 1e-300}}, "p_max",
         "the SNR of one step could reach inf"),
        # the reward chain: one step's reward, a table value and an episode's sum
        ({"reward_weights": {"beta2": 1e306}}, "reward_weights",
         "one step's reward could reach inf"),
        ({"reward_weights": {"beta2": 1e306}, "learning": {"initial_q": 0.0}},
         "reward_weights", "one step's reward could reach inf"),
        # a finite reward over 1 - gamma = 1.1e-16
        ({"reward_weights": {"beta3": 1e300}, "learning": {"gamma": 0.9999999999999999}},
         "learning", "twice a table value could reach inf"),
        # beta1 x rate: train ended with "update of entry (0, 1) gives inf"
        ({"reward_weights": {"beta1": 1e308}, "p_max_watts": 100.0,
          "learning": {"max_episodes": 2, "max_steps_per_episode": 20}}, "reward_weights",
         "one step's reward could reach inf"),
        # values climbing towards r / (1 - gamma): "update of entry (241, 3) gives inf"
        ({"reward_weights": {"beta1": 1e307, "beta2": 0.0},
          "learning": {"alpha": 1.0, "gamma": 0.99, "max_episodes": 4,
                       "max_steps_per_episode": 3000}}, "reward_weights",
         "one step's reward could reach inf"),
        # every reward finite, but train wrote -inf cumulative rewards to metrics.csv
        ({"reward_weights": {"beta2": 3e301},
          "learning": {"gamma": 0.0, "epsilon": 1.0, "max_episodes": 1,
                       "max_steps_per_episode": 100000}}, "learning",
         "an episode's reward sum could reach inf"),
        # 4 pi f d overflows before the division by c: train's gains would be 0.0
        ({"propagation": {"carrier_freq_hz": 1e305, "speed_of_light_m_per_s": 1e305}},
         "propagation", "gains from stations would span 0.0 to "),
    ])
    def test_overflowing_config_exits_2(self, tmp_path, capsys, data, section, message):
        data["learning"] = {"max_episodes": 1, "max_steps_per_episode": 3,
                            **data.get("learning", {})}
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        for args in (["validate-config"], ["train", "--out-dir", str(out)]):
            assert main(args + ["--config", path]) == 2
            err = capsys.readouterr().err
            assert message in err and section in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("propagation", [{"b": 4.4e82}, {"a": 1e300}])
    def test_los_exp_overflow_trains(self, tmp_path, capsys, propagation):
        # exp overflows at low elevation angles, where the LoS probability is 0;
        # a RuntimeWarning would fail this test, as pytest turns warnings into errors
        path = write_config(tmp_path, {"propagation": propagation, "learning": {
            "max_episodes": 1, "max_steps_per_episode": 50}})
        assert main(["train", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"area": {"cells_per_axis": 3', "not valid JSON"),
        # json.load alone would keep the second section and train 2,000 episodes
        ('{"learning": {"max_episodes": 3}, "learning": {"gamma": 0.5}}',
         "key 'learning' appears twice in one object"),
        ('{"learning": {"gamma": 0.5, "gamma": 0.6}}', "key 'gamma' appears twice"),
    ], ids=["truncated", "repeated_section", "repeated_field"])
    def test_validate_truncated_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err and "Traceback" not in err

    def test_rollout_truncated_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        table = out / "qtable_agent1.txt"
        table.write_text("".join(table.read_text().splitlines(keepends=True)[:2]))
        code = main(["rollout", "--config", cfg, "--qtable-dir", str(out),
                     "--out", str(tmp_path / "roll.csv")])
        assert code == 2
        assert "qtable_agent1.txt: line 3: file ends after 1 of 64 entries" \
            in capsys.readouterr().err

    def test_rollout_header_overstating_rows(self, tmp_path, capsys):
        # rows are counted before anything the header's size is allocated
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        (out / "manifest.json").unlink()
        (out / "qtable_agent0.txt").write_text(
            "# states=10000000000000 actions=4 terminal=1\n0 0 1.0\n0 1 1.0\n0 2 1.0\n")
        code = main(["rollout", "--config", cfg, "--qtable-dir", str(out),
                     "--out", str(tmp_path / "roll.csv")])
        assert code == 2
        assert "qtable_agent0.txt: line 5: file ends after 3 of 40000000000000 entries" \
            in capsys.readouterr().err
        assert not (tmp_path / "roll.csv").exists()

    def test_rollout_checkpoint_shape_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        bigger = small_config_dict(2)
        bigger["area"]["cells_per_axis"] = 5
        code = main(["rollout", "--config", write_config(tmp_path, bigger, "big.json"),
                     "--qtable-dir", str(out), "--out", str(tmp_path / "roll.csv")])
        assert code == 2
        assert "the config needs 25 x 4" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, found, needed", [
        ("final_cell", "15", "12"),  # rolled out for another final cell
    ])
    def test_rollout_checkpoint_for_another_final_cell(self, tmp_path, capsys, edit,
                                                       found, needed):
        data = {"area": {"cells_per_axis": 4},
                "abs": [{"initial_cell": [1, 1], "final_cell": [4, 4]}],
                "users": {"count": 2}, "learning": {"max_episodes": 30}}
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 0
        (out / "manifest.json").unlink()
        data["abs"][0][edit] = [1, 4]
        roll = tmp_path / "roll.csv"
        code = main(["rollout", "--config", write_config(tmp_path, data, "roll.json"),
                     "--qtable-dir", str(out), "--out", str(roll)])
        assert code == 2
        assert (f"invalid checkpoint: qtable_agent0.txt is 16 x 4 with terminal state "
                f"{found}, the config needs 16 x 4 with terminal state {needed}"
                in capsys.readouterr().err)
        assert not roll.exists()

    @staticmethod
    def edit_checkpoint(out, name="qtable_agent0.txt"):
        """Change one Q-value of a checkpoint, leaving it well-formed."""
        table = out / name
        lines = table.read_text().splitlines(keepends=True)
        state, action, _ = lines[2].split()
        lines[2] = f"{state} {action} 123.5\n"
        table.write_text("".join(lines))

    @pytest.mark.parametrize("manifest, message", [
        (None, "invalid checkpoint: qtable_agent1.txt does not match manifest.json"),
        ('{"files": [1, 2', "invalid checkpoint: manifest.json lists no file digests"),
        ('{"files": 3}', "invalid checkpoint: manifest.json lists no file digests"),
    ])
    def test_rollout_checkpoint_digest_mismatch(self, tmp_path, capsys, manifest, message):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        if manifest is None:
            self.edit_checkpoint(out, "qtable_agent1.txt")
        else:
            (out / "manifest.json").write_text(manifest)
        code = main(["rollout", "--config", cfg, "--qtable-dir", str(out),
                     "--out", str(tmp_path / "roll.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "roll.csv").exists()

    def test_rollout_without_manifest_skips_digests(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        (out / "manifest.json").unlink()
        self.edit_checkpoint(out)
        code = main(["rollout", "--config", cfg, "--qtable-dir", str(out),
                     "--out", str(tmp_path / "roll.csv")])
        assert code in (0, 4)  # diagnostics may fail on a tiny run
        assert "manifest.json" not in capsys.readouterr().err
        assert (tmp_path / "roll.csv").exists()

    def test_train_and_plot_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = str(tmp_path / "out")
        assert main(["train", "--config", cfg, "--seed", "3",
                     "--out-dir", out]) == 0
        assert main(["plot-data", "--metrics", os.path.join(out, "metrics.csv"),
                     "--trajectory", os.path.join(out, "trajectory.csv"),
                     "--out-dir", str(tmp_path / "plots"), "--window", "2"]) == 0

    def test_train_episode_override(self, tmp_path):
        cfg = write_config(tmp_path, small_config_dict(50))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "0",
                     "--out-dir", str(out), "--episodes", "2"]) == 0
        episodes, _ = read_metrics(str(out / "metrics.csv"))
        assert len(episodes) == 2

    def test_rollout_non_finite_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_dict(2))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
        table = out / "qtable_agent0.txt"
        lines = table.read_text().splitlines(keepends=True)
        lines[2] = "0 1 nan\n"
        table.write_text("".join(lines))
        code = main(["rollout", "--config", cfg, "--qtable-dir", str(out),
                     "--out", str(tmp_path / "roll.csv")])
        assert code == 2
        assert "qtable_agent0.txt: line 3: entry (0, 1) holds nan" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_train_seed_out_of_range(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert main(["train", "--out-dir", str(out), f"--seed={seed}"]) == 2
        assert f"invalid --seed: must be in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_negative_episodes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--out-dir", str(out), "--episodes", "-1"]) == 2
        assert "max_episodes must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", ["0", "3"])
    def test_plot_data_bad_window(self, tmp_path, capsys, window):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("episode,mean_sum_rate,collision_steps\n1,0.5,0\n2,0.6,0\n")
        traj = tmp_path / "trajectory.csv"
        traj.write_text("agent,step,x_m,y_m\n0,0,0.0,0.0\n")
        plots = tmp_path / "plots"
        assert main(["plot-data", "--metrics", str(metrics), "--trajectory", str(traj),
                     "--out-dir", str(plots), "--window", window]) == 2
        assert "window" in capsys.readouterr().err
        assert not plots.exists()

    def test_rollout_roundtrip(self, tmp_path):
        cfg_dict = small_config_dict(60)
        cfg = write_config(tmp_path, cfg_dict)
        out = str(tmp_path / "out")
        main(["train", "--config", cfg, "--seed", "1", "--out-dir", out])
        code = main(["rollout", "--config", cfg, "--qtable-dir", out,
                     "--out", str(tmp_path / "roll.csv")])
        assert code in (0, 4)  # diagnostics may fail on a tiny run
        assert (tmp_path / "roll.csv").exists()

    def test_missing_config_is_io_error(self, capsys):
        assert main(["validate-config", "--config", "/nonexistent.json"]) == 3
