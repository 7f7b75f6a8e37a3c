import hashlib
import json
import os

import numpy as np
import pytest

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
        assert config.velocity == 10.0

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
    ])
    def test_malformed_values_rejected(self, tmp_path, data):
        with pytest.raises(ConfigValidationError):
            load_config(write_config(tmp_path, data))

    def test_all_errors_reported_together(self, tmp_path):
        path = write_config(tmp_path, {"area": {"cells_per_axis": 1},
                                       "reward_weights": {"beta3": -1.0},
                                       "propagation": {"noise_power_watts": 0.0}})
        with pytest.raises(ConfigValidationError) as err:
            load_config(path)
        text = str(err.value)
        assert "area" in text and "propagation" in text
        assert len(err.value.errors) >= 2

    def test_explicit_users(self, tmp_path):
        path = write_config(tmp_path, small_config_dict() | {
            "users": {"positions_m": [[10.0, 10.0], [350.0, 350.0]],
                      "association": [0, 1]}})
        config, _ = load_config(path)
        assert config.users_xy.tolist() == [[10.0, 10.0], [350.0, 350.0]]
        assert config.association.tolist() == [0, 1]

    def test_roundtrip_identical(self, tmp_path):
        config, params = load_config(write_config(tmp_path, small_config_dict()))
        snapshot = config_to_dict(config, params)
        reloaded = load_config(write_config(tmp_path, snapshot, "again.json"))
        assert config_to_dict(*reloaded) == snapshot


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

    def test_validate_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"area": {"cells_per_axis": 3')
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

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
