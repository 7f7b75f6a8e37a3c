"""Command-line front end: config loading, seeded runs, metrics export.

The config file is JSON with nested sections; every physical quantity
carries its unit in the key name so watts never masquerade as milliwatts.
Unspecified fields fall back to the default two-station scenario on a
3 km x 3 km, 30 x 30 grid. Metrics and trajectories are delimited text
with header rows; Q-table checkpoints use the flat (state, action, value)
text layout from the learning module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import FadingMode, GbsSpec, PropagationParams
from .environment import (ScenarioConfig, extract_trajectory, train)
from .geometry import Action, AreaSpec, GridState
from .qlearning import LearningParams, load_qtable, save_qtable
from .rng import PURPOSE_USER_PLACEMENT, derive_stream

__all__ = [
    "ConfigValidationError",
    "MetricsRecord",
    "PlotDataError",
    "RunManifest",
    "config_to_dict",
    "emit_plot_data",
    "load_config",
    "main",
    "run_train",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIAGNOSTIC = 4

DEFAULT_CONFIG = {
    "area": {
        "x_min_m": 0.0,
        "x_max_m": 3000.0,
        "y_min_m": 0.0,
        "y_max_m": 3000.0,
        "cells_per_axis": 30,
        "altitude_m": 100.0,
    },
    "abs": [
        {"initial_cell": [1, 1], "final_cell": [30, 30]},
        {"initial_cell": [30, 1], "final_cell": [1, 30]},
    ],
    "users": {"count": 20, "placement_seed": 101},
    "n_subchannels": 8,
    "p_max_watts": 0.2,
    "d_min_m": 5.0,
    "reward_weights": {"beta1": 10.0, "beta2": 0.25, "beta3": 1000.0},
    "propagation": {
        "a": 5.0,
        "b": 0.5,
        "eta_los": 1.0,
        "eta_nlos": 20.0,
        "carrier_freq_hz": 2.0e9,
        "speed_of_light_m_per_s": 299792458.0,
        "noise_power_watts": 1.0e-9,
    },
    "fading": "rayleigh",
    "gbs": {
        "enabled": False,
        "x_m": 1500.0,
        "y_m": 1500.0,
        "height_m": 10.0,
        "power_per_subchannel_watts": 0.0,
    },
    "distance_exponent": 1,
    "velocity_m_per_s": 10.0,
    "learning": {
        "alpha": 0.1,
        "alpha_schedule": "constant",
        "gamma": 0.9,
        "epsilon": 0.1,
        "epsilon_decay": 1.0,
        "max_episodes": 2000,
        "max_steps_per_episode": None,
        "initial_q": None,
    },
}


class ConfigValidationError(ValueError):
    """Carries every failed field, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


class PlotDataError(ValueError):
    pass


@dataclass(frozen=True)
class MetricsRecord:
    """One row of the per-episode metrics file."""

    episode: int
    mean_sum_rate: float
    collision_steps: int
    avg_sum_rate: tuple
    steps_to_terminal: tuple
    cumulative_reward: tuple
    reached: tuple


@dataclass
class RunManifest:
    config: dict
    master_seed: int
    version: str
    started_at: str
    finished_at: str
    files: dict
    rollout: dict


def _merge(defaults, override):
    if isinstance(defaults, dict) and isinstance(override, dict):
        merged = dict(defaults)
        for key, value in override.items():
            merged[key] = _merge(defaults.get(key), value) if key in defaults else value
        return merged
    return override


def _place_users(area_raw, count, placement_seed):
    rng = derive_stream(placement_seed, PURPOSE_USER_PLACEMENT)
    x = rng.uniform(area_raw["x_min_m"], area_raw["x_max_m"], size=count)
    y = rng.uniform(area_raw["y_min_m"], area_raw["y_max_m"], size=count)
    return np.column_stack([x, y])


def load_config(path=None):
    """Build (ScenarioConfig, LearningParams) from a JSON file over the defaults.

    A missing path means pure defaults. Every invariant violation found is
    collected and reported together in one ConfigValidationError; a file
    that is not a JSON object is reported the same way.
    """
    raw = DEFAULT_CONFIG
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ConfigValidationError([f"{path}: not valid JSON: {exc}"]) from None
        if not isinstance(data, dict):
            raise ConfigValidationError([f"{path}: top level must be a JSON object"])
        raw = _merge(DEFAULT_CONFIG, data)
    return _build_config(raw)


def _build_config(raw):
    errors = []

    def attempt(build, label):
        try:
            return build()
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"{label}: {exc}")
            return None

    area = attempt(lambda: AreaSpec(
        x_min=float(raw["area"]["x_min_m"]),
        x_max=float(raw["area"]["x_max_m"]),
        y_min=float(raw["area"]["y_min_m"]),
        y_max=float(raw["area"]["y_max_m"]),
        cells_per_axis=int(raw["area"]["cells_per_axis"]),
        altitude=float(raw["area"]["altitude_m"]),
    ), "area")

    prop = attempt(lambda: PropagationParams(
        a=float(raw["propagation"]["a"]),
        b=float(raw["propagation"]["b"]),
        eta_los=float(raw["propagation"]["eta_los"]),
        eta_nlos=float(raw["propagation"]["eta_nlos"]),
        carrier_freq=float(raw["propagation"]["carrier_freq_hz"]),
        speed_of_light=float(raw["propagation"]["speed_of_light_m_per_s"]),
        noise_power=float(raw["propagation"]["noise_power_watts"]),
    ), "propagation")

    gbs = attempt(lambda: GbsSpec(
        enabled=bool(raw["gbs"]["enabled"]),
        x=float(raw["gbs"]["x_m"]),
        y=float(raw["gbs"]["y_m"]),
        height=float(raw["gbs"]["height_m"]),
        power_per_subchannel=float(raw["gbs"]["power_per_subchannel_watts"]),
    ), "gbs")

    fading = attempt(lambda: FadingMode(raw["fading"]), "fading")

    initial = attempt(lambda: tuple(GridState(int(e["initial_cell"][0]),
                                              int(e["initial_cell"][1]))
                                    for e in raw["abs"]), "abs.initial_cell")
    final = attempt(lambda: tuple(GridState(int(e["final_cell"][0]),
                                            int(e["final_cell"][1]))
                                  for e in raw["abs"]), "abs.final_cell")

    users_raw = attempt(lambda: dict(raw["users"]), "users")
    users_xy = assoc = None
    if users_raw is not None and "positions_m" in users_raw:
        users_xy = attempt(lambda: np.asarray(users_raw["positions_m"], dtype=float),
                           "users.positions_m")
        if "association" in users_raw:
            assoc = attempt(lambda: np.asarray(users_raw["association"], dtype=int),
                            "users.association")
    elif users_raw is not None:
        count = attempt(lambda: int(users_raw.get("count", 0)), "users.count")
        seed = attempt(lambda: int(users_raw.get("placement_seed", 0)),
                       "users.placement_seed")
        if count is not None and count < 1:
            errors.append("users.count: must be at least 1")
        elif count is not None and seed is not None and area is not None:
            users_xy = _place_users(raw["area"], count, seed)
    if assoc is None and users_xy is not None:
        def balanced():
            # split in listing order: half to each station for two
            k, n_abs = users_xy.shape[0], len(raw["abs"])
            return np.array([i * n_abs // k for i in range(k)], dtype=int)

        assoc = attempt(balanced, "users")

    params = attempt(lambda: LearningParams(
        alpha=float(raw["learning"]["alpha"]),
        gamma=float(raw["learning"]["gamma"]),
        epsilon=float(raw["learning"]["epsilon"]),
        max_episodes=int(raw["learning"]["max_episodes"]),
        max_steps_per_episode=(None if raw["learning"]["max_steps_per_episode"] is None
                               else int(raw["learning"]["max_steps_per_episode"])),
        alpha_schedule=str(raw["learning"]["alpha_schedule"]),
        epsilon_decay=float(raw["learning"]["epsilon_decay"]),
        initial_q=(None if raw["learning"].get("initial_q") is None
                   else float(raw["learning"]["initial_q"])),
    ), "learning")

    config = None
    if not errors:
        config = attempt(lambda: ScenarioConfig(
            area=area,
            initial_states=initial,
            final_states=final,
            users_xy=users_xy,
            association=assoc,
            n_subchannels=int(raw["n_subchannels"]),
            p_max=float(raw["p_max_watts"]),
            d_min=float(raw["d_min_m"]),
            beta1=float(raw["reward_weights"]["beta1"]),
            beta2=float(raw["reward_weights"]["beta2"]),
            beta3=float(raw["reward_weights"]["beta3"]),
            propagation=prop,
            fading=fading,
            gbs=gbs,
            distance_exponent=int(raw["distance_exponent"]),
            velocity=float(raw["velocity_m_per_s"]),
        ), "scenario")
    if errors:
        raise ConfigValidationError(errors)
    return config, params


def config_to_dict(config: ScenarioConfig, params: LearningParams) -> dict:
    """Lossless snapshot of a validated config; load_config round-trips it."""
    return {
        "area": {
            "x_min_m": config.area.x_min,
            "x_max_m": config.area.x_max,
            "y_min_m": config.area.y_min,
            "y_max_m": config.area.y_max,
            "cells_per_axis": config.area.cells_per_axis,
            "altitude_m": config.area.altitude,
        },
        "abs": [
            {"initial_cell": [s.k1, s.k2], "final_cell": [f.k1, f.k2]}
            for s, f in zip(config.initial_states, config.final_states)
        ],
        "users": {
            "positions_m": config.users_xy.tolist(),
            "association": config.association.tolist(),
        },
        "n_subchannels": config.n_subchannels,
        "p_max_watts": config.p_max,
        "d_min_m": config.d_min,
        "reward_weights": {"beta1": config.beta1, "beta2": config.beta2,
                           "beta3": config.beta3},
        "propagation": {
            "a": config.propagation.a,
            "b": config.propagation.b,
            "eta_los": config.propagation.eta_los,
            "eta_nlos": config.propagation.eta_nlos,
            "carrier_freq_hz": config.propagation.carrier_freq,
            "speed_of_light_m_per_s": config.propagation.speed_of_light,
            "noise_power_watts": config.propagation.noise_power,
        },
        "fading": config.fading.value,
        "gbs": {
            "enabled": config.gbs.enabled,
            "x_m": config.gbs.x,
            "y_m": config.gbs.y,
            "height_m": config.gbs.height,
            "power_per_subchannel_watts": config.gbs.power_per_subchannel,
        },
        "distance_exponent": config.distance_exponent,
        "velocity_m_per_s": config.velocity,
        "learning": {
            "alpha": params.alpha,
            "alpha_schedule": params.alpha_schedule,
            "gamma": params.gamma,
            "epsilon": params.epsilon,
            "epsilon_decay": params.epsilon_decay,
            "max_episodes": params.max_episodes,
            "max_steps_per_episode": params.max_steps_per_episode,
            "initial_q": params.initial_q,
        },
    }


def _metrics_rows(stats_list):
    for st in stats_list:
        yield MetricsRecord(
            episode=st.episode,
            mean_sum_rate=st.mean_sum_rate,
            collision_steps=st.collision_steps,
            avg_sum_rate=tuple(float(v) for v in st.avg_sum_rate),
            steps_to_terminal=tuple(int(v) for v in st.steps_to_terminal),
            cumulative_reward=tuple(float(v) for v in st.cumulative_reward),
            reached=tuple(int(v) for v in st.reached),
        )


def write_metrics(stats_list, path, n_agents: int) -> None:
    cols = ["episode", "mean_sum_rate", "collision_steps"]
    cols += [f"avg_sum_rate_agent{j}" for j in range(n_agents)]
    cols += [f"steps_to_terminal_agent{j}" for j in range(n_agents)]
    cols += [f"cumulative_reward_agent{j}" for j in range(n_agents)]
    cols += [f"reached_agent{j}" for j in range(n_agents)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in _metrics_rows(stats_list):
            row = [str(rec.episode), repr(rec.mean_sum_rate), str(rec.collision_steps)]
            row += [repr(v) for v in rec.avg_sum_rate]
            row += [str(v) for v in rec.steps_to_terminal]
            row += [repr(v) for v in rec.cumulative_reward]
            row += [str(v) for v in rec.reached]
            fh.write(",".join(row) + "\n")


def read_metrics(path):
    """Parse a metrics file back into column arrays; errors carry line numbers."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise PlotDataError(f"{path}: line 1: empty metrics file")
    header = lines[0].split(",")
    try:
        mean_idx = header.index("mean_sum_rate")
        ep_idx = header.index("episode")
    except ValueError:
        raise PlotDataError(f"{path}: line 1: missing required columns") from None
    episodes, means = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise PlotDataError(f"{path}: line {lineno}: expected "
                                f"{len(header)} fields, got {len(parts)}")
        try:
            episodes.append(int(parts[ep_idx]))
            means.append(float(parts[mean_idx]))
        except ValueError as exc:
            raise PlotDataError(f"{path}: line {lineno}: {exc}") from None
    return np.asarray(episodes), np.asarray(means)


def write_trajectory(rollout, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("agent,step,x_m,y_m\n")
        for j, positions in enumerate(rollout.trajectories):
            for t, pos in enumerate(positions):
                fh.write(f"{j},{t},{pos.x!r},{pos.y!r}\n")


def read_trajectory(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "agent,step,x_m,y_m":
        raise PlotDataError(f"{path}: line 1: unexpected trajectory header")
    agents = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise PlotDataError(f"{path}: line {lineno}: expected 4 fields")
        try:
            agents.setdefault(int(parts[0]), []).append((float(parts[2]),
                                                         float(parts[3])))
        except ValueError as exc:
            raise PlotDataError(f"{path}: line {lineno}: {exc}") from None
    return agents


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_train(config: ScenarioConfig, params: LearningParams, master_seed: int,
              out_dir) -> RunManifest:
    """Train, roll out, and write every artifact plus a digest manifest.

    Output bytes are a pure function of (config, seed); the manifest's
    timestamps are informational only. Partial outputs are removed if any
    step fails.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def out(name):
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    try:
        qtables, stats = train(config, params, master_seed)
        metrics_path = out("metrics.csv")
        write_metrics(stats, metrics_path, config.n_agents)
        for j, q in enumerate(qtables):
            save_qtable(q, out(f"qtable_agent{j}.txt"))
        rollout = extract_trajectory(config, qtables)
        trajectory_path = out("trajectory.csv")
        write_trajectory(rollout, trajectory_path)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise

    finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    manifest = RunManifest(
        config=config_to_dict(config, params),
        master_seed=master_seed,
        version=__version__,
        started_at=started,
        finished_at=finished,
        files={os.path.basename(p): _sha256(p) for p in written},
        rollout={
            "reached": [bool(r) for r in rollout.reached],
            "steps": rollout.steps,
            "min_pairwise_m": rollout.min_pairwise,
            "violation_steps": rollout.violation_steps,
            "cycle_detected": rollout.cycle_detected,
        },
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def smooth_series(values: np.ndarray, window: int) -> np.ndarray:
    """Valid-mode moving average: len(values) - window + 1 points."""
    if window < 1:
        raise ValueError("window must be at least 1")
    if window > len(values):
        raise ValueError("window longer than the series")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def emit_plot_data(metrics_path, trajectory_path, out_dir, window: int = 100):
    """Write per-agent trajectory files and the smoothed sum-rate series."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    agents = read_trajectory(trajectory_path)
    for j in sorted(agents):
        path = os.path.join(out_dir, f"trajectory_agent{j}.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("x_m,y_m\n")
            for x, y in agents[j]:
                fh.write(f"{x!r},{y!r}\n")
        outputs.append(path)

    episodes, means = read_metrics(metrics_path)
    smoothed = smooth_series(means, window)
    path = os.path.join(out_dir, "sum_rate_smoothed.csv")
    with open(path, "w", encoding="ascii") as fh:
        # each row's episode is the last episode inside its window
        fh.write("episode,smoothed_mean_sum_rate\n")
        for i, value in enumerate(smoothed):
            fh.write(f"{episodes[i + window - 1]},{float(value)!r}\n")
    outputs.append(path)
    return outputs


def _cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    print("configuration is valid")
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        config, params = load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.episodes is not None:
        params = replace(params, max_episodes=args.episodes)
    try:
        manifest = run_train(config, params, args.seed, args.out_dir)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"run complete: {len(manifest.files)} artifacts in {args.out_dir}")
    if not all(manifest.rollout["reached"]):
        print("warning: greedy rollout did not reach every final cell",
              file=sys.stderr)
    return EXIT_OK


def _cmd_rollout(args) -> int:
    try:
        config, _ = load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        qtables = [load_qtable(os.path.join(args.qtable_dir, f"qtable_agent{j}.txt"))
                   for j in range(config.n_agents)]
    except OSError as exc:
        print(f"cannot read checkpoints: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid checkpoint: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for j, q in enumerate(qtables):
        if (q.n_states, q.n_actions) != (config.area.n_states, len(Action)):
            print(f"invalid checkpoint: qtable_agent{j}.txt is {q.n_states} x "
                  f"{q.n_actions}, the config needs {config.area.n_states} x "
                  f"{len(Action)}", file=sys.stderr)
            return EXIT_VALIDATION
    rollout = extract_trajectory(config, qtables)
    try:
        write_trajectory(rollout, args.out)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"rollout: steps={rollout.steps} reached={rollout.reached} "
          f"min_pairwise={rollout.min_pairwise:.3f} m")
    if rollout.cycle_detected or not all(rollout.reached) or rollout.violation_steps:
        print("rollout diagnostics failed", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    try:
        outputs = emit_plot_data(args.metrics, args.trajectory, args.out_dir,
                                 window=args.window)
    except PlotDataError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in outputs:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="absim",
        description="Aerial base station trajectory learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a seeded training experiment")
    p_train.add_argument("--config", default=None, help="JSON config path")
    p_train.add_argument("--seed", type=int, default=0, help="master seed")
    p_train.add_argument("--out-dir", default="out", help="output directory")
    p_train.add_argument("--episodes", type=int, default=None,
                         help="override the configured episode count")
    p_train.set_defaults(func=_cmd_train)

    p_roll = sub.add_parser("rollout", help="greedy rollout from checkpoints")
    p_roll.add_argument("--config", default=None)
    p_roll.add_argument("--qtable-dir", required=True)
    p_roll.add_argument("--out", default="trajectory.csv")
    p_roll.set_defaults(func=_cmd_rollout)

    p_plot = sub.add_parser("plot-data", help="emit plot-ready delimited files")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--trajectory", required=True)
    p_plot.add_argument("--out-dir", default="plots")
    p_plot.add_argument("--window", type=int, default=100)
    p_plot.set_defaults(func=_cmd_plot_data)

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", default=None)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
