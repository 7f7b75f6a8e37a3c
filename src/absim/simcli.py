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
import difflib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import __version__
from .channel import FadingMode, GbsSpec, PropagationParams
from .environment import (ScenarioConfig, TableMismatch, extract_trajectory,
                          overflow_errors, train)
from .geometry import Action, AreaSpec, GridState
from .qlearning import LearningParams, load_qtable, save_qtable
from .rng import PURPOSE_USER_PLACEMENT, SEED_END, derive_stream

__all__ = [
    "ConfigValidationError",
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

# One row per scalar config field: (section, JSON key, attribute, kind,
# default); section None is the top level. A kind is float (finite), int,
# bool, or a choice: a tuple of strings or an Enum. Defaults live only here,
# stored as they are; a None one makes the field optional (null allowed).
# The rows of a section in _BUILDS build that dataclass; the top level and
# reward_weights feed ScenarioConfig. abs and users are read in _build_config.
_FIELDS = (
    ("area", "x_min_m", "x_min", float, 0.0),
    ("area", "x_max_m", "x_max", float, 3000.0),
    ("area", "y_min_m", "y_min", float, 0.0),
    ("area", "y_max_m", "y_max", float, 3000.0),
    ("area", "cells_per_axis", "cells_per_axis", int, 30),
    ("area", "altitude_m", "altitude", float, 100.0),
    (None, "n_subchannels", "n_subchannels", int, 8),
    (None, "p_max_watts", "p_max", float, 0.2),
    (None, "d_min_m", "d_min", float, 5.0),
    (None, "fading", "fading", FadingMode, FadingMode.RAYLEIGH),
    (None, "distance_exponent", "distance_exponent", int, 1),
    ("reward_weights", "beta1", "beta1", float, 10.0),
    ("reward_weights", "beta2", "beta2", float, 0.25),
    ("reward_weights", "beta3", "beta3", float, 1000.0),
    ("propagation", "a", "a", float, 5.0),
    ("propagation", "b", "b", float, 0.5),
    ("propagation", "eta_los", "eta_los", float, 1.0),
    ("propagation", "eta_nlos", "eta_nlos", float, 20.0),
    ("propagation", "carrier_freq_hz", "carrier_freq", float, 2.0e9),
    ("propagation", "speed_of_light_m_per_s", "speed_of_light", float, 299792458.0),
    ("propagation", "noise_power_watts", "noise_power", float, 1.0e-9),
    ("gbs", "enabled", "enabled", bool, False),
    ("gbs", "x_m", "x", float, 1500.0),
    ("gbs", "y_m", "y", float, 1500.0),
    ("gbs", "height_m", "height", float, 10.0),
    ("gbs", "power_per_subchannel_watts", "power_per_subchannel", float, 0.0),
    ("learning", "alpha", "alpha", float, 0.1),
    ("learning", "alpha_schedule", "alpha_schedule", ("constant", "visit_count"), "constant"),
    ("learning", "gamma", "gamma", float, 0.9),
    ("learning", "epsilon", "epsilon", float, 0.1),
    ("learning", "epsilon_decay", "epsilon_decay", float, 1.0),
    ("learning", "max_episodes", "max_episodes", int, 2000),
    ("learning", "max_steps_per_episode", "max_steps_per_episode", int, None),
    ("learning", "initial_q", "initial_q", float, None),
)
_BUILDS = {"area": AreaSpec, "propagation": PropagationParams, "gbs": GbsSpec,
           "learning": LearningParams}
DEFAULT_ABS = [{"initial_cell": [1, 1], "final_cell": [30, 30]},
               {"initial_cell": [30, 1], "final_cell": [1, 30]}]
DEFAULT_USERS = {"count": 20, "placement_seed": 101}

# the keys each JSON object of the config may hold; None is the top level
_KNOWN = {section: {row[1] for row in _FIELDS if row[0] == section} for section, *_ in _FIELDS}
_KNOWN[None] |= {"abs", "users", *filter(None, _KNOWN)}
_KNOWN["users"] = {"positions_m", "association", *DEFAULT_USERS}
CELL_KEYS = ("initial_cell", "final_cell")  # of each entry in the abs list
# Largest array, in elements, that a config size may make: the user
# placement (K, 2), one step's gains (J, K, N) and each Q-table (cells^2, 4).
MAX_ARRAY_ELEMENTS = 2 ** 26


class ConfigValidationError(ValueError):
    """Carries every failed field, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


class PlotDataError(ValueError):
    pass


@dataclass
class RunManifest:
    config: dict
    master_seed: int
    version: str
    started_at: str
    finished_at: str
    files: dict
    rollout: dict


def _convert(value, kind, key):
    """One JSON value as the given kind (see _FIELDS); ValueError names key."""
    if kind is float:  # json reads NaN and Infinity, 1e400 as inf, 10**400 as an int
        ok = (type(value) is float and math.isfinite(value)
              or type(value) is int and abs(value) < 1e308)
        what = "a finite number"
    elif kind is int:  # int() would truncate 30.7; type() keeps bools out
        ok = type(value) is int or type(value) is float and value.is_integer()
        what = "an integer"
    elif kind is bool:  # bool("false") is True
        ok, what = type(value) is bool, "true or false"
    else:
        options = [getattr(option, "value", option) for option in kind]
        ok, what = value in options, "one of " + ", ".join(map(repr, options))
    if not ok:
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return kind(value) if isinstance(kind, type) else value


def _object(value, known, label, errors):
    """value if it is a JSON object, else None; reports each key not in known."""
    if type(value) is not dict:
        errors.append(f"{label}: must be a JSON object")
        return None
    for key in value:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            errors.append(f"{label}: unknown key {key!r}{hint}")
    return value


def _cell(entry, key):
    if key not in entry:
        raise ValueError(f"{key} is missing")
    cell = entry[key]
    if type(cell) is not list or len(cell) != 2:
        raise ValueError(f"{key} must be a pair [k1, k2], got {cell!r}")
    return GridState(_convert(cell[0], int, key), _convert(cell[1], int, key))


def _positions(value):
    if type(value) is not list or any(type(p) is not list or len(p) != 2 for p in value):
        raise ValueError("positions_m must be a list of [x, y] pairs")
    return np.array([[_convert(c, float, "every coordinate") for c in p] for p in value],
                    dtype=float)


def _association(value):
    if type(value) is not list:
        raise ValueError(f"association must be a list of station indices, got {value!r}")
    return np.array([_convert(v, int, "association entry") for v in value], dtype=int)


def _place_users(area, count, placement_seed):
    rng = derive_stream(placement_seed, PURPOSE_USER_PLACEMENT)
    x = rng.uniform(area.x_min, area.x_max, size=count)
    y = rng.uniform(area.y_min, area.y_max, size=count)
    return np.column_stack([x, y])


def _fits(errors, label, what, shape):
    if math.prod(shape) <= MAX_ARRAY_ELEMENTS:
        return True
    errors.append(f"{label}: {what} would hold {' x '.join(map(str, shape))} elements, "
                  f"more than {MAX_ARRAY_ELEMENTS}")
    return False


def _unique_keys(pairs):  # json.load alone keeps the last of a repeated key's values
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_config(path=None):
    """Build (ScenarioConfig, LearningParams) from a JSON file over the defaults.

    A missing path means pure defaults. Every invariant violation and
    unknown key found is collected and reported together in one
    ConfigValidationError; a file that is not a JSON object is reported the
    same way.
    """
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, object_pairs_hook=_unique_keys)
            except ValueError as exc:
                raise ConfigValidationError([f"{path}: not valid JSON: {exc}"]) from None
        if not isinstance(data, dict):
            raise ConfigValidationError([f"{path}: top level must be a JSON object"])
    return _build_config(data)


def _build_config(data):
    errors = []

    def attempt(build, label):
        try:
            return build()
        except ValueError as exc:  # one line per violated invariant
            errors.extend(f"{label}: {line}" for line in str(exc).splitlines())
            return None

    objects = {name: _object(data if name is None else data.get(name, {}), known,
                             name or "scenario", errors) or {}
               for name, known in _KNOWN.items()}
    values = {name: {} for name in objects}
    for name, key, attr, kind, default in _FIELDS:
        value = objects[name].get(key, default)
        try:  # a default is stored as it is, and a None one makes null valid
            values[name][attr] = value if value is default else _convert(value, kind, key)
        except ValueError as exc:  # its default stands in, so the section still builds
            errors.append(f"{name or 'scenario'}: {exc}")
            values[name][attr] = default
    built = {name: attempt(lambda: cls(**values[name]), name) for name, cls in _BUILDS.items()}
    if built["area"] is not None:
        _fits(errors, "area.cells_per_axis", "each Q-table",
              (built["area"].n_states, len(Action)))

    entries = data.get("abs", DEFAULT_ABS)
    if type(entries) is not list:
        errors.append("abs: must be a JSON list")
        entries = []
    initial, final = [], []
    for i, entry in enumerate(entries):
        label = f"abs[{i}]"
        if _object(entry, CELL_KEYS, label, errors) is not None:
            initial.append(attempt(lambda: _cell(entry, "initial_cell"), label))
            final.append(attempt(lambda: _cell(entry, "final_cell"), label))

    users = objects["users"]
    users_xy = assoc = None
    if "positions_m" in users:
        if users.keys() & DEFAULT_USERS:
            errors.append("users: positions_m excludes count and placement_seed")
        users_xy = attempt(lambda: _positions(users["positions_m"]), "users.positions_m")
    else:
        count, seed = (attempt(lambda: _convert(users.get(key, default), int, key),
                               f"users.{key}") for key, default in DEFAULT_USERS.items())
        if seed is not None and not 0 <= seed < SEED_END:
            errors.append(f"users.placement_seed: must be in [0, 2^64), got {seed}")
            seed = None
        if count is not None and count < 1:
            errors.append("users.count: must be at least 1")
        elif count is not None and _fits(errors, "users.count", "the placement", (count, 2)) \
                and seed is not None and built["area"] is not None:
            users_xy = _place_users(built["area"], count, seed)
    if "association" in users:
        assoc = attempt(lambda: _association(users["association"]), "users.association")
    elif users_xy is not None:
        # split in listing order: half to each station for two
        k = len(users_xy)
        assoc = np.array([i * len(entries) // k for i in range(k)], dtype=int)
    if users_xy is not None:
        _fits(errors, "scenario", "one step's gains (abs x users x n_subchannels)",
              (len(entries), len(users_xy), values[None]["n_subchannels"]))

    config = None
    if not errors:
        config = attempt(lambda: ScenarioConfig(
            area=built["area"], initial_states=tuple(initial), final_states=tuple(final),
            users_xy=users_xy, association=assoc, propagation=built["propagation"],
            gbs=built["gbs"], **values[None], **values["reward_weights"]), "scenario")
    if config is not None:  # one line per number that training could overflow
        errors += (f"scenario: {line}" for line in overflow_errors(config, built["learning"]))
    if errors:
        raise ConfigValidationError(errors)
    return config, built["learning"]


def config_to_dict(config: ScenarioConfig, params: LearningParams) -> dict:
    """Lossless snapshot of a validated config; load_config round-trips it."""
    owners = {None: config, "reward_weights": config, "area": config.area,
              "propagation": config.propagation, "gbs": config.gbs, "learning": params}
    snapshot = {
        "abs": [{"initial_cell": [s.k1, s.k2], "final_cell": [f.k1, f.k2]}
                for s, f in zip(config.initial_states, config.final_states)],
        "users": {"positions_m": config.users_xy.tolist(),
                  "association": config.association.tolist()},
    }
    for section, key, attr, _, _ in _FIELDS:
        value = getattr(owners[section], attr)
        if isinstance(value, Enum):
            value = value.value
        (snapshot if section is None else snapshot.setdefault(section, {}))[key] = value
    return snapshot


def _write_rows(path, header, rows):
    """Write delimited text: the header's names, then each row's text fields."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_metrics(stats_list, path, n_agents: int) -> None:
    groups = ("avg_sum_rate", "steps_to_terminal", "cumulative_reward", "reached")
    header = ["episode", "mean_sum_rate", "collision_steps"]
    header += [f"{name}_agent{j}" for name in groups for j in range(n_agents)]
    # convert numpy scalars first: their repr differs from float's
    _write_rows(path, header, ([str(e), repr(st.mean_sum_rate), str(st.collision_steps),
                                *(repr(float(v)) for v in st.avg_sum_rate),
                                *(str(int(v)) for v in st.steps_to_terminal),
                                *(repr(float(v)) for v in st.cumulative_reward),
                                *(str(int(v)) for v in st.reached)]
                               for e, st in enumerate(stats_list, start=1)))


def _read_lines(path):
    """Lines of an ASCII text file; a non-ASCII byte raises PlotDataError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # a character appended to the text before the byte lands on its line
        lineno = len((data[:exc.start].decode("ascii") + "x").splitlines())
        raise PlotDataError(f"{path}: line {lineno}: byte {data[exc.start]:#04x} "
                            "is not ASCII") from None


def _number(text, kind, name):
    """One delimited field as an int, or as a finite float; ValueError names it."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):  # isfinite overflows on a huge int
            return value
    except ValueError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{name} must be {what}, got {text!r}")


def _read_columns(path, columns, kinds):
    """The named columns of a delimited file, one list each, fields read by _number.

    Columns are found by name in the header row. A missing column, a row
    whose field count differs from the header's, or a field that does not
    convert raises PlotDataError naming the file and line.
    """
    lines = _read_lines(path)
    header = lines[0].split(",") if lines else []
    for name in columns:
        if name not in header:
            raise PlotDataError(f"{path}: line 1: no {name} column")
    picks = [(header.index(name), kind, name) for name, kind in zip(columns, kinds)]
    values = [[] for _ in columns]
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise PlotDataError(f"{path}: line {lineno}: expected "
                                f"{len(header)} fields, got {len(fields)}")
        try:
            for column, (i, kind, name) in zip(values, picks):
                column.append(_number(fields[i], kind, name))
        except ValueError as exc:
            raise PlotDataError(f"{path}: line {lineno}: {exc}") from None
    return values


def read_metrics(path):
    """The episode and mean_sum_rate columns of a metrics file, as arrays."""
    episodes, means = _read_columns(path, ("episode", "mean_sum_rate"), (int, float))
    return np.asarray(episodes), np.asarray(means)


def write_trajectory(rollout, path) -> None:
    _write_rows(path, ("agent", "step", "x_m", "y_m"),
                ((str(j), str(t), repr(pos.x), repr(pos.y))
                 for j, positions in enumerate(rollout.trajectories)
                 for t, pos in enumerate(positions)))


def read_trajectory(path):
    """Each agent's (x, y) points in file order, keyed by agent index."""
    agent, _, x, y = _read_columns(path, ("agent", "step", "x_m", "y_m"),
                                   (int, int, float, float))
    agents = {}
    for j, point in zip(agent, zip(x, y)):
        agents.setdefault(j, []).append(point)
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
    timestamps are informational only. Every file is first written to a
    temp file in out_dir, and only when all of them, manifest included,
    are complete are they renamed into place, manifest last. If training
    or any write fails, the temp files are removed and the files in
    out_dir are left as they were. Any previous manifest.json is removed
    before the first rename, so a directory whose renames were cut short
    has no manifest and cannot pass for a complete run.
    """
    os.makedirs(out_dir, exist_ok=True)
    staged = {}  # artifact name -> its temp file

    def out(name):
        staged[name] = os.path.join(out_dir, f".{name}.tmp")
        return staged[name]

    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    try:
        qtables, stats = train(config, params, master_seed)
        write_metrics(stats, out("metrics.csv"), config.n_agents)
        for j, q in enumerate(qtables):
            save_qtable(q, out(f"qtable_agent{j}.txt"))
        rollout = extract_trajectory(config, qtables)
        write_trajectory(rollout, out("trajectory.csv"))
        manifest = RunManifest(
            config=config_to_dict(config, params),
            master_seed=master_seed,
            version=__version__,
            started_at=started,
            finished_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            files={name: _sha256(tmp) for name, tmp in staged.items()},
            rollout={
                "reached": [bool(r) for r in rollout.reached],
                "steps": rollout.steps,
                "min_pairwise_m": rollout.min_pairwise,
                "violation_steps": rollout.violation_steps,
                "cycle_detected": rollout.cycle_detected,
            },
        )
        write_manifest(manifest, out("manifest.json"))
        old_manifest = os.path.join(out_dir, "manifest.json")
        if os.path.exists(old_manifest):
            os.remove(old_manifest)
        for name, tmp in staged.items():
            os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.remove(tmp)
        raise
    return manifest


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")


def smooth_series(values: np.ndarray, window: int) -> np.ndarray:
    """Valid-mode moving average: len(values) - window + 1 points."""
    if window < 1:
        raise PlotDataError("window must be at least 1")
    if window > len(values):
        raise PlotDataError(f"window {window} is longer than the series "
                            f"({len(values)} episodes)")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def emit_plot_data(metrics_path, trajectory_path, out_dir, window: int):
    """Write per-agent trajectory files and the smoothed sum-rate series."""
    episodes, means = read_metrics(metrics_path)
    smoothed = smooth_series(means, window)
    agents = read_trajectory(trajectory_path)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for j in sorted(agents):
        outputs.append(os.path.join(out_dir, f"trajectory_agent{j}.csv"))
        _write_rows(outputs[-1], ("x_m", "y_m"), ((repr(x), repr(y)) for x, y in agents[j]))
    outputs.append(os.path.join(out_dir, "sum_rate_smoothed.csv"))
    # each row's episode is the last episode inside its window
    _write_rows(outputs[-1], ("episode", "smoothed_mean_sum_rate"),
                ((str(int(episodes[i + window - 1])), repr(float(value)))
                 for i, value in enumerate(smoothed)))
    return outputs


def _with_config(command):
    """Run command(args, config, params) on the loaded --config; a config that
    fails validation ends with exit 2, an unreadable one with exit 3."""
    def run(args) -> int:
        try:
            config, params = load_config(args.config)
        except ConfigValidationError as exc:
            print(exc, file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        return command(args, config, params)

    return run


@_with_config
def _cmd_validate(args, config, params) -> int:
    print("configuration is valid")
    return EXIT_OK


@_with_config
def _cmd_train(args, config, params) -> int:
    if not 0 <= args.seed < SEED_END:
        print(f"invalid --seed: must be in [0, 2^64), got {args.seed}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.episodes is not None:
        try:
            params = replace(params, max_episodes=args.episodes)
        except ValueError as exc:
            print(f"invalid --episodes: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
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


@_with_config
def _cmd_rollout(args, config, params) -> int:
    names = [f"qtable_agent{j}.txt" for j in range(config.n_agents)]
    paths = [os.path.join(args.qtable_dir, name) for name in names]
    manifest = os.path.join(args.qtable_dir, "manifest.json")
    try:
        qtables = [load_qtable(path) for path in paths]
        if os.path.exists(manifest):  # a directory without a manifest is not checked
            try:
                with open(manifest, "r", encoding="utf-8") as fh:
                    digests = json.load(fh)["files"]
                if not isinstance(digests, dict):
                    raise TypeError("files is not a JSON object")
            except (ValueError, KeyError, TypeError):
                raise ValueError("manifest.json lists no file digests") from None
            for name, path in zip(names, paths):
                if _sha256(path) != digests.get(name):
                    raise ValueError(f"{name} does not match manifest.json")
        rollout = extract_trajectory(config, qtables)
    except OSError as exc:
        print(f"cannot read checkpoints: {exc}", file=sys.stderr)
        return EXIT_IO
    except TableMismatch as exc:
        print(f"invalid checkpoint: {names[exc.agent]} {exc.reason}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid checkpoint: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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
        outputs = emit_plot_data(args.metrics, args.trajectory, args.out_dir, args.window)
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
