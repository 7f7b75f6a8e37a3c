"""absim benchmark: training throughput, artifact cost and a traced per-layer run.

Run from the root of a checkout (nothing to build: the package is imported
from ``src/``)::

    python3 bench/run.py --workload headline --seed 0 --seconds 20 --trace 0

The workload's JSON config is generated from ``--seed`` and written once.
One unit of work loads it with ``absim.simcli.load_config``, trains with
``absim.simcli.run_train`` and reads the artifacts back (``load_qtable`` +
``extract_trajectory``). Units repeat until ``--seconds`` have passed;
every timing is the fastest unit's, and set-up time is the median of many
set-ups. ``--trace 0`` times untraced units and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics, including the tracing overhead. The output is a report
of every metric by name and unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process with one numpy/BLAS thread; set before numpy is first imported.
THREAD_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter

# Each workload is (config overrides, episodes per unit). Every episode in a
# unit falls in early training, where at least one station runs into the
# 4 x states step cap for every seed probed, so the work in a unit does not
# depend on when a seed's policies converge (for distance_only that varied
# from 353k to 551k joint steps over the first 400 episodes of seeds 0-2).
WORKLOADS = {
    # the paper's default two-station scenario: what `absim train` runs
    "headline": ({}, 1),
    # no sum-rate weight: step_all skips the channel draw and the allocator
    "distance_only": ({"reward_weights": {"beta1": 0.0}}, 2),
    # four stations, 10 x 16 allocation problems, J=4 interference sums and
    # a ground transmitter whose path loss is recomputed every step. Left out
    # of BENCHMARK.json: on a shared 2-vCPU host its run-to-run spread reached
    # the largest allowed bound (0.25-0.38 over ten seeds, twice), but it
    # still runs by name to show array-size effects per layer.
    "dense_fleet": ({
        "area": {"cells_per_axis": 20},
        "abs": [{"initial_cell": [1, 1], "final_cell": [20, 20]},
                {"initial_cell": [20, 1], "final_cell": [1, 20]},
                {"initial_cell": [1, 20], "final_cell": [20, 1]},
                {"initial_cell": [20, 20], "final_cell": [1, 1]}],
        "users": {"count": 40},
        "n_subchannels": 16,
        "gbs": {"enabled": True, "power_per_subchannel_watts": 0.001},
    }, 1),
}
SETUPS_PER_UNIT = 10
MIN_UNITS = 3
QUICK_STEPS = 50


def load_absim():
    """Import absim from this checkout's src/, never from anywhere else."""
    if not (SRC / "absim" / "__init__.py").is_file():
        sys.exit(f"bench: no absim sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    absim = importlib.import_module("absim")
    if Path(absim.__file__).resolve().parent != SRC / "absim":
        sys.exit(f"bench: imported absim from {absim.__file__}, not from {SRC}")
    for name in ("environment", "geometry", "qlearning", "simcli"):
        importlib.import_module(f"absim.{name}")
    return absim


class Checks:
    """Correctness checks; every one counts towards attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Unit:
    train_s: float
    artifact_s: float
    n_agents: int
    episodes: int
    joint_steps: int
    agent_steps: int
    mean_sum_rate: float
    digests: dict
    visited_frac: float
    tracer: Tracer | None


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_metrics_csv(path, n_agents, n_episodes, checks):
    """Return (joint steps, agent steps, mean sum-rate) from metrics.csv."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    checks.expect(len(rows) == n_episodes, "metrics.csv has one row per episode")
    checks.expect([r["episode"] for r in rows] == [str(e + 1) for e in range(n_episodes)],
                  "metrics.csv numbers its episodes 1..E")
    checks.expect(all(v is not None and math.isfinite(float(v))
                      for r in rows for v in r.values()),
                  "every metrics.csv field is finite")
    checks.expect(all(len(r) == 3 + 4 * n_agents for r in rows),
                  "metrics.csv has 3 + 4 x stations columns")
    steps = [[int(r[f"steps_to_terminal_agent{j}"]) for j in range(n_agents)]
             for r in rows]
    mean_rate = statistics.fmean(float(r["mean_sum_rate"]) for r in rows)
    return sum(max(s) for s in steps), sum(sum(s) for s in steps), mean_rate


def run_unit(absim, cfg_path, seed, out_dir, checks, tracer=None):
    """One load_config + run_train + read-back, checked; returns its Unit."""
    simcli, environment, qlearning = absim.simcli, absim.environment, absim.qlearning
    # the one hook in an untraced unit: stamp the train/artifact boundary
    boundary = {}
    plain_train = simcli.train

    def stamped_train(*args, **kwargs):
        result = plain_train(*args, **kwargs)
        boundary["t"] = clock()
        boundary["qtables"] = result[0]
        return result

    simcli.train = stamped_train
    if tracer is not None:
        tracer.install(absim)
    try:
        config, params = simcli.load_config(cfg_path)
        start = clock()
        manifest = simcli.run_train(config, params, seed, out_dir)
        qtables = [qlearning.load_qtable(out_dir / f"qtable_agent{j}.txt")
                   for j in range(config.n_agents)]
        rollout = environment.extract_trajectory(config, qtables)
        end = clock()
    finally:
        if tracer is not None:
            tracer.restore()
        simcli.train = plain_train
    if "t" not in boundary:
        raise RuntimeError("run_train no longer calls absim.simcli.train; "
                           "the train/artifact boundary cannot be stamped")

    files = manifest.files
    expected = {"metrics.csv", "trajectory.csv"} | {
        f"qtable_agent{j}.txt" for j in range(config.n_agents)}
    checks.expect(set(files) == expected, "manifest lists every artifact")
    checks.expect(all(sha256(out_dir / name) == digest for name, digest in files.items()),
                  "manifest digests match the files")
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    checks.expect(on_disk["files"] == files, "manifest.json holds the returned digests")
    readback = out_dir / "readback_trajectory.csv"
    simcli.write_trajectory(rollout, readback)
    checks.expect(sha256(readback) == files.get("trajectory.csv"),
                  "read-back rollout reproduces trajectory.csv")
    joint, agent, mean_rate = read_metrics_csv(out_dir / "metrics.csv", config.n_agents,
                                               params.max_episodes, checks)
    visited = statistics.fmean(float((q.visits > 0).mean()) for q in boundary["qtables"])
    return Unit(train_s=boundary["t"] - start, artifact_s=end - boundary["t"],
                n_agents=config.n_agents, episodes=params.max_episodes,
                joint_steps=joint, agent_steps=agent, mean_sum_rate=mean_rate,
                digests=dict(files), visited_frac=visited, tracer=tracer)


def set_up(absim, cfg_path):
    """Time one set-up: config load and validation, user placement,
    Environment construction and Q-table init."""
    simcli, environment, qlearning, geometry = (absim.simcli, absim.environment,
                                                absim.qlearning, absim.geometry)
    start = clock()
    config, params = simcli.load_config(cfg_path)
    environment.Environment(config)
    q0 = environment.pessimistic_q_init(config, params.gamma)
    for final in config.final_states:
        qlearning.QTable(config.area.n_states, len(geometry.Action),
                         terminal_state=geometry.state_index(config.area, final),
                         initial_value=q0)
    return clock() - start


def check_counters(checks, unit, allocating):
    """Fail loudly when a wrapped counter reads zero where work happened, or the reverse."""
    t = unit.tracer
    sp = t.spans
    solves = sp["allocator.solve"].calls
    expect = checks.expect
    expect(solves == (unit.agent_steps if allocating else 0),
           "allocator.solve.calls equals active-station steps (0 without allocation)")
    expect(sp["allocator.problem"].calls == solves, "one AllocationProblem per solve")
    expect(sp["channel.interference"].calls == solves, "one interference table per solve")
    expect(sp["channel.draw"].calls == (unit.joint_steps if allocating else 0),
           "channel.draw.calls equals joint steps (0 without allocation)")
    expect((sp["allocator.solve"].s > 0 and sp["channel.draw"].s > 0) == allocating,
           "allocator and channel time is non-zero exactly when allocating")
    pl_calls = sp["channel.path_loss"].calls
    expect((1 <= pl_calls <= t.station_rows_drawn) if allocating else pl_calls == 0,
           "path-loss rows computed at most once per station-row drawn")
    expect(t.solve_over_budget == 0, "every solve keeps sum(powers) <= p_max (1 + 1e-6)")
    expect(sp["qlearning.select"].calls == unit.agent_steps,
           "qlearning.select.calls equals active-station steps")
    expect(sp["qlearning.update"].calls == unit.agent_steps,
           "qlearning.update.calls equals active-station steps")
    expect(sp["environment.step_all"].calls == unit.joint_steps,
           "environment.step_all.calls equals joint steps")
    expect(sp["environment.run_episode"].calls == unit.episodes,
           "environment.run_episode.calls equals episodes")
    expect(sp["rng.derive_stream"].calls == unit.episodes + 1,
           "one derived stream per episode plus one for user placement")
    expect(sp["geometry"].calls >= unit.agent_steps, "at least one geometry call per move")
    expect(sp["environment.extract_trajectory"].calls == 2,
           "two rollouts: run_train's and the read-back")
    expect(sp["qlearning.save"].calls == unit.n_agents and t.saved_bytes > 0,
           "one non-empty Q-table file saved per station")
    expect(sp["qlearning.load"].calls == unit.n_agents, "one Q-table loaded per station")
    expect(all(sp[name].calls == 1 for name in ("simcli.load_config", "simcli.run_train",
                                                "simcli.write_metrics",
                                                "simcli.write_trajectory")),
           "load_config, run_train, write_metrics and write_trajectory each run once")


def per_layer(unit):
    """Per-layer metrics of one traced unit: name -> (value, unit)."""
    t = unit.tracer
    sp = t.spans
    solves = sp["allocator.solve"].calls
    rows = t.station_rows_drawn
    return {
        "allocator.problem.calls": (sp["allocator.problem"].calls, "count"),
        "allocator.problem.s": (sp["allocator.problem"].s, "s"),
        "allocator.solve.calls": (solves, "count"),
        "allocator.solve.s": (sp["allocator.solve"].s, "s"),
        "allocator.iterations_per_solve": (t.solve_iterations / solves if solves else 0.0,
                                           "count"),
        "allocator.nonconverged": (t.solve_nonconverged, "count"),
        "allocator.max_budget_slack_rel": (t.solve_max_slack_rel, "ratio"),
        "channel.draw.calls": (sp["channel.draw"].calls, "count"),
        "channel.draw.s": (sp["channel.draw"].s, "s"),
        "channel.interference.calls": (sp["channel.interference"].calls, "count"),
        "channel.interference.s": (sp["channel.interference"].s, "s"),
        "channel.path_loss.calls": (sp["channel.path_loss"].calls, "count"),
        "channel.path_loss.s": (sp["channel.path_loss"].s, "s"),
        "channel.pl_cache_hit_ratio": (
            1.0 - sp["channel.path_loss"].calls / rows if rows else 0.0, "ratio"),
        "qlearning.select.calls": (sp["qlearning.select"].calls, "count"),
        "qlearning.select.s": (sp["qlearning.select"].s, "s"),
        "qlearning.update.calls": (sp["qlearning.update"].calls, "count"),
        "qlearning.update.s": (sp["qlearning.update"].s, "s"),
        "qlearning.visited_frac": (unit.visited_frac, "ratio"),
        "qlearning.save.s": (sp["qlearning.save"].s, "s"),
        "qlearning.save.bytes": (t.saved_bytes, "B"),
        "qlearning.load.s": (sp["qlearning.load"].s, "s"),
        "geometry.calls": (sp["geometry"].calls, "count"),
        "geometry.s": (sp["geometry"].s, "s"),
        "environment.step_all.calls": (sp["environment.step_all"].calls, "count"),
        "environment.step_all.self_s": (sp["environment.step_all"].self_s, "s"),
        "environment.run_episode.self_s": (sp["environment.run_episode"].self_s, "s"),
        "environment.extract_trajectory.s": (sp["environment.extract_trajectory"].s, "s"),
        "rng.derive_stream.calls": (sp["rng.derive_stream"].calls, "count"),
        "rng.derive_stream.s": (sp["rng.derive_stream"].s, "s"),
        "simcli.load_config.s": (sp["simcli.load_config"].s, "s"),
        "simcli.run_train.self_s": (sp["simcli.run_train"].self_s, "s"),
        "simcli.write_metrics.s": (sp["simcli.write_metrics"].s, "s"),
        "simcli.write_trajectory.s": (sp["simcli.write_trajectory"].s, "s"),
        "mean_sum_rate": (unit.mean_sum_rate, "bit/s/Hz"),
    }


def layer_shares(unit):
    """Each layer's traced time as a share of traced training time."""
    sp = unit.tracer.spans
    spans = {
        "allocator": ("allocator.problem", "allocator.solve"),
        "channel": ("channel.draw", "channel.interference", "channel.path_loss"),
        "qlearning select+update": ("qlearning.select", "qlearning.update"),
        "geometry": ("geometry",),
        "rng": ("rng.derive_stream",),
    }
    train = sp["simcli.train"].s
    shares = {layer: sum(sp[n].s for n in names) / train for layer, names in spans.items()}
    shares["environment.step_all self"] = sp["environment.step_all"].self_s / train
    shares["environment.run_episode self"] = sp["environment.run_episode"].self_s / train
    return shares


def us_per_joint_step(unit):
    return unit.train_s / unit.joint_steps * 1e6


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace, quick=False):
    """Run one benchmark measurement and return (result dict, report lines).

    quick trains one short episode per unit; the self-test uses it.
    """
    absim = load_absim()
    overrides, n_episodes = WORKLOADS[workload]
    raw = json.loads(json.dumps(overrides))
    raw.setdefault("users", {})["placement_seed"] = seed
    learning = raw.setdefault("learning", {})
    learning["max_episodes"] = 1 if quick else n_episodes
    if quick:
        learning["max_steps_per_episode"] = QUICK_STEPS
    allocating = raw.get("reward_weights", {}).get("beta1", 1.0) != 0.0

    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    untraced, traced = [], []
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        setup_times = []
        deadline = clock() + seconds
        while len(untraced) < MIN_UNITS or clock() < deadline:
            setup_times += [set_up(absim, cfg_path) for _ in range(SETUPS_PER_UNIT)]
            out = work / f"unit{len(untraced) + len(traced)}"
            untraced.append(run_unit(absim, cfg_path, seed, out, checks))
            shutil.rmtree(out)
            if trace:
                out = work / f"unit{len(untraced) + len(traced)}"
                traced.append(run_unit(absim, cfg_path, seed, out, checks, Tracer()))
                shutil.rmtree(out)
                check_counters(checks, traced[-1], allocating)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = untraced + traced
    for unit in units[1:]:
        checks.expect(unit.digests == units[0].digests,
                      "artifact digests identical across units, traced and untraced")
    # Every unit repeats identical work with identical output bytes, so the
    # differences between units are interference from other load on the
    # host: timings are the fastest unit's, and the report adds the medians.
    if trace:
        layers = [per_layer(u) for u in traced]
        metrics = {name: (min(layer[name][0] for layer in layers), unit_)
                   for name, (_, unit_) in layers[0].items()}
        metrics["trace_overhead"] = (min(map(us_per_joint_step, traced))
                                     / min(map(us_per_joint_step, untraced)), "ratio")
        metrics["failed_frac"] = (len(checks.failures) / checks.attempted, "ratio")
    else:
        fastest = min(u.train_s for u in untraced)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "us_per_joint_step": (fastest / untraced[0].joint_steps * 1e6, "us"),
            "agent_steps_per_s": (untraced[0].agent_steps / fastest, "1/s"),
            "episodes_per_s": (untraced[0].episodes / fastest, "1/s"),
            "artifact_s": (min(u.artifact_s for u in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    medians = (statistics.median(map(us_per_joint_step, untraced)),
               statistics.median(u.artifact_s for u in untraced))

    report = [
        f"absim benchmark: workload={workload} seed={seed} seconds={seconds} "
        f"trace={int(trace)}{' quick' if quick else ''}",
        f"host: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"commit={git_commit()}",
        "threads: " + " ".join(f"{k}={v}" for k, v in THREAD_PIN.items()),
        f"units: {len(untraced)} untraced, {len(traced)} traced, each "
        f"{units[0].episodes} episodes / {units[0].joint_steps} joint steps / "
        f"{units[0].agent_steps} agent steps; {len(setup_times)} set-ups",
        f"untraced unit medians: us_per_joint_step={medians[0]:.2f} "
        f"artifact_s={medians[1]:.5f}",
    ]
    if trace:
        report.append(f"trace_overhead: {metrics['trace_overhead'][0]:.4f} "
                      "(traced / untraced us_per_joint_step)")
        shares = layer_shares(min(traced, key=lambda u: u.train_s))
        report.append("share of traced training time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
    else:
        report.append("trace_overhead: not measured by an untraced run (see --trace 1)")
    report += [f"sha256 {name} {digest}"
               for name, digest in sorted(units[0].digests.items())]
    report += [f"{name:34s} {value!r:>24} {unit_}"
               for name, (value, unit_) in metrics.items()]
    report.append(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    report += [f"FAILED: {what}" for what in dict.fromkeys(checks.failures)]

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit_}
                    for name, (value, unit_) in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
