"""Pinned artifact digests: refactors must reproduce these bytes exactly.

Each case trains from a fixed config and seed through ``run_train`` and
compares the SHA-256 of every deterministic artifact with the value the
simulator produced when the pin was taken. A digest change means the
simulated behaviour changed; that is a deliberate, documented decision,
never a side effect of a speed-up or a cleanup. The bytes must not depend
on the CPU either: child processes train the cases again with numpy's
higher SIMD dispatch targets disabled, one level at a time.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import absim
from absim.simcli import config_to_dict, emit_plot_data, load_config, run_train

try:  # numpy's SIMD dispatch tables
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# the default two-station scenario, cut to two episodes
HEADLINE = ({"learning": {"max_episodes": 2}}, 0)

# four stations, a ground transmitter and 16 sub-channels: exercises the
# J > 2 interference sums and the ground transmitter's interference term
DENSE_FLEET = ({
    "area": {"cells_per_axis": 20},
    "abs": [{"initial_cell": [1, 1], "final_cell": [20, 20]},
            {"initial_cell": [20, 1], "final_cell": [1, 20]},
            {"initial_cell": [1, 20], "final_cell": [20, 1]},
            {"initial_cell": [20, 20], "final_cell": [1, 1]}],
    "users": {"count": 40, "placement_seed": 3},
    "n_subchannels": 16,
    "gbs": {"enabled": True, "power_per_subchannel_watts": 0.001},
    "learning": {"max_episodes": 2, "max_steps_per_episode": 150},
}, 3)

# eight placed users served alternately by the two stations, so neither
# station's users form one contiguous block of the user list; each station
# serves the users on the far side of the area, so a user of the other
# station wrongly handed to its allocator would win sub-channels
INTERLEAVED = ({
    "users": {"positions_m": [[300.0, 400.0], [2700.0, 500.0], [800.0, 1200.0],
                              [2200.0, 1100.0], [1000.0, 2600.0], [1900.0, 2300.0],
                              [500.0, 2900.0], [2600.0, 2800.0]],
              "association": [1, 0, 1, 0, 1, 0, 1, 0]},
    "learning": {"max_episodes": 2, "max_steps_per_episode": 150},
}, 5)

# three stations serving 2, 5 and 9 users, the third parked on its final
# cell from the start; no fading with the ground transmitter on, the
# visit-count step size, epsilon decay and a squared distance penalty
UNEVEN = ({
    "area": {"cells_per_axis": 12},
    "abs": [{"initial_cell": [1, 1], "final_cell": [12, 12]},
            {"initial_cell": [12, 1], "final_cell": [1, 12]},
            {"initial_cell": [6, 6], "final_cell": [6, 6]}],
    "users": {"count": 16, "placement_seed": 7,
              "association": [0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2]},
    "fading": "none",
    "distance_exponent": 2,
    "gbs": {"enabled": True, "power_per_subchannel_watts": 0.001},
    "learning": {"max_episodes": 2, "max_steps_per_episode": 150,
                 "alpha_schedule": "visit_count", "epsilon_decay": 0.9},
}, 11)

GOLDEN = {
    "headline": (HEADLINE, {
        "metrics.csv":
            "8a6059728e5b491a1424fdb534aadfb5779e0b338b484b25f5ea9a0744066afb",
        "qtable_agent0.txt":
            "6afa1a7af5b8edac055fb44a58706214883c3a2570de0cd843b045f9a9b0dba2",
        "qtable_agent1.txt":
            "e88dec98d15cb58c1c69a53ff72a73da6ad11b4347e51afdf43e7dcb77edfd7f",
        "trajectory.csv":
            "fb94e172615211eb6745a14ee7c72f36080f7e900db8cb395b432a18d97a143a",
    }),
    "dense_fleet": (DENSE_FLEET, {
        "metrics.csv":
            "72409f10b2a8abfd39388e1cbbf193735be9b3de1c4f2b5649e58c5cae77cdad",
        "qtable_agent0.txt":
            "796777e246c61ef467d05ab66582f050e533f488fff0c0662d03052cfbec6c0f",
        "qtable_agent1.txt":
            "e2ec8df0e1af2877d2604425314e98a476e5c51ea5bc2c4c770cc49ce66ca934",
        "qtable_agent2.txt":
            "27b534321b3acda8938024aaec7eda682eb2e2194da1b4af4d051dd6c402bfa4",
        "qtable_agent3.txt":
            "9bf3c8d51fcd8e8275d7f2914ee9a337e53848631f9a45bc9260600ed82dec81",
        "trajectory.csv":
            "c30211c5ea02cad6ec74028214c0985c0295c35c440dfc4ab32cb9bd20e3fd35",
    }),
    "interleaved": (INTERLEAVED, {
        "metrics.csv":
            "4b23eb50f159ba4619bc19f283747e756a96039d08a29b9c5e3debf7585f387f",
        "qtable_agent0.txt":
            "c1d3f806f0816068d01d7c4129edd8f31bc1aaa6150548124a1abffe997160c7",
        "qtable_agent1.txt":
            "04ef51fb8913d73c536eeff92503de2ac8c4e815f7937afc547b497a4267ec97",
        "trajectory.csv":
            "ae74dd4151d8ab8094975ddf7cc06c66d0b088785966f4cfac1b28d863e8a808",
    }),
    "uneven": (UNEVEN, {
        "metrics.csv":
            "71548524837124e00d5d35a3c0695fdb6e8ae2efb42e4accdc39167dfd1e5c7f",
        "qtable_agent0.txt":
            "8d535ae9aebfe7030ff58d26706be0baa84e21ec907aa5d5776daef02c6069d7",
        "qtable_agent1.txt":
            "3c739b53e6e33fba9ceaf73770e629b02ee2d917f51070f7b695074ea0fc0e37",
        "qtable_agent2.txt":
            "85da67748afbe91ae058ae0ee15dbb6a42d95443dcd68476efeb362ef5e191ee",
        "trajectory.csv":
            "9831e2dd9b3a3c4b290c3fe1912ef43643795e960493fa2e6d97db032dab17d5",
    }),
}

# plot-data's outputs for the headline golden run at window 1
PLOT_DATA = {
    "trajectory_agent0.csv":
        "25bfa3bb7b99a5c32841dcb6bfc0b3558f76b8e5c287eb13a8754f03fddb2d5f",
    "trajectory_agent1.csv":
        "368e5ba810097d2e2f79798beae3981a0998ba8578001216382d97d0d4838666",
    "sum_rate_smoothed.csv":
        "41976aa7b74e252182d948da46601c5e2170112e842c19f272711fa4c199f8ec",
}

# SHA-256 of each config's manifest snapshot, serialized as write_manifest
# serializes it; "default" is load_config() with no file
SNAPSHOT = {
    "default": "53e9f7293357137fad7466769e62edb0f2e591a5b01924255cb2935575751972",
    "dense_fleet": "a3be65bf88ca6e6da4f455bc37796a99b6bcc25d0d0e336d73f82ade93373911",
    "headline": "756e27bd54cb64c7f0328ad283cc44164cdf44d5a619d6b70687f5f1b67e0431",
    "interleaved": "8ef08d239fb494c0b890c140dfce263da2ba0c52100fe3a2b65fda2a42f90245",
    "uneven": "f33df6ce03407707597b2f820b74f623ad4f9c77c1fa4b1665b15fb19166ea89",
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT))
def test_config_snapshot_pinned(case, tmp_path):
    path = None
    if case != "default":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(GOLDEN[case][0][0]), encoding="utf-8")
    snapshot = config_to_dict(*load_config(path))
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SNAPSHOT[case]


def _train(case, tmp_path):
    """Train a golden case into tmp_path/out; its manifest."""
    overrides, seed = GOLDEN[case][0]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(overrides), encoding="utf-8")
    config, params = load_config(str(cfg))
    return run_train(config, params, master_seed=seed, out_dir=str(tmp_path / "out"))


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifact_digests_pinned(case, tmp_path):
    manifest = _train(case, tmp_path)
    got = {name: _digest(tmp_path / "out" / name) for name in manifest.files}
    # the fading draws and the float arithmetic come from numpy
    assert got == GOLDEN[case][1], (
        f"the digests were pinned with numpy 2.4.6; this run used numpy {np.__version__}")


def test_plot_data_digests_pinned(tmp_path):
    _train("headline", tmp_path)
    out, plots = tmp_path / "out", tmp_path / "plots"
    outputs = emit_plot_data(str(out / "metrics.csv"), str(out / "trajectory.csv"),
                             str(plots), window=1)
    assert {os.path.basename(path): _digest(plots / os.path.basename(path))
            for path in outputs} == PLOT_DATA


# numpy's SIMD dispatch targets, lowest first, and those this host runs: at
# import numpy picks each float kernel for the highest target it may use
DISPATCH = list(_umath.__cpu_dispatch__)
HOST = [f for f in DISPATCH if _umath.__cpu_features__.get(f)]

# run in a child process: train every golden case and print, as JSON, the
# digests and whether each feature NPY_DISABLE_CPU_FEATURES names is off
CHILD = """
import json, os, pathlib, tempfile
import test_golden as g
off = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
digests = {}
for case in sorted(g.GOLDEN):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        digests[case] = {n: g._digest(out / "out" / n) for n in g._train(case, out).files}
print(json.dumps({"off": [not g._umath.__cpu_features__[f] for f in off],
                  "digests": digests}))
"""


@pytest.fixture(scope="module")
def below_target():
    """For each dispatch target this host runs, what a child process trains
    with that target and every higher one disabled; two children at a time."""
    path = os.pathsep.join([os.path.dirname(os.path.dirname(absim.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])

    def child(target):
        env = dict(os.environ, PYTHONPATH=path,
                   NPY_DISABLE_CPU_FEATURES=" ".join(HOST[HOST.index(target):]))
        proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(HOST, pool.map(child, HOST)))


@pytest.mark.parametrize("target", DISPATCH)
def test_digests_pinned_below_each_dispatch_target(target, below_target):
    # the goldens run natively above; here numpy's kernels one level lower
    # must write the same bytes, down to the baseline below the lowest target
    if target not in HOST:
        pytest.skip(f"this host does not run {target}: numpy's {target} kernels are "
                    "not covered")
    got = below_target[target]
    assert all(got["off"]), f"NPY_DISABLE_CPU_FEATURES left part of {target} and up on"
    assert got["digests"] == {case: pins for case, (_, pins) in GOLDEN.items()}, (
        f"the digests were pinned with numpy 2.4.6; this run used numpy {np.__version__}")
