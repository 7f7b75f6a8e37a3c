"""Pinned artifact digests: refactors must reproduce these bytes exactly.

Each case trains from a fixed config and seed through ``run_train`` and
compares the SHA-256 of every deterministic artifact with the value the
simulator produced when the pin was taken. A digest change means the
simulated behaviour changed; that is a deliberate, documented decision,
never a side effect of a speed-up or a cleanup.
"""

import hashlib
import json

import pytest

from absim.simcli import load_config, run_train

# the default two-station scenario, cut to two episodes
HEADLINE = ({"learning": {"max_episodes": 2}}, 0)

# four stations, a ground transmitter and 16 sub-channels: exercises the
# J > 2 interference sums and the per-step ground-station path loss
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
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifact_digests_pinned(case, tmp_path):
    (overrides, seed), expected = GOLDEN[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(overrides), encoding="utf-8")
    config, params = load_config(str(cfg))
    out = tmp_path / "out"
    manifest = run_train(config, params, master_seed=seed, out_dir=str(out))
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in manifest.files}
    assert got == expected
