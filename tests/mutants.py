"""Hand-written mutants of src/ and the tests that must kill each one.

Run from anywhere in a checkout::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # the named ones

Each mutant replaces one exact snippet of one file under src/absim/. The
runner copies src/ to a temporary directory, applies one mutant there, and
runs that mutant's tests with PYTHONPATH set to the copy (and pytest's own
pythonpath option emptied, so the checkout's src/ is not imported), under
the hypothesis profile absim-mutants of tests/conftest.py, which does not
shrink a failing example. The mutant is killed when a test fails and
survives when they all pass. Its tests are stopped after TIMEOUT seconds
(a mutant that makes the code loop forever, say), which is reported as
"timed out after N s" and counts as not killed. A full run takes two to
three minutes on 2 vCPUs. The exit status is 1 if any mutant survives,
times out or cannot be run: its snippet does not occur exactly once, or
pytest ends for another reason than a failed test (a named test that does
not exist, say).

pytest does not collect this file. tests/test_mutants.py checks in tier-1
that every snippet occurs exactly once, so a refactor that moves a snippet
updates its mutant here instead of dropping it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 120  # seconds for one mutant's tests; the slowest took under 10 s on 2 vCPUs


class Mutant(NamedTuple):
    name: str
    path: str  # under src/absim/
    old: str  # occurs exactly once in that file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


ENV = "tests/test_environment.py::"
CLI = "tests/test_simcli.py::"
QL = "tests/test_qlearning.py::"
STORE = QL + "TestTableStore::"
PERSIST = QL + "TestPersistence::"
FORGED = CLI + "TestCli::test_forged_checkpoint_exits_2"
REFERENCE_TRAIN = ENV + "TestMatchesReference::test_train_matches_reference_train"
REFERENCE_STEP = ENV + "TestMatchesReference::test_step_all_matches_reference_step"
ALLOC = "tests/test_allocator.py::"
CHANNEL = "tests/test_channel.py::"
GEOMETRY = "tests/test_geometry.py::"
DRAWS = "tests/test_rng.py::TestDraws::test_matches_generator_value_for_value"
OVERFLOW_CLI = CLI + "TestCli::test_overflowing_config_exits_2"
OVERFLOW_ENV = ENV + "TestTrain::test_overflowing_config_raises_before_building"

MUTANTS = (
    # the episode loop against reference_train (tests/environment_reference.py)
    Mutant("skipped_update", "environment.py",
           "            update(qtables[j], tr, params)\n",
           "            if not env.parked[j]:  # no update on the arriving transition\n"
           "                update(qtables[j], tr, params)\n",
           (REFERENCE_TRAIN,)),
    Mutant("actions_last_station_first", "environment.py",
           "                   for j in agents if not parked[j]}\n",
           "                   for j in reversed(agents) if not parked[j]}\n",
           (REFERENCE_TRAIN,)),
    Mutant("ground_drawn_first", "channel.py",
           "    station_gains = gains(path_loss)  # drawn before the ground row\n"
           "    return ChannelRealization(station_gains,\n"
           "                              None if gbs_path_loss is None else "
           "gains(gbs_path_loss))\n",
           "    ground_gains = None if gbs_path_loss is None else gains(gbs_path_loss)\n"
           "    return ChannelRealization(gains(path_loss), ground_gains)\n",
           (REFERENCE_TRAIN,)),
    Mutant("collision_flag_overwritten", "environment.py",
           "            if near[j]:\n"
           "                close = True\n",
           "            close = near[j]  # only the last acting station's flag\n",
           (REFERENCE_TRAIN,)),
    Mutant("reward_sum_missing_arrival", "environment.py",
           "            cum_reward[j] += tr[2]  # its reward\n",
           "            cum_reward[j] += 0.0 if parked[j] else tr[2]\n",
           (REFERENCE_TRAIN,)),
    Mutant("parked_station_learns", "environment.py",
           "        close = False\n",
           "        close = False\n"
           "        last = getattr(env, 'last', {})  # replay each parked station's last move\n"
           "        for j, tr in last.items():\n"
           "            if j not in actions:\n"
           "                update(qtables[j], tr, params)\n"
           "        env.last = {**last, **dict(zip(actions, transitions))}\n",
           (REFERENCE_TRAIN,)),
    Mutant("epsilon_decayed_early", "environment.py",
           "    eps = params.epsilon\n",
           "    eps = params.epsilon * params.epsilon_decay\n",
           (REFERENCE_TRAIN,)),
    Mutant("step_cap_one_short", "environment.py",
           "    max_steps = _STEPS_PER_CELL * cfg.area.n_states if max_steps is None "
           "else max_steps\n",
           "    max_steps = _STEPS_PER_CELL * cfg.area.n_states - 1 if max_steps is None "
           "else max_steps\n",
           (REFERENCE_TRAIN,)),
    # slips that plain (state, action, reward, next_state) tuples invite
    Mutant("reward_tally_reads_next_state", "environment.py",
           "            cum_reward[j] += tr[2]  # its reward\n",
           "            cum_reward[j] += tr[3]  # the next state's slot\n",
           (REFERENCE_TRAIN,)),
    Mutant("transition_unpacked_out_of_order", "qlearning.py",
           "    s, a, reward, next_state = t\n",
           "    s, a, next_state, reward = t\n",
           (QL + "TestUpdate::test_hand_computed_target",
            QL + "TestMatchesNumpyReference::test_update_bit_equal")),
    # slips that step_all's J-long rates and near lists invite beside the
    # acting stations' transitions
    Mutant("rate_tallied_from_acting_position", "environment.py",
           "        for j, tr in zip(actions, transitions):\n"
           "            update(qtables[j], tr, params)\n"
           "            f1_sum[j] += rates[j]\n",
           "        for i, (j, tr) in enumerate(zip(actions, transitions)):\n"
           "            update(qtables[j], tr, params)\n"
           "            f1_sum[j] += rates[i]  # the i-th acting station's slot\n",
           (REFERENCE_TRAIN,)),
    Mutant("collision_counted_among_parked", "environment.py",
           "        collisions += close  # a joint step counts once, however many stations "
           "are near\n",
           "        collisions += any(near)  # two parked stations' flags count too\n",
           (REFERENCE_TRAIN,)),
    # input checks and tallies that were once wrong
    Mutant("collision_count_per_station", "environment.py",
           "            if near[j]:\n"
           "                close = True\n"
           "        collisions += close  # a joint step counts once, however many stations "
           "are near\n",
           "            if near[j]:\n"
           "                collisions += 1\n",
           (ENV + "TestRunEpisode::test_meeting_stations_count_one_collision_step",
            REFERENCE_TRAIN)),
    Mutant("negative_move_key", "environment.py",
           "            if not 0 <= j < j_count:",
           "            if j >= j_count:",
           (ENV + "TestMove::test_bad_action_moves_nobody",)),
    Mutant("fading_unchecked", "environment.py",
           "        if self.fading not in FADING_MODES:\n",
           "        if False:  # any fading string passes\n",
           (ENV + "TestConfigValidation::test_unknown_fading_rejected",)),
    Mutant("hand_copied_free_space_loss", "environment.py",
           "            loss = free_space_path_loss(distance, prop, excess) if distance "
           "else 0.0\n",
           "            ratio = 4.0 * math.pi * prop.carrier_freq / prop.speed_of_light "
           "* distance\n"
           "            loss = ratio * ratio * excess if distance else 0.0\n",
           (ENV + "TestTrain::test_overflowing_config_raises_before_building",
            CLI + "TestCli::test_overflowing_config_exits_2")),
    # the learner's draws, Draws against a twin Generator
    Mutant("draw_high_half_unbuffered", "rng.py",
           "        self._next_uint32 = functools.partial(c.next_uint32, c.state)\n",
           "        self._next_uint32 = lambda: c.next_uint64(c.state) >> 32  # no half kept\n",
           (DRAWS,)),
    Mutant("draws_on_a_copy", "rng.py",
           "        self._bitgen = rng.bit_generator  # alive while its state's address is used\n",
           "        self._bitgen = __import__(\"copy\").deepcopy(rng.bit_generator)  # rng not "
           "advanced\n",
           (DRAWS,)),
    Mutant("one_value_range_draws", "rng.py",
           "        if n == 1:\n"
           "            return 0\n",
           "",
           (DRAWS,)),
    Mutant("no_rejection", "rng.py",
           "            if low >= n or low >= 0x100000000 % n:\n",
           "            if True:  # every half accepted\n",
           (DRAWS,)),
    Mutant("random_from_the_whole_word", "rng.py",
           "        self.random = functools.partial(c.next_double, c.state)\n",
           "        self.random = lambda: c.next_uint64(c.state) * 2.0 ** -64\n",
           (DRAWS,)),
    # the learner's table: list rows over one base array
    Mutant("state_range_unchecked", "qlearning.py",
           "            if not 0 <= s < n_states:\n",
           "            if False:  # any state passes\n",
           (STORE + "test_select_action_state_outside_table",
            STORE + "test_update_state_outside_table")),
    Mutant("values_writable", "qlearning.py",
           "    table.flags.writeable = False\n",
           "",
           (STORE + "test_snapshots_read_only",)),
    Mutant("visit_bumped_before_alpha", "qlearning.py",
           "    visits = count[a]\n"
           "    if params.alpha_schedule == \"visit_count\":\n"
           "        alpha = 1.0 / (1.0 + visits)\n",
           "    count[a] += 1  # bumped before alpha reads it\n"
           "    visits = count[a] - 1\n"
           "    if params.alpha_schedule == \"visit_count\":\n"
           "        alpha = 1.0 / (1.0 + count[a])\n",
           (QL + "TestUpdate::test_visit_count_schedule",
            QL + "TestMatchesNumpyReference::test_update_bit_equal")),
    Mutant("action_range_unchecked", "qlearning.py",
           "    if not 0 <= a < q.n_actions:  # a negative action would alias another entry\n",
           "    if False:  # any action passes\n",
           (STORE + "test_update_action_outside_table",)),
    # Q-table checkpoints: load reads back what save writes, and what a forged
    # manifest could vouch for still meets the whole-array checks
    Mutant("loaded_into_rows", "qlearning.py",
           "    q.base[:] = values\n",
           "    for s, row in enumerate(values.tolist()):  # into row lists, not base\n"
           "        q.rows[s][:] = row\n",
           (STORE + "test_fresh_and_loaded_tables_hold_no_rows",)),
    Mutant("terminal_row_unchecked", "qlearning.py",
           "        if not np.isfinite(values).all() or values[terminal].any():\n",
           "        if not np.isfinite(values).all():\n",
           (PERSIST + "test_malformed_rows_rejected", FORGED)),
    Mutant("nonfinite_loaded", "qlearning.py",
           "        if not np.isfinite(values).all() or values[terminal].any():\n",
           "        if values[terminal].any():\n",
           (PERSIST + "test_malformed_rows_rejected", FORGED)),
    # the allocator, channel and grid that a batched allocation would replace.
    # Two mutants of allocator._waterfill_level are equivalent and not listed:
    # candidate > floor as >= (a floor equal to the level gets zero power
    # either way) and the start level = p_max (the loop's first pass always
    # overwrites it)
    Mutant("power_clip_removed", "allocator.py",
           "    np.maximum(powers, 0.0, out=powers)\n",
           "",
           (ALLOC + "TestClosedFormProperties::test_budget_holds",
            ALLOC + "TestClosedFormProperties::test_powers_are_waterfill_at_multiplier")),
    Mutant("snr_over_noise_alone", "allocator.py",
           "    snr /= noise.ravel()[won]\n",
           "    snr /= problem.noise_power  # the interference left out\n",
           (ALLOC + "TestClosedFormProperties::test_rate_is_sum_rate",
            ALLOC + "TestClosedFormProperties::test_matches_subgradient_reference")),
    Mutant("los_a_for_b", "channel.py",
           "x = -params.b * (np.asarray(theta_deg, dtype=float) - params.a)",
           "x = -params.a * (np.asarray(theta_deg, dtype=float) - params.a)",
           (CHANNEL + "TestLosProbability::test_at_horizon",
            CHANNEL + "TestLosProbability::test_overflowing_exp_gives_the_limit")),
    Mutant("los_exp_overflow_raises", "channel.py",
           "    except OverflowError:\n"
           "        return math.inf\n",
           "    except ZeroDivisionError:  # an overflow raises\n"
           "        return math.inf\n",
           (CHANNEL + "TestLosProbability::test_overflowing_exp_gives_the_limit",)),
    Mutant("los_exp_from_numpy", "channel.py",
           "        e = np.array([_exp(v) for v in x.ravel().tolist()]).reshape(x.shape)\n",
           "        e = np.exp(x)\n",
           (CHANNEL + "TestLosProbability::test_exp_from_libm",
            "tests/test_golden.py::test_artifact_digests_pinned")),
    Mutant("right_edge_wraps", "geometry.py",
           "        return s + 1 if s % m < m - 1 else s\n",
           "        return s + 1 if s + 1 < m * m else s  # onto the next row's first cell\n",
           (GEOMETRY + "TestApplyAction::test_boundary_absorbed",
            GEOMETRY + "TestIndexGeometryProperties::"
            "test_moves_one_cell_or_absorb_at_matching_edge")),
    Mutant("ground_power_twice", "environment.py",
           "ground = gbs.power_per_subchannel * ground.take(order, axis=0)\n",
           "ground = gbs.power_per_subchannel * gbs.power_per_subchannel * "
           "ground.take(order, axis=0)\n",
           (REFERENCE_STEP,)),
    Mutant("own_power_not_subtracted", "environment.py",
           "    np.subtract(field_rows, table, out=table)\n",
           "    table[...] = field_rows  # the station's own term kept\n",
           (CHANNEL + "TestInterference::test_table_matches_scalar",
            CHANNEL + "TestInterference::test_per_station_path_matches_whole_table")),
    Mutant("interference_clip_removed", "environment.py",
           "    np.maximum(table, 0.0, out=table)\n",
           "",
           (CHANNEL + "TestInterference::test_field_one_ulp_below_own_term_reads_zero",)),
    Mutant("prev_powers_never_stored", "environment.py",
           "            self._prev_powers = new_powers\n",
           "",
           (ENV + "TestStepAll::test_parked_station_stops_transmitting", REFERENCE_STEP)),
    # draw_realization's gain check, which AllocationProblem relies on: NaN
    # passes (every comparison with NaN is false), or a zero gain passes
    Mutant("nan_gains_pass", "channel.py",
           "        if not (_amin(g, axis=None) > 0.0 and _amax(g, axis=None) < math.inf):\n",
           "        if _amin(g, axis=None) <= 0.0 or _amax(g, axis=None) == math.inf:\n",
           (CHANNEL + "TestDrawRealization::test_bad_gain_rejected",)),
    Mutant("zero_gain_passes", "channel.py",
           "        if not (_amin(g, axis=None) > 0.0 and _amax(g, axis=None) < math.inf):\n",
           "        if not (_amin(g, axis=None) >= 0.0 and _amax(g, axis=None) < math.inf):\n",
           (CHANNEL + "TestDrawRealization::test_zero_fading_draw_rejected",)),
    # AllocationProblem's input checks: each check weakened, the scalar ones
    # to the form that NaN passes
    Mutant("gains_shape_allows_empty", "allocator.py",
           "        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:\n",
           "        if g.ndim != 2:  # a (0, N) or (K, 0) matrix passes\n",
           (ALLOC + "TestProblemValidation::test_empty_gains_rejected",)),
    Mutant("interference_shape_by_size", "allocator.py",
           "        if i.shape != g.shape:\n",
           "        if i.size != g.size:  # a transposed table passes\n",
           (ALLOC + "TestProblemValidation::test_shape_mismatch_rejected",)),
    Mutant("nan_noise_power_passes", "allocator.py",
           "        if not self.noise_power > 0:\n",
           "        if self.noise_power <= 0:\n",
           (ALLOC + "TestProblemValidation::test_non_finite_rejected",)),
    Mutant("nan_allocation_budget_passes", "allocator.py",
           "        if not self.p_max > 0:\n",
           "        if self.p_max <= 0:\n",
           (ALLOC + "TestProblemValidation::test_non_finite_rejected",)),
    # ScenarioConfig's checks, which NaN once passed
    Mutant("nan_p_max_passes", "environment.py",
           "        if not self.p_max > 0:  # NaN too, as for d_min\n",
           "        if self.p_max <= 0:\n",
           (ENV + "TestConfigValidation::test_p_max_must_be_positive",)),
    Mutant("nan_weight_passes", "environment.py",
           "        if not (self.beta1 >= 0 and self.beta2 >= 0 and self.beta3 >= 0):\n",
           "        if self.beta1 < 0 or self.beta2 < 0 or self.beta3 < 0:\n",
           (ENV + "TestConfigValidation::test_nan_weight_rejected",)),
    # each bound of overflow_errors left out; each is named by a config of
    # test_overflowing_config_exits_2 (hand_copied_free_space_loss above
    # covers the loss each gain bound is built from)
    Mutant("gain_span_unchecked", "environment.py",
           "        if not (gains[0] > 0.0 and gains[1] < math.inf):\n",
           "        if False:  # any gain span passes\n",
           (OVERFLOW_CLI, OVERFLOW_ENV)),
    Mutant("diagonal_unchecked", "environment.py",
           "    if diagonal == math.inf:",
           "    if False:",
           (OVERFLOW_CLI,)),
    Mutant("interference_bound_dropped", "environment.py",
           "    checks = {\"interference of one step\": interference,\n"
           "              \"the water level",
           "    checks = {\"the water level",
           (OVERFLOW_CLI,)),
    Mutant("water_level_bound_dropped", "environment.py",
           "              \"the water level of one step\": config.p_max + "
           "config.n_subchannels * floor,\n",
           "",
           (OVERFLOW_CLI,)),
    Mutant("snr_bound_dropped", "environment.py",
           ",\n              \"the SNR of one step\": snr}",
           "}",
           (OVERFLOW_CLI,)),
    Mutant("reward_bound_dropped", "environment.py",
           "        if reward < math.inf:\n",
           "        if True:  # an infinite reward reported as the bounds it makes\n",
           (OVERFLOW_CLI, OVERFLOW_ENV)),
    Mutant("table_value_bound_dropped", "environment.py",
           "checks = {\"twice a table value\": twice, \"an episode's reward sum\": "
           "reward * cap}",
           "checks = {\"an episode's reward sum\": reward * cap}",
           (OVERFLOW_CLI,)),
    Mutant("episode_sum_bound_dropped", "environment.py",
           "checks = {\"twice a table value\": twice, \"an episode's reward sum\": "
           "reward * cap}",
           "checks = {\"twice a table value\": twice}",
           (OVERFLOW_CLI, OVERFLOW_ENV)),
    # the greedy rollout and the episode's stats
    Mutant("greedy_action_last_tie", "qlearning.py",
           "    return row.index(max(row))\n",
           "    return max(range(len(row)), key=lambda a: (row[a], a))  # the last tie\n",
           (QL + "TestGreedyAction::test_all_equal_ties_to_first_action",
            QL + "TestGreedyAction::test_argmax")),
    Mutant("rollout_reads_snapshot", "environment.py",
           "        actions = {j: greedy_action(qtables[j], env.states[j]) for j in active}\n",
           "        actions = {j: int(qtables[j].values[env.states[j]].argmax())\n"
           "                   for j in active}\n",
           (ENV + "TestExtractTrajectory::test_rollout_reads_only_the_rows_it_visits",)),
    Mutant("mean_sum_rate_python_sum", "environment.py",
           "        return float(np.mean(self.avg_sum_rate))\n",
           "        return sum(self.avg_sum_rate) / len(self.avg_sum_rate)\n",
           (ENV + "TestTrain::test_mean_sum_rate_is_numpy_mean",)),
    # the command line's exit path and checked reads
    Mutant("os_error_exits_2", "simcli.py",
           "        return EXIT_IO\n",
           "        return EXIT_VALIDATION\n",
           (CLI + "TestCli::test_io_failure_exits_3",
            CLI + "TestCli::test_missing_config_is_io_error")),
    Mutant("rollout_skips_manifest", "simcli.py",
           "        _match_digests(args.qtable_dir, manifest, names)\n",
           "        pass\n",
           (CLI + "TestCli::test_rollout_checkpoint_digest_mismatch",)),
    Mutant("digests_after_load", "simcli.py",
           "        _match_digests(args.qtable_dir, manifest, names)\n"
           "        qtables = [load_qtable(os.path.join(args.qtable_dir, name)) for name in names]\n",
           "        qtables = [load_qtable(os.path.join(args.qtable_dir, name)) for name in names]\n"
           "        _match_digests(args.qtable_dir, manifest, names)\n",
           (CLI + "TestCli::test_rollout_compares_digests_before_parsing",)),
    Mutant("manifest_keys_unchecked", "simcli.py",
           "            manifest = json.load(fh, object_pairs_hook=_unique_keys)\n",
           "            manifest = json.load(fh)  # a repeated key keeps its last value\n",
           (CLI + "TestPlotData::test_broken_manifest_named_by_path",
            CLI + "TestCli::test_rollout_of_a_bad_manifest_config_exits_2")),
    Mutant("rollout_default_scenario", "simcli.py",
           '        config, _ = _build_config(manifest["config"])',
           "        config, _ = load_config(None)",
           (CLI + "TestCli::test_rollout_reads_its_scenario_from_the_manifest",)),
    Mutant("train_warning_dropped", "simcli.py",
           "    for phrase in _failed_diagnostics(manifest.rollout):\n",
           "    for phrase in []:  # a failed rollout goes unreported\n",
           (CLI + "TestCli::test_train_warns_when_rollout_misses_a_final_cell",)),
    Mutant("train_warning_skips_separation", "simcli.py",
           "    for phrase in _failed_diagnostics(manifest.rollout):\n",
           '    for phrase in _failed_diagnostics({**manifest.rollout, "violation_steps": []}):\n',
           (CLI + "TestCli::test_train_warns_of_stations_closer_than_d_min",)),
    # run_train's stage and the order of its renames
    Mutant("manifest_renamed_first", "simcli.py",
           'for name in [*names, "manifest.json"]:',
           'for name in ["manifest.json", *names]:',
           (CLI + "TestRunTrain::test_rename_failing_midway_leaves_no_manifest",)),
    Mutant("old_manifest_kept", "simcli.py",
           "            os.remove(old_manifest)\n",
           "            pass\n",
           (CLI + "TestRunTrain::test_rename_failing_midway_leaves_no_manifest",)),
    Mutant("stage_shared", "simcli.py",
           "    with tempfile.TemporaryDirectory(prefix=STAGE_PREFIX, dir=out_dir) as stage:\n",
           # one fixed stage name, still removed on every exit path
           '    stage = os.path.join(out_dir, STAGE_PREFIX + "run")\n'
           "    os.makedirs(stage, exist_ok=True)\n"
           '    with __import__("contextlib").ExitStack() as stack:\n'
           '        stack.callback(__import__("shutil").rmtree, stage, ignore_errors=True)\n',
           (CLI + "TestRunTrain::test_run_started_inside_another_into_one_directory",)),
    Mutant("plot_data_skips_manifest", "simcli.py",
           "        _check_manifest(directory, [name])\n",
           "        pass  # no input is checked against its manifest\n",
           (CLI + "TestPlotData::test_input_unlike_its_manifest_rejected",)),
    Mutant("plot_data_short_row_escapes", "simcli.py",
           "    except (ValueError, IndexError) as exc:",
           "    except ValueError as exc:",
           (CLI + "TestPlotData::test_forged_manifest_input_exits_2",)),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Apply mutant to the absim package under src; ValueError unless its
    snippet occurs exactly once."""
    target = src / "absim" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its snippet occurs {text.count(mutant.old)} "
                         f"times in src/absim/{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant, timeout: float = TIMEOUT) -> str:
    """'killed', 'survived', 'timed out after N s' (pytest killed after timeout
    seconds), or the reason the mutant could not be run."""
    with tempfile.TemporaryDirectory(prefix="absim-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(mutant, src)
        except ValueError as exc:
            return str(exc)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-o", "pythonpath=", "--hypothesis-profile=absim-mutants", *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return f"timed out after {timeout} s"
    if proc.returncode == 1:  # pytest: some test failed
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"


def main(names) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = {}
    for mutant in [known[name] for name in names] or MUTANTS:
        outcomes[mutant.name] = run(mutant)
        print(f"{mutant.name}: {outcomes[mutant.name]}", flush=True)
    killed = sum(outcome == "killed" for outcome in outcomes.values())
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
