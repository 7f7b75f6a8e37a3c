"""Call counts and span timing at the bindings absim's own code calls.

``from .x import y`` copies a function into the importing module, so a
wrapper placed on the defining module would count nothing. Every patch
below therefore targets the consumer's binding (``absim.environment.solve``,
not ``absim.allocator.solve``). Spans nest: a span's self time is its
duration minus the time of the spans opened inside it, and time spent in
the tracer's own result hooks is charged to no span's self time.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np


class Span:
    """Totals for one traced name."""

    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Patches bindings on install(), puts the originals back on restore()."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self._child = [0.0]  # time of finished child spans, one slot per open span
        self._patches = []
        # result-hook tallies
        self.solve_iterations = 0
        self.solve_nonconverged = 0
        self.solve_max_slack_rel = 0.0
        self.solve_over_budget = 0
        self.station_rows_drawn = 0
        self.saved_bytes = 0

    def _wrap(self, name, fn, hook=None):
        span = self.spans[name]
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                span.calls += 1
                span.s += elapsed
                span.self_s += elapsed - inner
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                child[-1] += clock() - hook_start
            return result

        return traced

    def patch(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, absim):
        """Wrap every layer boundary named in BENCHMARK.json's per-layer metrics."""
        env, cli, ql = absim.environment, absim.simcli, absim.qlearning
        self.patch(env, "AllocationProblem", "allocator.problem")
        self.patch(env, "solve", "allocator.solve", self._on_solve)
        self.patch(env, "draw_realization", "channel.draw", self._on_draw)
        self.patch(env, "interference_for_abs", "channel.interference")
        self.patch(env, "path_loss_to_users", "channel.path_loss")
        self.patch(env, "select_action", "qlearning.select")
        self.patch(env, "update", "qlearning.update")
        self.patch(cli, "save_qtable", "qlearning.save", self._on_save)
        self.patch(ql, "load_qtable", "qlearning.load")
        for fn in ("apply_action", "state_index", "cell_center", "dist_to_final",
                   "pairwise_dist"):
            self.patch(env, fn, "geometry")
        self.patch(env.Environment, "step_all", "environment.step_all")
        self.patch(env, "run_episode", "environment.run_episode")
        self.patch(env, "extract_trajectory", "environment.extract_trajectory")
        self.patch(cli, "extract_trajectory", "environment.extract_trajectory")
        self.patch(env, "derive_stream", "rng.derive_stream")
        self.patch(cli, "derive_stream", "rng.derive_stream")
        self.patch(cli, "load_config", "simcli.load_config")
        self.patch(cli, "run_train", "simcli.run_train")
        self.patch(cli, "train", "simcli.train")
        self.patch(cli, "write_metrics", "simcli.write_metrics")
        self.patch(cli, "write_trajectory", "simcli.write_trajectory")

    def _on_solve(self, args, result):
        problem = args[0]
        self.solve_iterations += result.iterations
        self.solve_nonconverged += not result.converged
        self.solve_max_slack_rel = max(self.solve_max_slack_rel,
                                       abs(result.budget_slack) / problem.p_max)
        if not float(np.sum(result.powers)) <= problem.p_max * (1.0 + 1e-6):
            self.solve_over_budget += 1

    def _on_draw(self, args, result):
        self.station_rows_drawn += result.gains.shape[0]

    def _on_save(self, args, result):
        self.saved_bytes += os.path.getsize(args[1])
