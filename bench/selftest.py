"""Quick self-test of the benchmark: one short episode per workload.

Run from the root of a checkout::

    python3 bench/selftest.py

For every workload run.py defines and both trace modes it checks that
the run is correct and reports exactly the metrics BENCHMARK.json names,
each finite and tagged with the unit BENCHMARK.json gives it. Prints every
mismatch and exits 1 if there is any. Takes a few seconds.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = [f"BENCHMARK.json names unknown workload {w['name']!r}"
                for w in spec["workloads"] if w["name"] not in run.WORKLOADS]
    for workload in run.WORKLOADS:
        for trace, units in expected.items():
            result, _ = run.measure(workload, seed=0, seconds=0, trace=bool(trace),
                                    quick=True)
            json.dumps(result)  # the result line must serialise
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            metrics = result["metrics"]
            for name in sorted(set(units) ^ set(metrics)):
                problems.append(f"{where}: {name} is "
                                + ("missing" if name in units else "not in BENCHMARK.json"))
            for name, metric in metrics.items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r} is not finite")
                if name in units and metric["unit"] != units[name]:
                    problems.append(f"{where}: {name} has unit {metric['unit']!r}, "
                                    f"BENCHMARK.json says {units[name]!r}")
            print(f"{where}: {len(metrics)} metrics, {result['attempted']} checks",
                  flush=True)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
