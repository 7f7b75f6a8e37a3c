"""Guard for the benchmark contract: bench/selftest.py must pass on this tree.

bench/tracing.py wraps names that absim.environment imports, and bench/run.py
checks call counts against the step loop's structure. The self-test runs one
short episode per workload through both, so a renamed binding or a changed
call pattern fails here instead of only in a full benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
