"""The benchmark's own check: exact counts repeat and no operation fails.

Runs every workload's traced run twice, one pass each, and asserts that the
two sets agree exactly on every count (root counts, working precision,
residual exponents, trace points, K cells, discriminant degree, bytes
written).  Takes one to three minutes:

    python3 -m pytest perfbench/test_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
TIME_UNITS = {"s", "ms"}


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["ladder", "geometry", "pipeline"])
def test_counts_repeat_exactly(workload):
    first = traced_run(workload, seed=1)
    second = traced_run(workload, seed=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = {name for name, m in first["metrics"].items() if m["unit"] not in TIME_UNITS}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
