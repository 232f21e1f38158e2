"""The benchmark's self-check, run against the current sources.

`perfbench/tracing.py` wraps cossu functions by module and attribute name,
so moving or renaming one of them breaks the traced benchmark; the
self-check runs every workload traced at a tiny size and catches that.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_benchmark_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
