"""The demo scripts run to completion against the current package.

tunneling_trace.py is left out: it propagates the full trace scenario and
takes over half a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["spin_anomaly.py", "pointer_variances.py",
                                    "detector_test.py", "barrier_delay.py"])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
