"""The demo scripts run to completion against the current package.

tunneling_trace.py is only loaded, not run: it propagates the full trace
scenario and takes about a minute, but loading it still checks that every
package name it imports exists.
"""

import importlib.util
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


def test_tunneling_trace_demo_imports():
    path = ROOT / "demos" / "tunneling_trace.py"
    spec = importlib.util.spec_from_file_location("tunneling_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
