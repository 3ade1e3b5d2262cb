"""Package layout rules that no single module's tests can see."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weaktunnel

PACKAGE_DIR = Path(weaktunnel.__file__).parent


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "weaktunnel"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def scipy_modules_after(code: str, cwd: Path) -> set[str]:
    """The scipy modules a fresh interpreter holds after running code."""
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_and_leg_free_subcommands_load_no_scipy(tmp_path):
    runs = [["variance"], ["erased"], ["certain"], ["hartman"], ["scatter"],
            ["corpuscle-sim", "--n", "500"],
            ["corpuscle-test", "--n", "500", "--resamples", "100"]]
    code = "from weaktunnel.cli import main\n" + "".join(
        f"assert main({argv + ['--out', argv[0]]!r}) == 0\n" for argv in runs)
    assert scipy_modules_after(code, tmp_path) == set()


@pytest.mark.parametrize("scheme, loads, spares", [
    ("spectral-split-step", "scipy.fft", "scipy.linalg"),
    ("implicit-fd", "scipy.fft", "scipy.linalg"),
])
def test_a_leg_loads_only_its_own_schemes_scipy_module(tmp_path, scheme, loads, spares):
    code = (
        "from weaktunnel.core import Grid, gaussian_packet\n"
        "from weaktunnel.tdse import PropagatorConfig, propagate\n"
        "psi = gaussian_packet(Grid.from_domain(-64.0, 64.0, 256), 0.0, 4.0, 0.5)\n"
        f"propagate(psi, PropagatorConfig(dt=0.01, n_steps=2, scheme={scheme!r}))\n"
    )
    modules = scipy_modules_after(code, tmp_path)
    assert loads in modules
    assert not {m for m in modules if m == spares or m.startswith(spares + ".")}
