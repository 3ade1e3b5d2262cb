"""Package layout rules that no single module's tests can see."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weaktunnel

PACKAGE_DIR = Path(weaktunnel.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_each_public_name_is_defined_in_its_module():
    """A module's __all__ is the one declaration of its public surface: it
    lists names the module defines, none that it imports."""
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined, public = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    public = ast.literal_eval(node.value)
        offenders += [f"{path.name}: {name}" for name in public if name not in defined]
    assert offenders == []


def test_package_root_binds_no_public_name_but_its_modules():
    # a submodule binds its own name; a function, class or constant does not
    stray = [name for name, value in vars(weaktunnel).items()
             if not name.startswith("_")
             and getattr(value, "__name__", None) != f"weaktunnel.{name}"]
    assert stray == []


def run_fresh(code: str, cwd: Path) -> str:
    """What a fresh interpreter prints running code with the package on its path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    assert run_fresh(blocks[0], tmp_path).startswith("0.7071")


def scipy_modules_after(code: str, cwd: Path) -> set[str]:
    """The scipy modules a fresh interpreter holds after running code."""
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n")
    return set(json.loads(run_fresh(probe, cwd).splitlines()[-1]))


def test_import_and_leg_free_subcommands_load_no_scipy(tmp_path):
    runs = [["variance"], ["erased"], ["certain"], ["hartman"], ["scatter"],
            ["corpuscle-sim", "--n", "500"],
            ["corpuscle-test", "--n", "500", "--resamples", "100"]]
    code = "from weaktunnel.cli import main\n" + "".join(
        f"assert main({argv + ['--out', argv[0]]!r}) == 0\n" for argv in runs)
    assert scipy_modules_after(code, tmp_path) == set()


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_a_leg_of_either_scheme_loads_fft_not_linalg(tmp_path, scheme):
    code = (
        "from weaktunnel.core import Grid, gaussian_packet\n"
        "from weaktunnel.tdse import PropagatorConfig, propagate\n"
        "psi = gaussian_packet(Grid.from_domain(-64.0, 64.0, 256), 0.0, 4.0, 0.5)\n"
        f"propagate(psi, PropagatorConfig(dt=0.01, record_steps=(2,), scheme={scheme!r}))\n"
    )
    modules = scipy_modules_after(code, tmp_path)
    assert "scipy.fft" in modules
    assert not {m for m in modules if m == "scipy.linalg" or m.startswith("scipy.linalg.")}
