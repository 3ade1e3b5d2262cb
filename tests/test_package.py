"""Package layout rules that no single module's tests can see."""

import ast
from pathlib import Path

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
