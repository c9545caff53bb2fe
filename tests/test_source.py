"""Checks on the source tree and the README rather than on the physics."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "optomagnon").glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_check_sees_an_unused_import():
    assert _unused_imports("import dataclasses\nimport math\nx = math.pi\n") == ["line 1: dataclasses"]
    assert _unused_imports("from a.b import c as d, e\nd(e)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    assert float(printed.getvalue().splitlines()[-1]) < 1.0  # the quick start's "< 1: entangled"
