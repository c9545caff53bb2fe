"""Checks on the source tree and the README rather than on the physics."""

import ast
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import optomagnon
from optomagnon.cli import main

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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants of the modules that no expression
    in any of the modules reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [f"{module}: {name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [entry for entry in defined if entry.split(": ")[1] not in read]


def test_dead_private_name_check_sees_a_dead_name():
    sources = {"a": "_X = 1\n_Y = 2\ndef _f():\n    return _Y\nclass _C:\n    pass\n",
               "b": "from a import _f\nimport a\nz = _f() + a._X\n"}
    assert _dead_private_names(sources) == ["a: _C"]


def test_no_dead_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "optomagnon").glob("*.py")}
    assert _dead_private_names(sources) == []


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_quick_start(), "README.md", "exec"), {})
    assert float(printed.getvalue().splitlines()[-1]) < 1.0  # the quick start's "< 1: entangled"


def test_the_package_namespace_is_the_quick_start():
    # every other name is imported from its module, so it has one import path
    imported = {alias.name for node in ast.walk(ast.parse(_quick_start()))
                if isinstance(node, ast.ImportFrom) and node.module == "optomagnon" for alias in node.names}
    public = {name for name, value in vars(optomagnon).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported


def _readme_examples() -> list:
    """The README's "Examples:" command lines as ``cli.main`` arguments, each with its documented
    exit code: 0 unless the line ends ``# exits N``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```bash\n(.*?)```", readme, re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        command, _, note = line.partition("#")
        marked = re.match(r"\s*exits (\d+)", note)
        argv = shlex.split(command)[1:]
        examples.append(pytest.param(argv, int(marked.group(1)) if marked else 0, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, code", _readme_examples())
def test_each_readme_example_exits_as_documented(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)  # where the examples' --out files go
    assert main(argv) == code


@pytest.mark.parametrize("module, cls", [("protocol.py", "ProtocolConfig"), ("channels.py", "DetectorSpec")])
def test_every_config_check_names_the_fields_it_read(module, cls):
    # the CLI names the offending config key from these fields alone
    tree = ast.parse((ROOT / "src" / "optomagnon" / module).read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
    (check,) = [node for node in body.body if isinstance(node, ast.FunctionDef)
                and node.name == "__post_init__"]
    raises = [node for node in ast.walk(check) if isinstance(node, ast.Raise)]
    assert raises
    assert [node.lineno for node in raises
            if not any(keyword.arg == "fields" for keyword in node.exc.keywords)] == []


def test_importing_the_cli_loads_no_scipy_constants():
    # h and k are written out as their exact SI values; the scipy.constants import costs ~10 ms
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", "import sys, optomagnon.cli; print(sorted(sys.modules))"],
                            env=env, capture_output=True, text=True, check=True).stdout
    assert "'optomagnon.cli'" in loaded
    assert "'scipy.constants'" not in loaded
