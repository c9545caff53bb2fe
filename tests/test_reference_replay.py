"""Byte identity against the benchmark's stored reference outputs.

``perfbench/reference/<workload>.json`` holds, per op kind, the config text,
the argv and the output (or, for ``mc-run``, its sha256) that the CLI wrote
at the default benchmark seed.  Replaying the first op of every kind through
``cli.main`` with the benchmark's own argv must reproduce those bytes, and
every function the benchmark's tracer wraps must still exist by name.
This file only reads ``perfbench/``.
"""

import ast
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from optomagnon.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("ref-exact", "lossy-c4", "counting")


def _first_ops():
    for workload in WORKLOADS:
        ops = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["ops"]
        for kind, entries in ops.items():
            yield pytest.param(entries[0], id=f"{workload}-{kind}")


@pytest.mark.parametrize("op", _first_ops())
def test_first_stored_op_of_every_kind_is_byte_identical(tmp_path, op):
    config, out = tmp_path / "op.cfg", tmp_path / "op.out"
    config.write_text(op["config"])
    argv = [op["args"][0], "--config", str(config), *op["args"][1:],
            "--out", str(out), "--workers", "1"]
    assert main(argv) == EXIT_OK
    text = out.read_text()
    if "sha256" in op:
        assert hashlib.sha256(text.encode()).hexdigest() == op["sha256"]
    else:
        assert text == op["output"]


def test_every_traced_name_resolves():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    for layer, names in ast.literal_eval(targets).items():
        module = importlib.import_module(f"optomagnon.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"optomagnon.{layer}.{name}"
