"""Byte identity against the benchmark's stored reference outputs.

``perfbench/reference/<workload>.json`` holds, per op kind, the config text,
the argv and the output (or, for ``mc-run``, its sha256) that the CLI wrote
at the default benchmark seed.  Replaying every stored op through
``cli.main`` with the benchmark's own argv must reproduce those bytes, a
replayed op must lift each stage operator once (no block lifted twice) and
build no full-space ``ModeOperator``, and every function the benchmark's
tracer wraps must still exist by name.
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


# (workload-kind, index, op) for every stored op
STORED_OPS = [
    (f"{workload}-{kind}", index, op)
    for workload in WORKLOADS
    for kind, entries in json.loads(
        (PERFBENCH / "reference" / f"{workload}.json").read_text())["ops"].items()
    for index, op in enumerate(entries)
]


def _replay(tmp_path, op):
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


@pytest.mark.parametrize("op", [pytest.param(op, id=name)
                                for name, index, op in STORED_OPS if index == 0])
def test_first_stored_op_of_every_kind_is_byte_identical(tmp_path, op):
    _replay(tmp_path, op)


@pytest.mark.parametrize("op", [pytest.param(op, id=name)
                                for name, index, op in STORED_OPS if index == 0])
def test_each_command_lifts_each_stage_operator_once(tmp_path, op, lifts, mode_operators):
    _replay(tmp_path, op)
    assert lifts
    assert len(set(lifts)) == len(lifts)
    assert mode_operators == []  # the stage blocks are lifted as bare CSR matrices


@pytest.mark.parametrize("op", [pytest.param(op, id=f"{name}-{index}")
                                for name, index, op in STORED_OPS if index > 0])
def test_every_other_stored_op_is_byte_identical(tmp_path, op):
    _replay(tmp_path, op)


def test_every_traced_name_resolves():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    for layer, names in ast.literal_eval(targets).items():
        module = importlib.import_module(f"optomagnon.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"optomagnon.{layer}.{name}"
