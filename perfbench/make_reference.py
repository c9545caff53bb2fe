"""Regenerate the stored reference outputs at the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs the first REFERENCE_ROUNDS rounds of each workload's op stream through
``optomagnon.cli.main`` and writes perfbench/reference/<workload>.json.
Only regenerate on a commit whose outputs are known good: later runs at the
default seed are checked against these files.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import BLAS_ENV  # noqa: E402  (imports no numpy)

os.environ.update(BLAS_ENV)

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE_ROUNDS = 12
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-reference")


def generate(workload: str) -> dict:
    from optomagnon import cli

    os.makedirs(WORK_DIR, exist_ok=True)
    config_path = os.path.join(WORK_DIR, "op.cfg")
    out_path = os.path.join(WORK_DIR, "op.out")
    ops = {}
    for kind in workloads.WORKLOADS[workload]:
        stream = workloads.OpStream(workload, workloads.DEFAULT_SEED, kind)
        entries = ops[kind.name] = []
        for _ in range(REFERENCE_ROUNDS * kind.per_round):
            op = stream.next()
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(op.config)
            code = cli.main(op.argv(config_path, out_path))
            if code != 0:
                raise SystemExit(f"{workload} {op.kind}:{op.index} exited {code}")
            with open(out_path, encoding="utf-8") as handle:
                text = handle.read()
            checks.check_invariants(op, text)
            entries.append(checks.reference_entry(op, text))
    return {"seed": workloads.DEFAULT_SEED, "ops": ops}


def main(argv: list[str]) -> int:
    for workload in argv or sorted(workloads.WORKLOADS):
        path = os.path.join(HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(generate(workload), handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
