"""Smoke mode and self-tests of the benchmark itself.

    python3 perfbench/smoke.py

Checks, in about two minutes:

1. the tracer against hand counts: one reference witness-sweep makes 355
   apply_unitary calls (4 front + 26 swaps + 13 sectors x 25 phases), and a
   5-phase witness-sweep --trials makes 6 entangle_front_state calls, the
   same on a second run;
2. the output checker accepts a stored reference output and rejects it
   with one g2 perturbed by 1e-9, through both the invariant and the
   reference check;
3. short runs of every workload (and one traced run) print exactly the
   metric names and units BENCHMARK.json lists;
4. a directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without a result line;
5. the known defects are still what README says (reported, not asserted).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import BLAS_ENV  # noqa: E402  (imports no numpy)

os.environ.update(BLAS_ENV)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-smoke")
FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def run_cli(argv: list[str], config: str) -> tuple[int, str]:
    from optomagnon import cli

    config_path = os.path.join(WORK_DIR, "op.cfg")
    out_path = os.path.join(WORK_DIR, "op.out")
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(config)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([argv[0], "--config", config_path, *argv[1:], "--out", out_path])
    text = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(out_path)
    return code, text


def traced_calls(argv: list[str], config: str, name: str) -> int:
    t = tracer.Tracer()
    t.op_id = "smoke"
    t.install()
    try:
        code, _ = run_cli(argv, config)
    finally:
        t.uninstall()
    expect(code == 0, f"traced {' '.join(argv)} exits 0")
    return t.per_op()["smoke"][name][0]


def check_tracer() -> None:
    ref = workloads.config_text(workloads.REFERENCE, 0.1)
    counting = workloads.config_text(workloads.COUNTING, 0.1)
    for attempt in (1, 2):
        calls = traced_calls(["witness-sweep"], ref, "fock.apply_unitary")
        expect(calls == 355, f"run {attempt}: reference witness-sweep makes {calls} "
                             f"apply_unitary calls (hand count 355)")
        builds = traced_calls(["witness-sweep", "--trials", "20000", "--grid-points", "5"],
                              counting, "protocol.entangle_front_state")
        expect(builds == 6, f"run {attempt}: 5-phase witness-sweep --trials makes {builds} "
                            f"entangle_front_state calls (hand count 6)")


def rejects(op, text: str, ref: dict) -> tuple[bool, bool]:
    outcome = []
    for check in (lambda: checks.check_invariants(op, text),
                  lambda: checks.check_reference(op, text, ref)):
        try:
            check()
            outcome.append(False)
        except checks.CheckError:
            outcome.append(True)
    return outcome[0], outcome[1]


def check_checker() -> None:
    with open(os.path.join(HERE, "reference", "ref-exact.json"), encoding="utf-8") as handle:
        ref = json.load(handle)["ops"]["witness"][0]
    kind = next(k for k in workloads.WORKLOADS["ref-exact"] if k.name == "witness")
    op = workloads.OpStream("ref-exact", workloads.DEFAULT_SEED, kind).next()
    text = ref["output"]
    expect(rejects(op, text, ref) == (False, False), "checker accepts the stored reference output")
    header, rows = checks.parse_csv(text)
    col = header.index("g2_A1Sj")
    k = next(i for i, row in enumerate(rows) if row[header.index("divergence_flag")] == "false")
    rows[k][col] = repr(float(rows[k][col]) + 1e-9)
    perturbed = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    invariant, reference = rejects(op, perturbed, ref)
    expect(invariant, f"invariant check rejects g2_A1Sj of row {k} perturbed by 1e-9")
    expect(reference, f"reference check rejects g2_A1Sj of row {k} perturbed by 1e-9")


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace and workload["name"] != "counting":
                continue
            proc = bench(["--workload", workload["name"], "--seed", "2", "--seconds", "1",
                          "--trace", str(trace)])
            expect(proc.returncode == 0, f"{workload['name']} trace {trace} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0,
                   f"{workload['name']} trace {trace}: correct, {result['attempted']} ops, "
                   f"{result['failed']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            expect(got == want, f"{workload['name']} trace {trace}: metric names and units "
                                f"match BENCHMARK.json {section}")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{workload['name']}: every end-to-end metric is non-zero")


def check_bare_directory() -> None:
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "counting", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without a source tree run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def report_known_defects() -> None:
    ref = workloads.config_text(workloads.REFERENCE, 0.1)
    code, _ = run_cli(["witness-sweep", "--trials", "20000", "--grid-points", "5", "--seed", "7"],
                      ref)
    print(f"info  reference-point witness-sweep --trials exits {code} (ROADMAP 4d: 4)")
    code, _ = run_cli(["oracle-compare", "--trials", "100000", "--seed", "7"], ref)
    print(f"info  reference-point oracle-compare exits {code} (ROADMAP 3: 5); not a benchmark op")
    low_count = workloads.config_text(workloads.COUNTING, 0.17143585626709526)
    code, _ = run_cli(["oracle-compare", "--trials", "200000", "--seed", "1694927838"], low_count)
    print(f"info  counting-point oracle-compare at 0.171 K exits {code} "
          f"(low-count g2 gate, README: 5)")


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        check_tracer()
        check_checker()
        check_metric_names()
        check_bare_directory()
        report_known_defects()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"{len(FAILURES)} smoke check(s) failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
