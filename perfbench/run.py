"""Benchmark runner for the optomagnon CLI.

    python3 perfbench/run.py --workload ref-exact --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  The runner imports nothing from
the package: it starts one ops child (worker.py) that runs the workload's
ops in-process through ``optomagnon.cli.main`` and, between rounds of ops,
short-lived set-up probes (probe.py).  At most one child runs at a time;
the ops child waits on its command pipe while a probe runs.  Every timed
metric is the median of many short samples interleaved round-robin over
the run, each scaled by a calibration kernel run around it, because the
machine's speed drifts by tens of percent over tens of seconds (see
README.md).  The last stdout line is the result object; the line before it
holds the diagnostics (environment, calibration, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (pure stdlib; importing it loads no numpy)

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_point_s": "s",
    "witness_curve_s": "s",
    "baseline_curve_s": "s",
    "mc_run_s": "s",
    "oracle_s": "s",
    "mc_witness_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, child failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def tail_percentile(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if usable:
        p = usable[-1]
        out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return out


def environment() -> dict:
    import importlib.metadata as md

    def version(name: str):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class OpsChild:
    """The ops child process and its line-based command channel."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
             "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
             "--work-dir", WORK_DIR],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=ROOT)
        self._read()  # the child is ready once it has imported the package

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"ops child exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_probe(config_path: str, importtime: bool) -> tuple[float, str]:
    """Seconds from a fresh interpreter's start to CLI imported and config loaded."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(HERE, "probe.py"), config_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, stderr = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {stderr.strip()[-500:]}")
    return elapsed, stderr


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import tracer  # stdlib-only at import time

    kinds = workloads.WORKLOADS[workload]
    schedule = workloads.round_schedule(kinds)
    probe_rng = random.Random(f"{workload}:{seed}:setup")
    probe_config = os.path.join(WORK_DIR, "probe.cfg")

    start = time.perf_counter()
    deadline = start + seconds
    attempted = failed = reference_checked = 0
    errors: list[str] = []
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    raw: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    calibration: list[float] = []
    imports: dict[str, list[float]] = {}
    expected: dict[str, float] = {}
    op_seconds = {True: [], False: []}  # traced / untraced op time per round
    complete_traced: list[int] = []
    defects = []
    pending = []  # probes waiting for the next op's calibration
    last_calibration = None

    def write_probe_config() -> None:
        with open(probe_config, "w", encoding="utf-8") as handle:
            handle.write(workloads.config_text(workloads.POINTS[workload],
                                               probe_rng.uniform(workloads.T_MIN, workloads.T_MAX)))

    def probe() -> None:
        write_probe_config()
        elapsed, stderr = setup_probe(probe_config, importtime=trace)
        pending.append((elapsed, tracer.parse_importtime(stderr), last_calibration))

    def flush_probes(next_calibration) -> None:
        """Scale set-up probes by the kernel times of the ops around them."""
        for elapsed, layers, previous in pending:
            known = [c for c in (previous, next_calibration) if c is not None]
            scale = workloads.CALIBRATION_REFERENCE_S / (sum(known) / len(known))
            samples["setup_s"].append(elapsed * scale)
            raw["setup_s"].append(elapsed)
            for layer, value in layers.items():
                imports.setdefault(layer, []).append(value * scale)
        pending.clear()

    def record(result: dict) -> bool:
        nonlocal attempted, failed, reference_checked, last_calibration
        attempted += 1
        reference_checked += bool(result.get("reference_checked"))
        before, after = result["calibration_s"]
        calibration.extend((before, after))
        flush_probes(before)
        last_calibration = after
        if not result["ok"]:
            failed += 1
            errors.append(f"{result['op_id']}: {result['error']}")
        return result["ok"]

    write_probe_config()
    setup_probe(probe_config, importtime=False)  # compiles bytecode on a fresh checkout
    child = OpsChild(workload, seed, trace)
    try:
        # one untimed warm-up op per kind
        for kind in kinds:
            result = child.send(cmd="op", kind=kind.name, round=-1, traced=False)
            record(result)
            expected[kind.name] = result["seconds"]
        if workload == "ref-exact":
            result = child.send(cmd="defect")
            defects.append({"op": result["op_id"], "exit": result["exit"],
                            "error": result.get("error")})

        round_no = 0
        while True:
            traced = trace and round_no % 2 == 0
            if round_no > 0 and time.perf_counter() + expected["setup"] > deadline:
                break
            t = time.perf_counter()
            probe()
            expected["setup"] = time.perf_counter() - t
            complete = True
            spent = 0.0  # scaled op seconds of this round
            for kind in schedule:
                # the first round always completes, so every metric has a sample
                if round_no > 0 and time.perf_counter() + expected[kind.name] > deadline:
                    complete = False
                    break
                result = child.send(cmd="op", kind=kind.name, round=round_no, traced=traced)
                spent += result["seconds"] * result["scale"]
                if record(result):
                    per = result["points"] if kind.metric == "fidelity_point_s" else 1
                    samples[kind.metric].append(result["seconds"] * result["scale"] / per)
                    raw[kind.metric].append(result["seconds"] / per)
            if not complete:
                break
            op_seconds[traced].append(spent)
            if traced:
                complete_traced.append(round_no)
            round_no += 1
        flush_probes(None)
        finished = child.send(cmd="finish", rounds=complete_traced,
                              spans_path=os.path.join(WORK_DIR, "spans.jsonl"))
    finally:
        child.close()

    samples["peak_rss_mb"].append(finished["peak_rss_mb"])
    raw["peak_rss_mb"].append(finished["peak_rss_mb"])
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "wall_s": time.perf_counter() - start,
        "rounds": round_no,
        "calibration_ms": 1e3 * statistics.median(calibration),
        "calibration_reference_ms": 1e3 * workloads.CALIBRATION_REFERENCE_S,
        "samples": {name: {**tail_percentile(values), "raw_median": statistics.median(raw[name])}
                    for name, values in samples.items() if values},
        "reference_checked_ops": reference_checked,
        "known_defect_ops": defects,
        "errors": errors[:20],
    }
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in finished.get("layers", {}).items()}
        for layer in tracer.LAYERS:
            metrics[f"{layer}.import_s"] = {"value": statistics.median(imports.get(layer, [0.0])),
                                            "unit": "s"}
        n_ops = len(schedule)
        if op_seconds[True] and op_seconds[False]:
            overhead = (statistics.median(op_seconds[True])
                        - statistics.median(op_seconds[False])) / n_ops
        else:
            overhead = 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        diagnostics["traced_rounds"] = complete_traced
        diagnostics["spans"] = finished.get("n_spans")
        diagnostics["import_note"] = ("cumulative -X importtime per layer; shared scipy/numpy "
                                      "imports are charged to the first layer importing them")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "optomagnon", "cli.py")):
        print(f"no optomagnon source tree under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        result, diagnostics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
