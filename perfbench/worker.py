"""Ops child: runs one workload's ops in-process through ``optomagnon.cli.main``.

Started by run.py with BLAS threads pinned to one.  It reads one JSON
command per line on stdin and answers one JSON line on stdout, so the
runner can interleave set-up probes between ops while this process waits.
Commands: ``{"cmd": "op", "kind": ..., "round": ..., "traced": ...}``,
``{"cmd": "defect"}`` and ``{"cmd": "finish", "rounds": [...]}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks
import workloads

CALIBRATION_LOOP = 100_000
CALIBRATION_SIZE = 300


class Calibration:
    """A fixed Python-loop plus 300x300 matmul kernel, about 10 ms.

    Run right before and right after every op.  The machine's speed drifts
    by tens of percent over tens of seconds, and the kernel tracks it, so
    each op time is scaled by CALIBRATION_REFERENCE_S over the mean of its
    two bracketing kernel times.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
        self.b = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        (self.a @ self.b).sum()
        return time.perf_counter() - start


class Worker:
    def __init__(self, root: str, workload: str, seed: int, trace: bool, work_dir: str):
        from optomagnon import cli

        self.cli = cli
        self.work_dir = work_dir
        kinds = workloads.WORKLOADS[workload]
        self.streams = {kind.name: workloads.OpStream(workload, seed, kind) for kind in kinds}
        self.defects = workloads.OpStream(workload, seed, workloads.KNOWN_DEFECT)
        self.references = {}
        ref_path = os.path.join(root, "perfbench", "reference", f"{workload}.json")
        if seed == workloads.DEFAULT_SEED and os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                self.references = json.load(handle)["ops"]
        self.calibration = Calibration()
        self.tracer = None
        self.traced_ops: dict[int, list] = {}  # round -> [(op_id, kind)]
        self.scales: dict[str, float] = {}  # op_id -> calibration scale
        if trace:
            import tracer
            self.tracer = tracer.Tracer()

    def run_op(self, op: workloads.Op, traced: bool = False) -> dict:
        """Run one op, check its output, and report time and outcome."""
        op_id = f"{op.kind}:{op.index}"
        config_path = os.path.join(self.work_dir, "op.cfg")
        out_path = os.path.join(self.work_dir, "op.out")
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(op.config)
        argv = op.argv(config_path, out_path)
        result = {"kind": op.kind, "op_id": op_id, "points": op.points, "ok": False}
        gc.collect()
        before = self.calibration()
        if traced:
            self.tracer.op_id = op_id
            self.tracer.install()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
        except Exception:
            code = None
            stderr.write(traceback.format_exc())
        finally:
            result["seconds"] = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        after = self.calibration()
        result["calibration_s"] = [before, after]
        result["scale"] = workloads.CALIBRATION_REFERENCE_S / ((before + after) / 2)
        self.scales[op_id] = result["scale"]
        result["exit"] = code
        if code != 0:
            result["error"] = f"exit {code}: {stderr.getvalue().strip()[-500:]}"
            return result
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(out_path)
        try:
            checks.check_invariants(op, text)
            refs = self.references.get(op.kind, [])
            if op.index < len(refs):
                checks.check_reference(op, text, refs[op.index])
                result["reference_checked"] = True
        except (checks.CheckError, ValueError, KeyError, IndexError) as exc:
            result["error"] = f"check failed: {type(exc).__name__}: {exc}"
            return result
        result["ok"] = True
        return result

    def handle(self, command: dict) -> dict:
        cmd = command["cmd"]
        if cmd == "op":
            op = self.streams[command["kind"]].next()
            traced = bool(command.get("traced")) and self.tracer is not None
            result = self.run_op(op, traced)
            if traced:
                self.traced_ops.setdefault(command["round"], []).append(
                    (result["op_id"], op.kind))
            return result
        if cmd == "defect":
            return self.run_op(self.defects.next())
        if cmd == "finish":
            out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if self.tracer is not None:
                import tracer
                ops = [pair for r in command["rounds"] for pair in self.traced_ops.get(r, [])]
                if ops:
                    metrics = tracer.layer_metrics(self.tracer.per_op(), ops, self.scales)
                    out["layers"] = {name: list(value) for name, value in metrics.items()}
                spans_path = command["spans_path"]
                self.tracer.write(spans_path)
                out["spans_path"] = spans_path
                out["n_spans"] = len(self.tracer.spans)
            return out
        raise ValueError(f"unknown command {cmd!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    channel = sys.stdout
    sys.stdout = sys.stderr  # keep the command channel clean of stray prints
    worker = Worker(args.root, args.workload, args.seed, bool(args.trace), args.work_dir)
    import optomagnon
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(optomagnon.__file__).startswith(src + os.sep):
        raise SystemExit(f"optomagnon imported from {optomagnon.__file__}, not {src}")
    channel.write(json.dumps({"event": "started"}) + "\n")
    channel.flush()
    for line in sys.stdin:
        command = json.loads(line)
        reply = worker.handle(command)
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
        if command["cmd"] == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
