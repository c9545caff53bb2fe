"""Span tracer for the traced run: wraps the public functions of each layer.

Every module binding of a target function is replaced, not only the one in
its defining module: ``protocol`` and ``channels`` import ``apply_unitary``
by name from ``fock``, and ``montecarlo`` and ``cli`` import
``exact_joint_statistics`` and ``witness_exact`` by name, so patching only
the defining module would miss their calls.  No wrapper sits on a
per-trial path.

Spans carry an op id and their parent span; they are kept in memory and
written out when the run ends.  A function's self time is its span minus
the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("fock", "channels", "protocol", "montecarlo", "cli")

TARGETS = {
    "fock": ("apply_unitary", "partial_trace", "embed_single_mode", "embed_mode_pair"),
    "channels": ("two_mode_squeezer_unitary", "beamsplitter_unitary", "swap_coupler_unitary",
                 "phase_shift_unitary", "loss_channel", "click_measurement"),
    "protocol": ("entangle_front_state", "entangle_stage", "witness_exact",
                 "separable_baseline", "exact_joint_statistics"),
    "montecarlo": ("sample_trials", "click_fractions", "estimate_g2", "estimate_witness",
                   "records_to_csv"),
    "cli": ("main", "write_table"),
}

# Bookkeeping the tracer does after a call returns is booked as a child span
# under this name, so it is not charged to the caller's self time.
POST = "trace.post"

BYTES_PER_COMPLEX = 16


def _unitary_bytes(obj) -> int:
    """Computed bytes of one apply_unitary: each sparse-dense product reads
    and writes one dense operand of the registry dimension (two products
    for a density, one for a pure state)."""
    d = obj.registry.dimension
    if hasattr(obj, "matrix"):
        return 2 * 2 * BYTES_PER_COMPLEX * d * d
    return 2 * BYTES_PER_COMPLEX * d


class Tracer:
    def __init__(self):
        self.spans: list = []  # (op_id, span_id, parent_id, name, start, end)
        self._stack: list[int] = []
        self._patches: list = []
        self.op_id = None
        self.counters = defaultdict(float)  # (op_id, counter) -> value

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"optomagnon.{layer}") for layer in LAYERS}
        modules["optomagnon"] = importlib.import_module("optomagnon")
        wrappers = {}
        for layer, names in TARGETS.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrappers[id(original)] = self._wrap(f"{layer}.{name}", original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; children append after it
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (tracer.op_id, span_id, parent, name, start, end)
            tracer._after(name, span_id, args, result, end)
            return result

        return wrapper

    def _after(self, name: str, span_id: int, args, result, start: float) -> None:
        counters = self.counters
        if name == "fock.apply_unitary":
            counters[(self.op_id, "fock.apply_unitary.bytes")] += _unitary_bytes(args[0])
        elif name == "montecarlo.sample_trials":
            counters[(self.op_id, "trials")] += len(result)
            counters[(self.op_id, "single_stokes")] += sum(
                r.stokes_click in ("detector1", "detector2") for r in result)
        else:
            return
        self.spans.append((self.op_id, len(self.spans), span_id, POST, start, time.perf_counter()))

    # -- aggregation -------------------------------------------------------

    def per_op(self) -> dict:
        """op_id -> {name: [calls, self seconds]} plus counters."""
        children = defaultdict(float)
        for op_id, span_id, parent, name, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for op_id, span_id, parent, name, start, end in self.spans:
            if name == POST:
                continue
            entry = out[op_id][name]
            entry[0] += 1
            entry[1] += (end - start) - children[span_id]
        for (op_id, counter), value in self.counters.items():
            out[op_id][counter] = value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op_id, "span": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(per_op: dict, ops: list[tuple[str, str]], scales: dict[str, float]) -> dict:
    """Per-layer metrics over traced ops, given as (op_id, kind) pairs.

    Values are per op over the workload's round mix: a count is the mean
    over the ops (exact, since every round holds the same kinds), a time is
    the median per kind averaged over the round.  Times are scaled by each
    op's calibration scale, as the end-to-end times are.
    """
    by_kind = defaultdict(list)
    for op_id, kind in ops:
        entry = {name: ([value[0], value[1] * scales[op_id]] if isinstance(value, list) else value)
                 for name, value in per_op.get(op_id, {}).items()}
        by_kind[kind].append(entry)
    n_ops = len(ops)
    weights = {kind: len(entries) for kind, entries in by_kind.items()}

    def mean_count(get) -> float:
        return sum(get(entry) for entries in by_kind.values() for entry in entries) / n_ops

    def mixed_median(get) -> float:
        return sum(weights[kind] * statistics.median(get(e) for e in entries)
                   for kind, entries in by_kind.items()) / n_ops

    metrics = {}
    for layer, names in TARGETS.items():
        for fn in names:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = (mean_count(lambda e: e.get(name, (0, 0.0))[0]), "count")
            metrics[f"{name}.self_s"] = (mixed_median(lambda e: e.get(name, (0, 0.0))[1]), "s")
    metrics["fock.apply_unitary.bytes"] = (
        mixed_median(lambda e: e.get("fock.apply_unitary.bytes", 0.0)), "bytes_computed")
    metrics["protocol.front_builds_per_op"] = (
        max(statistics.median(e.get("protocol.entangle_front_state", (0, 0.0))[0] for e in entries)
            for entries in by_kind.values()), "count")
    trials = sum(e.get("trials", 0.0) for entries in by_kind.values() for e in entries)
    sample_s = sum(e.get("montecarlo.sample_trials", (0, 0.0))[1]
                   for entries in by_kind.values() for e in entries)
    single = sum(e.get("single_stokes", 0.0) for entries in by_kind.values() for e in entries)
    metrics["montecarlo.trials_per_s"] = (trials / sample_s if sample_s else 0.0, "1/s")
    metrics["montecarlo.herald_yield"] = (single / trials if trials else 0.0, "ratio")
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of each layer from ``python -X importtime``.

    Shared dependencies (numpy, scipy) are charged to whichever layer
    imports them first, which in import order is ``fock``.
    """
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].startswith("optomagnon."):
            layer = parts[2].split(".", 1)[1]
            if layer in LAYERS:
                out[layer] = int(parts[1]) / 1e6
    return out
