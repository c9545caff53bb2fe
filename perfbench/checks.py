"""Output checks for benchmark ops.

Two layers, both applied to the CSV an op writes:

* invariants, for any seed: the closed-form fidelity formula and the
  pipeline-vs-closed-form consistency bound, each row's R_m against its own
  g2 columns, separable baselines at or above one, every oracle row passed,
  well-formed Monte Carlo records;
* references, at the default seed: the g2 and fidelity columns agree with
  the outputs stored from the seed commit to 1e-12, and Monte Carlo columns
  are byte-identical (the CLI's determinism guarantee).

R_m = 4(g1+g2-1)/(g1-g2)^2 is ill-conditioned where g1 is close to g2 (at
phase 0 of the counting grid g1-g2 is about 9e-6 and R_m about 1e12), so
R_m is compared with a tolerance scaled by its condition number.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

REL_TOL = 1e-12  # the ROADMAP's bar for exact-engine numbers
CONSISTENCY_DISTANCE_CONSTANT = 2.0  # trace-distance bound C max(p, P, S^2), see README
DIVERGENCE_EPSILON = 1e-8  # ProtocolConfig.witness_divergence_epsilon default

CLICKS = {"none", "detector1", "detector2", "both"}
RECORD_HEADER = "trial_index,stokes_click,antistokes_click"
ORACLE_ROWS = ("herald_probability", "stokes_click_rate_d1", "stokes_click_rate_d2",
               "antistokes_click_rate_d1", "antistokes_click_rate_d2",
               "g2_A1S1", "g2_A2S1", "R_m")

# Columns computed by the exact engine, compared to REL_TOL.
EXACT_COLUMNS = {"temperature_k", "nbar", "S", "F_closed_form", "F_pipeline",
                 "delta_phi", "g2_A1Sj", "g2_A2Sj", "exact", "sigma"}


class CheckError(Exception):
    """An op's output disagrees with an invariant or with its reference."""


def parse_config(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key] = float(value)
    return fields


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise CheckError(f"row has {len(row)} fields, header has {len(header)}")
    return header, rows


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def witness_formula(g1: float, g2: float) -> float:
    diff = g1 - g2
    return 4.0 * (g1 + g2 - 1.0) / (diff * diff)


def r_m_tolerance(g1: float, g2: float, tol: float = REL_TOL) -> float:
    """Absolute R_m tolerance for g2 inputs known to relative accuracy tol."""
    diff = g1 - g2
    d_g1 = 4.0 / diff**2 - 8.0 * (g1 + g2 - 1.0) / diff**3
    d_g2 = 4.0 / diff**2 + 8.0 * (g1 + g2 - 1.0) / diff**3
    r = witness_formula(g1, g2)
    return tol * (abs(d_g1) * max(1.0, abs(g1)) + abs(d_g2) * max(1.0, abs(g2)) + abs(r))


def _check_witness_row(g1: float, g2: float, r_m: float, divergent: Optional[bool],
                       what: str) -> None:
    if divergent is None:  # MC columns: divergence is decided on sigmas, not epsilon
        if math.isinf(r_m):
            return
    elif divergent:
        if not math.isinf(r_m) or abs(g1 - g2) >= DIVERGENCE_EPSILON:
            raise CheckError(f"{what}: divergent row with R_m {r_m!r} and g1-g2 {g1 - g2!r}")
        return
    expected = witness_formula(g1, g2)
    if abs(r_m - expected) > r_m_tolerance(g1, g2):
        raise CheckError(f"{what}: R_m {r_m!r} but its g2 columns give {expected!r}")


# ---------------------------------------------------------------------------
# Invariants, any seed


def check_fidelity(op, text: str) -> None:
    header, rows = parse_csv(text)
    if header != ["temperature_k", "nbar", "S", "F_closed_form", "F_pipeline"]:
        raise CheckError(f"fidelity-sweep header {header}")
    _, start, stop, count = op.args[2].split(":")
    temperatures = np.linspace(float(start), float(stop), int(count))
    if len(rows) != len(temperatures):
        raise CheckError(f"{len(rows)} fidelity rows for {len(temperatures)} points")
    cfg = parse_config(op.config)
    ideal = (cfg.get("propagation_transmissivity_a", 1.0) == 1.0
             and cfg.get("propagation_transmissivity_b", 1.0) == 1.0
             and cfg.get("detector.efficiency", 1.0) == 1.0
             and cfg.get("detector.dark_click_probability", 0.0) == 0.0
             and cfg.get("magnon_decay_delay_ratio", 0.0) == 0.0)
    for row, t in zip(rows, temperatures):
        t_out, nbar, s, f_closed, f_pipe = map(float, row)
        if not close(t_out, float(t)):
            raise CheckError(f"fidelity row temperature {t_out!r}, expected {float(t)!r}")
        if not close(s, nbar / (nbar + 1.0)):
            raise CheckError(f"S {s!r} is not nbar/(nbar+1) for nbar {nbar!r}")
        if not close(f_closed, 1.0 / (1.0 + 2.0 * s + s * s)):
            raise CheckError(f"F_closed_form {f_closed!r} is not 1/(1+2S+S^2) at S {s!r}")
        if not 0.0 <= f_pipe <= 1.0 + REL_TOL:
            raise CheckError(f"F_pipeline {f_pipe!r} outside [0, 1]")
        # The closed form models ideal optics only; lossy configs skip the bound.
        if ideal:
            bound = CONSISTENCY_DISTANCE_CONSTANT * max(
                cfg.get("pulse_mean_photons", 0.01), cfg.get("stokes_probability", 0.01), s * s)
            if abs(f_pipe - f_closed) > bound:
                raise CheckError(
                    f"|F_pipeline - F_closed_form| = {abs(f_pipe - f_closed):.3e} "
                    f"above the consistency bound {bound:.3e}")


def check_witness(op, text: str, baseline: bool) -> None:
    header, rows = parse_csv(text)
    exact_cols = ["delta_phi", "j", "g2_A1Sj", "g2_A2Sj", "R_m", "divergence_flag"]
    mc_cols = ["mc_g2_A1Sj", "mc_g2_A1Sj_err", "mc_g2_A2Sj", "mc_g2_A2Sj_err",
               "mc_R_m", "mc_R_m_err"]
    with_mc = "--trials" in op.args
    if header != exact_cols + (mc_cols if with_mc else []):
        raise CheckError(f"witness header {header}")
    grid = np.linspace(0.0, 2.0 * math.pi, op.points)
    if len(rows) != len(grid):
        raise CheckError(f"{len(rows)} witness rows for {len(grid)} grid points")
    minimum = math.inf
    for k, (row, phi) in enumerate(zip(rows, grid)):
        if not close(float(row[0]), float(phi)) or row[1] != "1":
            raise CheckError(f"row {k}: phase {row[0]} / detector {row[1]} do not match the grid")
        g1, g2, r_m = float(row[2]), float(row[3]), float(row[4])
        if row[5] not in ("true", "false"):
            raise CheckError(f"row {k}: divergence_flag {row[5]!r}")
        _check_witness_row(g1, g2, r_m, row[5] == "true", f"row {k}")
        minimum = min(minimum, r_m)
        if with_mc:
            mc_g1, mc_g1_err, mc_g2, mc_g2_err = map(float, row[6:10])
            if min(mc_g1, mc_g2, mc_g1_err, mc_g2_err) < 0.0:
                raise CheckError(f"row {k}: negative MC g2 or error")
            _check_witness_row(mc_g1, mc_g2, float(row[10]), None, f"row {k} (MC)")
    if baseline and minimum < 1.0:
        raise CheckError(f"separable baseline reaches R_m {minimum!r} < 1")


def check_mc_run(op, text: str) -> None:
    lines = text.split("\n")
    if lines[0] != RECORD_HEADER or lines[-1] != "":
        raise CheckError("mc-run output is not a header plus newline-terminated records")
    if len(lines) - 2 != op.trials:
        raise CheckError(f"{len(lines) - 2} records for {op.trials} trials")
    for k, line in enumerate(lines[1:-1]):
        index, stokes, anti = line.split(",")
        if int(index) != k or stokes not in CLICKS or anti not in CLICKS:
            raise CheckError(f"bad record line {k}: {line!r}")


def check_oracle(op, text: str) -> None:
    header, rows = parse_csv(text)
    if header != ["observable", "exact", "mc_estimate", "sigma", "passed"]:
        raise CheckError(f"oracle header {header}")
    if tuple(row[0] for row in rows) != ORACLE_ROWS:
        raise CheckError(f"oracle rows {[row[0] for row in rows]}")
    failed = [row[0] for row in rows if row[4] != "true"]
    if failed:
        raise CheckError(f"oracle rows not passed: {failed}")
    exact = {row[0]: float(row[1]) for row in rows}
    _check_witness_row(exact["g2_A1S1"], exact["g2_A2S1"], exact["R_m"], False, "oracle R_m")


def check_invariants(op, text: str) -> None:
    command = op.args[0]
    if command == "fidelity-sweep":
        check_fidelity(op, text)
    elif command in ("witness-sweep", "baseline"):
        check_witness(op, text, baseline=command == "baseline")
    elif command == "mc-run":
        check_mc_run(op, text)
    elif command == "oracle-compare":
        check_oracle(op, text)
    else:
        raise CheckError(f"no check for command {command!r}")


# ---------------------------------------------------------------------------
# References, default seed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(op, text: str) -> dict:
    """What the reference file stores for one op at the default seed."""
    entry = {"config": op.config, "args": list(op.args)}
    if op.args[0] == "mc-run":
        entry["sha256"] = digest(text)
    else:
        entry["output"] = text
    return entry


def check_reference(op, text: str, ref: dict) -> None:
    if ref["config"] != op.config or ref["args"] != list(op.args):
        raise CheckError("op inputs differ from the stored reference inputs")
    if "sha256" in ref:
        if digest(text) != ref["sha256"]:
            raise CheckError("Monte Carlo records are not byte-identical to the reference")
        return
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref["output"])
    if header != ref_header or len(rows) != len(ref_rows):
        raise CheckError("output shape differs from the reference")
    col = {name: i for i, name in enumerate(header)}
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, i in col.items():
            got, want = row[i], ref_row[i]
            if got == want or name == "R_m" or (name == "exact" and row[0] == "R_m"):
                continue  # R_m is compared below, scaled by its conditioning
            if name not in EXACT_COLUMNS:
                raise CheckError(f"row {k} {name}: {got!r} vs reference {want!r} (must be identical)")
            if not close(float(got), float(want)):
                raise CheckError(f"row {k} {name}: {got} vs reference {want}")
    if "R_m" in col:
        for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            got, want = row[col["R_m"]], ref_row[col["R_m"]]
            g1, g2 = float(ref_row[col["g2_A1Sj"]]), float(ref_row[col["g2_A2Sj"]])
            if got != want and (math.isinf(float(want))
                                or abs(float(got) - float(want)) > r_m_tolerance(g1, g2)):
                raise CheckError(f"row {k} R_m: {got} vs reference {want}")
    if header[0] == "observable":
        exact = {row[0]: float(row[1]) for row in ref_rows}
        got = {row[0]: float(row[1]) for row in rows}
        if abs(got["R_m"] - exact["R_m"]) > r_m_tolerance(exact["g2_A1S1"], exact["g2_A2S1"]):
            raise CheckError(f"oracle exact R_m {got['R_m']!r} vs reference {exact['R_m']!r}")
