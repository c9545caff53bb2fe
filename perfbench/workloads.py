"""Workload definitions: operating points, op kinds and seeded op inputs.

An op is one call of the CLI entry point ``optomagnon.cli.main(argv)``.
Every op of a run is drawn from the workload seed through a per-kind
stream, so the same seed gives the same argv sequence on every commit.
Each op draws its own temperature (and rng seed where the command samples),
so no two ops of a run share a config: a cache keyed on the whole config
never hits between timed ops, as for a user sweeping a parameter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1

# Every time the benchmark reports is scaled to a machine on which the
# calibration kernel (worker.Calibration) takes this long; see README.
CALIBRATION_REFERENCE_S = 0.010

# Temperatures are drawn from the documented sweep range.
T_MIN, T_MAX = 0.02, 0.2

# The paper's operating point: cutoffs 3, ideal optics and detectors.
REFERENCE = {}

# Cutoff-scaling point (625-dim front state) with loss in every channel the
# pipeline models: Kraus loss sums in both stages and a noisy detector.
LOSSY_C4 = {
    "optical_cutoff": 4,
    "magnon_cutoff": 4,
    "propagation_transmissivity_a": 0.8,
    "propagation_transmissivity_b": 0.8,
    "detector.efficiency": 0.6,
    "detector.dark_click_probability": 1e-4,
    "magnon_decay_delay_ratio": 0.1,
}

# The acceptance suite's Monte Carlo point.  At the reference point the
# herald probability is 5e-5 per trial, so oracle-compare exits 5 and
# witness-sweep --trials exits 4; here every sampler command succeeds.
COUNTING = {
    "pulse_mean_photons": 0.1,
    "stokes_probability": 0.1,
    "read_swap_angle_rad": math.pi / 2,
}


@dataclass(frozen=True)
class Op:
    """One CLI call: the config file text plus the remaining argv."""

    kind: str
    index: int
    config: str
    args: tuple[str, ...]
    points: int  # points the op computes; fidelity_point_s divides by it
    trials: int  # total Monte Carlo trials the op samples

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.args[0], "--config", config_path, *self.args[1:],
                "--out", out_path, "--workers", "1"]


def config_text(point: dict, temperature_k: float) -> str:
    fields = {**point, "temperature_k": temperature_k}
    return "".join(f"{key} = {value!r}\n" for key, value in fields.items())


def _temperature(rng: random.Random) -> float:
    return rng.uniform(T_MIN, T_MAX)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def fidelity_op(point: dict, n_points: int) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        start = rng.uniform(T_MIN, (T_MIN + T_MAX) / 2)
        stop = rng.uniform(start, T_MAX) if n_points > 1 else start
        sweep = f"temperature_k:{start!r}:{stop!r}:{n_points}"
        return Op(kind, index, config_text(point, _temperature(rng)),
                  ("fidelity-sweep", "--sweep", sweep), n_points, 0)
    return make


def witness_op(point: dict, grid_points: int) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        return Op(kind, index, config_text(point, _temperature(rng)),
                  ("witness-sweep", "--grid-points", str(grid_points)), grid_points, 0)
    return make


def baseline_op(point: dict, grid_points: int) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        # alternate the two non-trivial separable baselines
        which = ("product_thermal", "classical_mixture")[index % 2]
        return Op(kind, index, config_text(point, _temperature(rng)),
                  ("baseline", "--grid-points", str(grid_points), "--baseline", which),
                  grid_points, 0)
    return make


def mc_run_op(point: dict, trials: int) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        return Op(kind, index, config_text(point, _temperature(rng)),
                  ("mc-run", "--trials", str(trials), "--seed", str(_seed(rng))), 1, trials)
    return make


def oracle_op(point: dict, trials: int, t_max: float = T_MAX) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        return Op(kind, index, config_text(point, rng.uniform(T_MIN, t_max)),
                  ("oracle-compare", "--trials", str(trials), "--seed", str(_seed(rng))),
                  1, trials)
    return make


def mc_witness_op(point: dict, trials: int, grid_points: int) -> Callable:
    def make(rng: random.Random, kind: str, index: int) -> Op:
        return Op(kind, index, config_text(point, _temperature(rng)),
                  ("witness-sweep", "--grid-points", str(grid_points), "--trials", str(trials),
                   "--seed", str(_seed(rng))), grid_points, trials * grid_points)
    return make


@dataclass(frozen=True)
class Kind:
    """An op kind: which end-to-end metric it feeds and how its inputs are drawn."""

    name: str
    metric: str
    make: Callable
    per_round: int = 1  # ops of this kind in one round-robin round


# Above about 0.14 K a 2e5-trial oracle-compare expects 4 to 7 g2_A1S1
# coincidences.  There a count of 0 or 1 fails the 4-sigma gate, because
# the estimator's error for so few counts is too small.  That happens in a
# few percent of ops; see README "Known defects".  The smaller oracle ops
# expect under 2 coincidences at 0.2 K and use the full range.
ORACLE_T_MAX = 0.14


def sampler_kinds(mc_trials: int, oracle_trials: int, witness_trials: int,
                  witness_phases: int, per_round: int = 1,
                  oracle_t_max: float = T_MAX) -> tuple[Kind, ...]:
    """The three sampler commands, always at the counting point."""
    return (
        Kind("mc-run", "mc_run_s", mc_run_op(COUNTING, mc_trials), per_round),
        Kind("oracle", "oracle_s", oracle_op(COUNTING, oracle_trials, oracle_t_max), per_round),
        Kind("mc-witness", "mc_witness_s",
             mc_witness_op(COUNTING, witness_trials, witness_phases), per_round),
    )


# Each workload puts its own operating point into the exact-engine
# commands.  The exact-engine workloads run the sampler commands at a
# smaller size, so that their own commands keep most of the run.  On
# lossy-c4 one witness curve takes about 6 s, so the cheap kinds run
# several times per round to collect as many samples as the other
# workloads do.
WORKLOADS: dict[str, tuple[Kind, ...]] = {
    "ref-exact": (
        Kind("fidelity", "fidelity_point_s", fidelity_op(REFERENCE, 4)),
        Kind("witness", "witness_curve_s", witness_op(REFERENCE, 25)),
        Kind("baseline", "baseline_curve_s", baseline_op(REFERENCE, 25)),
    ) + sampler_kinds(20_000, 50_000, 5_000, 3),
    "lossy-c4": (
        Kind("fidelity", "fidelity_point_s", fidelity_op(LOSSY_C4, 1), per_round=2),
        Kind("witness", "witness_curve_s", witness_op(LOSSY_C4, 5)),
        Kind("baseline", "baseline_curve_s", baseline_op(COUNTING, 5), per_round=3),
    ) + sampler_kinds(20_000, 20_000, 5_000, 2, per_round=3),
    "counting": (
        Kind("fidelity", "fidelity_point_s", fidelity_op(COUNTING, 4)),
        Kind("witness", "witness_curve_s", witness_op(COUNTING, 13)),
        Kind("baseline", "baseline_curve_s", baseline_op(COUNTING, 13)),
    ) + sampler_kinds(100_000, 200_000, 20_000, 5, oracle_t_max=ORACLE_T_MAX),
}

# Operating point of each workload's set-up probe config.
POINTS = {"ref-exact": REFERENCE, "lossy-c4": LOSSY_C4, "counting": COUNTING}

# Reference-point witness-sweep --trials: exits 4 on zero Stokes counts
# (ROADMAP item 4d).  Run once per ref-exact run and reported beside the
# result, never timed and never part of the gated op counts.
KNOWN_DEFECT = Kind("ref-mc-witness", "", mc_witness_op(REFERENCE, 20_000, 5))


class OpStream:
    """The seeded sequence of ops of one kind in one workload."""

    def __init__(self, workload: str, seed: int, kind: Kind):
        self.kind = kind
        self._rng = random.Random(f"{workload}:{seed}:{kind.name}")
        self._index = 0

    def next(self) -> Op:
        op = self.kind.make(self._rng, self.kind.name, self._index)
        self._index += 1
        return op


def round_schedule(kinds: tuple[Kind, ...]) -> list[Kind]:
    """One round-robin round, repeated kinds spread through the round."""
    rounds = max(kind.per_round for kind in kinds)
    return [kind for r in range(rounds) for kind in kinds if r < kind.per_round]
