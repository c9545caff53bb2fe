"""Command-line front end: config parsing, named experiments, columnar output.

Commands
    fidelity-sweep   closed-form vs pipeline heralded fidelity over T or nbar
    witness-sweep    exact witness curve over the read phase, optional MC columns
    baseline         witness curve with a separable magnon state substituted
    mc-run           sampled per-trial click records
    oracle-compare   MC estimators vs exact engine values at 4 sigma

``COMMANDS`` maps each command to its runner and the command-specific flags
it reads; a command given any other of those flags rejects it.  Every
command is deterministic given (config file, seed): reruns produce
identical bytes.  ``--workers`` is accepted and changes nothing.  Each
command lifts each stage block once and runs the optics before the thermal step
once (``protocol.entangle_sweep`` says how a ``fidelity-sweep`` reuses them);
commands share none of it.
Config keys and their types are read off ``ProtocolConfig`` (``detector.*`` for its
detector), and a key given twice is a parse error.  A failed config check's message names
the first of the fields its error carries that the file set (else the first of them).
``--out`` is replaced only when the command finishes, so a failing command leaves an
existing file as it was.
Exit codes: 0 success, 2 config parse error (also a config file that is not UTF-8),
3 domain error (also a ``ChannelError``, such as a squeezer past its truncation bound, an
``--out`` that cannot be opened, and a ``--grid-points`` or ``--sweep`` count whose grid
numpy cannot allocate), 4 runtime error (also an output closed before the command
finished, such as stdout piped into ``head``, a herald probability below
``protocol.HERALD_FLOOR``, a witness whose Stokes light lies only in sectors below
``protocol.STOKES_SECTOR_FLOOR``, and a witness whose Stokes or anti-Stokes light
vanished, such as a ``product_thermal`` ``baseline`` at zero thermal occupation, whose
magnon vacuum sends no anti-Stokes light), 5 oracle-compare failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import replace
from typing import Iterator, Optional, Sequence, TextIO, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import montecarlo
from .channels import ChannelError, DetectorSpec
from .fock import FockSpaceError, fidelity_with_pure
from .protocol import (
    HeraldError,
    ProtocolConfig,
    ProtocolError,
    WitnessPoint,
    ZeroIntensityError,
    closed_form_fidelity,
    entangle_sweep,
    exact_joint_statistics,
    exact_phase_statistics,
    exact_witness_ratio,
    ideal_target_state,
    separable_baseline,
)

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_RUNTIME_ERROR = 4
EXIT_ORACLE_FAILURE = 5

ORACLE_SIGMAS = 4.0  # oracle-compare pass band, in standard errors


class ConfigParseError(Exception):
    """Config file is not flat key = value text; carries the line number."""


class ConfigDomainError(Exception):
    """A config field name or value is invalid; names the offending field."""


# Config key -> value type, read off the ProtocolConfig and DetectorSpec annotations:
# Optional[float] is float, and the detector's fields are detector.* keys.
_FIELD_TYPES = {
    **{name: get_args(hint)[0] if get_origin(hint) is Union else hint
       for name, hint in get_type_hints(ProtocolConfig).items() if hint is not DetectorSpec},
    **{f"detector.{name}": hint for name, hint in get_type_hints(DetectorSpec).items()},
}


def parse_config_text(text: str) -> ProtocolConfig:
    """Parse flat ``key = value`` lines with # comments into a config."""
    kwargs: dict = {}
    detector_kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigParseError(f"line {lineno}: empty key or value in {raw!r}")
        if key in first_line:
            raise ConfigParseError(
                f"line {lineno}: key {key!r} repeated (first set on line {first_line[key]})")
        first_line[key] = lineno
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise ConfigDomainError(f"unknown config field {key!r} (line {lineno})")
        try:
            parsed = kind(value)
        except ValueError as exc:
            raise ConfigDomainError(f"field {key!r}: bad value {value!r} (line {lineno})") from exc
        if key.startswith("detector."):
            detector_kwargs[key.split(".", 1)[1]] = parsed
        else:
            kwargs[key] = parsed
    if detector_kwargs:
        try:
            kwargs["detector"] = DetectorSpec(**detector_kwargs)
        except ChannelError as exc:
            raise _field_error(exc, detector_kwargs, prefix="detector.") from exc
    try:
        return ProtocolConfig(**kwargs)
    except ProtocolError as exc:
        raise _field_error(exc, kwargs) from exc


def _field_error(exc: FockSpaceError, given: dict, prefix: str = "") -> ConfigDomainError:
    """``exc`` named by the first field its check read that ``given`` sets, else by its first."""
    field = next((name for name in exc.fields if name in given), exc.fields[0])
    return ConfigDomainError(f"field {prefix + field!r}: {exc}")


def load_config(path: Optional[str]) -> ProtocolConfig:
    """Read a config file; missing path or empty file gives the defaults."""
    if path is None:
        return ProtocolConfig()
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


def _linspace(start: float, stop: float, count: int, flag: str) -> np.ndarray:
    """``np.linspace(start, stop, count)``; a ``count`` numpy cannot allocate is a domain
    error naming ``flag``."""
    try:
        return np.linspace(start, stop, count)
    except (ValueError, MemoryError) as exc:
        raise ConfigDomainError(f"{flag}: {count} points do not fit in memory ({exc})") from exc


def parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """``field:start:stop:count`` as the field and its ``count`` evenly spaced values;
    ``entangle_sweep`` checks the field."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigDomainError(f"sweep must be field:start:stop:count, got {text!r}")
    field, start, stop, count = parts
    try:
        start_f, stop_f, count_i = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigDomainError(f"bad sweep bounds in {text!r}") from exc
    for name, value in (("start", start_f), ("stop", stop_f), ("stop - start", stop_f - start_f)):
        if not math.isfinite(value):
            raise ConfigDomainError(f"--sweep {field} must be finite, got {name} = {value!r}")
    if count_i < 1:
        raise ConfigDomainError("sweep count must be >= 1")
    return field, _linspace(start_f, stop_f, count_i, "--sweep")


# ---------------------------------------------------------------------------
# Output formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(columns: Sequence[str], rows: Sequence[Sequence], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    elif fmt == "json":
        # strict JSON has no inf/nan literals; non-finite values become null
        payload = [
            {col: (None if isinstance(v, float) and not math.isfinite(v) else v)
             for col, v in zip(columns, row)}
            for row in rows
        ]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
    else:
        raise ConfigDomainError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Commands


def run_fidelity_sweep(config: ProtocolConfig, fmt: str, out: TextIO,
                       sweep: Optional[str] = None) -> None:
    """Closed-form and pipeline fidelities over a thermal sweep (T or nbar)."""
    if not sweep:
        raise ConfigDomainError("fidelity-sweep requires --sweep")
    field, values = parse_sweep(sweep)
    columns = (field, "nbar", "S", "F_closed_form", "F_pipeline")
    rows = []
    for cfg, heralded in entangle_sweep(config, field, values):
        s = cfg.thermal_ratio
        target = ideal_target_state(heralded.herald_sign, cfg.magnon_cutoff)
        rows.append((
            getattr(cfg, field), cfg.mean_thermal_magnons, s,
            closed_form_fidelity(s),
            fidelity_with_pure(heralded.rho_magnons, target),
        ))
    write_table(columns, rows, fmt, out)


def _phase_grid(count: int) -> np.ndarray:
    return _linspace(0.0, 2.0 * math.pi, count, "--grid-points")


def _witness_columns(with_mc: bool) -> tuple[str, ...]:
    columns = ("delta_phi", "j", "g2_A1Sj", "g2_A2Sj", "R_m", "divergence_flag")
    if with_mc:
        columns += ("mc_g2_A1Sj", "mc_g2_A1Sj_err", "mc_g2_A2Sj", "mc_g2_A2Sj_err",
                    "mc_R_m", "mc_R_m_err")
    return columns


def _witness_row(point: WitnessPoint) -> list:
    """The exact columns of one witness point, in ``_witness_columns`` order."""
    return [point.delta_phi, point.stokes_detector, point.g2_a1, point.g2_a2, point.r_m, point.divergent]


def run_witness_sweep(config: ProtocolConfig, fmt: str, out: TextIO, trials: int = 0,
                      grid_points: int = 25, detector: int = 1) -> None:
    """Exact witness curve; MC companion columns when trials > 0.

    Each phase's exact statistics come from one engine and feed both the
    exact columns and the sampler.  A phase whose counts cannot give an
    estimate (a zero marginal) leaves its MC cells empty.
    """
    phase_stats = exact_phase_statistics(config, _phase_grid(grid_points))
    points = [stats.witness_point(detector) for stats in phase_stats]
    rows = []
    for k, (stats, point) in enumerate(zip(phase_stats, points)):
        row = _witness_row(point)
        if trials > 0:
            counts = montecarlo.sample_counts(config, trials, stream_tags=(k,), statistics=stats)
            try:
                mc = montecarlo.estimate_witness(counts, detector, point.delta_phi)
            except montecarlo.EstimatorError:
                row += [None] * 6
            else:
                row += [mc.g2_a1, mc.g2_a1_error, mc.g2_a2, mc.g2_a2_error,
                        mc.r_m, mc.r_m_error]
        rows.append(row)
    write_table(_witness_columns(trials > 0), rows, fmt, out)


def run_baseline(config: ProtocolConfig, fmt: str, out: TextIO, grid_points: int = 25,
                 detector: int = 1, baseline: str = "product_thermal") -> None:
    points = separable_baseline(config, _phase_grid(grid_points), detector, baseline=baseline)
    write_table(_witness_columns(False), [_witness_row(p) for p in points], fmt, out)


def run_mc_run(config: ProtocolConfig, fmt: str, out: TextIO, trials: int = 0) -> None:
    """Sampled per-trial records, streamed to ``out`` chunk by chunk."""
    if trials < 1:
        raise ConfigDomainError("mc-run requires --trials >= 1")
    montecarlo.write_records(montecarlo.sample_chunks(config, trials), out, fmt)


def run_oracle_compare(config: ProtocolConfig, fmt: str, out: TextIO, trials: int = 0) -> bool:
    """Compare MC estimates against exact engine values; True when all pass.

    Meaningful comparisons need on the order of 10^3 trials or more; fewer
    still give a well-formed report, with wide sigmas and correlation rows
    marked not estimable when a marginal count is zero.
    """
    if trials < 1:
        raise ConfigDomainError("oracle-compare needs --trials >= 1")
    stats = exact_joint_statistics(config)
    table = stats.click_pattern_probabilities()
    counts = montecarlo.sample_counts(config, trials, statistics=stats)
    fractions = montecarlo.click_fractions(counts)

    rows = []

    def gate(name: str, exact: float, estimate: Optional[float], sigma: Optional[float]) -> None:
        """One report row, passed when the estimate lies within ORACLE_SIGMAS sigma of the
        exact value; a missing estimate fails."""
        passed = estimate is not None and bool(abs(estimate - exact) <= ORACLE_SIGMAS * sigma)
        rows.append((name, exact, estimate, sigma, passed))

    herald = config.herald_detector_index
    for name, cells, key in (("herald_probability", table[herald, :], f"stokes_detector{herald}"),
                             ("stokes_click_rate_d1", table[1, :], "stokes_detector1"),
                             ("stokes_click_rate_d2", table[2, :], "stokes_detector2"),
                             ("antistokes_click_rate_d1", table[:, 1], "antistokes_detector1"),
                             ("antistokes_click_rate_d2", table[:, 2], "antistokes_detector2")):
        exact = float(cells.sum())
        gate(name, exact, float(fractions[key]), math.sqrt(max(exact * (1.0 - exact), 1e-300) / trials))

    for anti in (1, 2):
        try:
            est = montecarlo.estimate_g2(counts, anti, 1)
            value, sigma = est.value, max(est.standard_error, 1e-300)
        except montecarlo.EstimatorError:
            value = sigma = None
        gate(f"g2_A{anti}S1", stats.g2_click(anti, 1), value, sigma)

    exact_rm, exact_div = exact_witness_ratio(stats.g2_click(1, 1), stats.g2_click(2, 1))
    try:
        mc_point = montecarlo.estimate_witness(counts, 1, config.read_phase_rad)
    except montecarlo.EstimatorError:
        mc_point = None
    if mc_point is None:
        gate("R_m", exact_rm, None, None)
    elif exact_div or mc_point.divergent:  # only a divergent estimate has no r_m_error
        rows.append(("R_m", exact_rm, mc_point.r_m, float("nan"),
                     bool(exact_div == mc_point.divergent)))
    else:
        gate("R_m", exact_rm, mc_point.r_m, max(mc_point.r_m_error, 1e-300))

    write_table(("observable", "exact", "mc_estimate", "sigma", "passed"), rows, fmt, out)
    return all(row[-1] for row in rows)


# Each command's runner and the command-specific flags it reads; a given flag is
# passed to the runner as a keyword, an absent one takes the runner's default.
COMMANDS = {
    "fidelity-sweep": (run_fidelity_sweep, ("sweep",)),
    "witness-sweep": (run_witness_sweep, ("trials", "grid_points", "detector")),
    "baseline": (run_baseline, ("grid_points", "detector", "baseline")),
    "mc-run": (run_mc_run, ("trials",)),
    "oracle-compare": (run_oracle_compare, ("trials",)),
}


# ---------------------------------------------------------------------------
# Entry point


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """stdout, or ``path`` replaced only when the command returns: the output goes to a
    new file beside it, renamed over it on return and removed if the command raises.
    A path that exists but is not a regular file (a symlink, FIFO or device) is
    written in place."""
    if not path:
        yield sys.stdout
        return
    in_place = os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode)
    target = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        handle = open(target, "w" if in_place else "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigDomainError(f"cannot open --out {path!r}: {exc}") from exc
    try:
        with handle:
            yield handle
    except BaseException:
        if not in_place:
            os.remove(target)
        raise
    if not in_place:
        os.replace(target, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomagnon",
        description="Heralded magnon-entanglement protocol simulator")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, help="override the config rng seed")
    parser.add_argument("--trials", type=int, help="MC trials per point")
    parser.add_argument("--sweep", help="field:start:stop:count")
    parser.add_argument("--grid-points", type=int,
                        help="read-phase grid size for witness commands")
    parser.add_argument("--detector", type=int, choices=(1, 2),
                        help="Stokes detector index j for the witness")
    parser.add_argument("--baseline", help="separable baseline kind for the baseline command")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; sampling is serial")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        runner, reads = COMMANDS[args.command]
        flags = {name: getattr(args, name) for _, names in COMMANDS.values() for name in names
                 if getattr(args, name) is not None}
        unread = [name for name in flags if name not in reads]
        if unread:
            raise ConfigDomainError(f"{args.command} does not read --{unread[0].replace('_', '-')}")
        for name, least in (("trials", 0), ("grid_points", 1), ("seed", 0)):
            value = getattr(args, name)
            if value is not None and value < least:
                raise ConfigDomainError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, rng_seed=args.seed)

        with _output(args.out) as sink:
            passed = runner(config, args.format, sink, **flags)
        return EXIT_ORACLE_FAILURE if passed is False else EXIT_OK
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ConfigDomainError, ProtocolError, ChannelError) as exc:
        if isinstance(exc, (HeraldError, ZeroIntensityError)):
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME_ERROR
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (FockSpaceError, montecarlo.EstimatorError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except BrokenPipeError as exc:
        if not args.out:  # what stdout still buffers is flushed at exit, now into devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"runtime error: output closed before the command finished ({exc})", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
