"""Trajectory sampler and counting estimators for the click statistics.

Each run of the protocol has the same pre-detection state, so its detector
outcome distribution is computed once exactly and trials are drawn i.i.d.
from it (ancestral sampling of the measurement outcomes).  That makes this
module a pure statistics layer, checked against the exact engine: its
witness estimate is ``protocol.witness_ratio`` of the estimated g2 values.

Trials are drawn in chunks and each chunk is folded into a 4x4 count table
over (Stokes, anti-Stokes) click categories, the sufficient statistic the
estimators read: one table per read phase.  ``write_records`` streams chunks
to a sink as CSV or JSON without holding the run and builds no per-trial
Python object: each chunk's text is assembled as numpy bytes.  Per-trial
``ClickRecord`` objects exist only in the library's record-list API
(``sample_trials``, ``records_to_csv``).

Reproducibility contract: the master seed is the config's ``rng_seed``, the
only seed the samplers read.  It is expanded into fixed-size chunk streams
through `numpy.random.SeedSequence([rng_seed, *tags, chunk_index])`.  Chunk
boundaries are fixed, so count tables, record lists and streamed records of
one (config, tags, n_trials) hold the same trials.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .protocol import (
    JointStatistics,
    ProtocolConfig,
    WitnessPoint,
    exact_joint_statistics,
    witness_ratio,
)

CLICK_CATEGORIES = ("none", "detector1", "detector2", "both")
CHUNK_TRIALS = 4096

# Outcome code 4 * stokes + anti -> (stokes category, anti category).
OUTCOMES = tuple((s, a) for s in CLICK_CATEGORIES for a in CLICK_CATEGORIES)


class EstimatorError(Exception):
    """Zero marginal counts or otherwise impossible estimate."""


@dataclass(frozen=True)
class ClickRecord:
    """Detector outcomes of one trial: one Stokes and one anti-Stokes window."""

    trial_index: int
    stokes_click: str
    antistokes_click: str

    def __post_init__(self):
        if self.stokes_click not in CLICK_CATEGORIES:
            raise ValueError(f"bad stokes outcome {self.stokes_click!r}")
        if self.antistokes_click not in CLICK_CATEGORIES:
            raise ValueError(f"bad anti-Stokes outcome {self.antistokes_click!r}")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    standard_error: float
    n_trials: int

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard_error must be >= 0")
        if self.n_trials <= 0:
            raise ValueError("n_trials must be positive")


def _outcome_probabilities(stats: JointStatistics) -> np.ndarray:
    """Flat 16-entry distribution over (stokes category, anti category)."""
    table = stats.click_pattern_probabilities()
    flat = table.reshape(-1)
    flat = np.clip(flat, 0.0, None)
    return flat / flat.sum()


def _draw_chunks(probabilities: np.ndarray, n_trials: int,
                 entropy: Sequence[int]) -> Iterator[np.ndarray]:
    """Chunk codes exactly as ``rng.choice(len(p), size, p=p)`` draws them.

    Chunk ``k`` seeds its generator from ``[*entropy, k]``.  ``choice``
    checks ``p`` and builds its CDF on every call; here both happen once,
    on the call, and each chunk only searches its uniforms in the CDF.
    """
    p = np.ascontiguousarray(probabilities, dtype=np.float64)
    # choice's own checks of p (shape, NaN, sign, normalisation); draws nothing
    np.random.default_rng(0).choice(len(p), size=0, p=p)
    cdf = p.cumsum()
    cdf /= cdf[-1]

    def draw(start: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([*entropy, start // CHUNK_TRIALS]))
        u = rng.random(min(CHUNK_TRIALS, n_trials - start))
        codes = np.zeros(len(u), dtype=np.int64)
        # the first outcome (no click anywhere) dominates: search only the rest
        rest = np.flatnonzero(u >= cdf[0])
        codes[rest] = cdf.searchsorted(u[rest], side="right")
        return codes

    return map(draw, range(0, n_trials, CHUNK_TRIALS))


def sample_chunks(config: ProtocolConfig, n_trials: int, stream_tags: Sequence[int] = (),
                  statistics: Optional[JointStatistics] = None) -> Iterator[np.ndarray]:
    """Per-trial outcome codes ``4 * stokes + anti``, one array per chunk.

    The codes index ``OUTCOMES``.  Inputs are checked and the exact
    distribution is computed on the call; chunks are drawn lazily, so a
    caller holds one chunk at a time whatever ``n_trials`` is.
    ``stream_tags`` lets callers (e.g. a phase sweep) derive independent
    sub-streams from the master seed ``config.rng_seed`` without
    collisions.  ``statistics`` reuses a precomputed exact distribution.
    """
    if n_trials < 1:
        raise EstimatorError("n_trials must be >= 1")
    if statistics is None:
        statistics = exact_joint_statistics(config)
    return _draw_chunks(_outcome_probabilities(statistics), n_trials,
                        [int(config.rng_seed), *map(int, stream_tags)])


def sample_counts(config: ProtocolConfig, n_trials: int, stream_tags: Sequence[int] = (),
                  statistics: Optional[JointStatistics] = None) -> np.ndarray:
    """4x4 table ``counts[stokes, anti]`` over CLICK_CATEGORIES of sampled trials.

    The table is a sufficient statistic for i.i.d. trials and is what the
    estimators read.  Same draws as ``sample_trials`` for the same inputs.
    """
    counts = np.zeros(len(OUTCOMES), dtype=np.int64)
    for chunk in sample_chunks(config, n_trials, stream_tags, statistics):
        counts += np.bincount(chunk, minlength=len(OUTCOMES))
    return counts.reshape(4, 4)


def sample_trials(config: ProtocolConfig, n_trials: int, stream_tags: Sequence[int] = (),
                  statistics: Optional[JointStatistics] = None) -> list[ClickRecord]:
    """Draw per-trial detector outcomes from the exact outcome distribution.

    Deterministic in (config, n_trials), see ``sample_chunks``.
    """
    records = []
    for chunk in sample_chunks(config, n_trials, stream_tags, statistics):
        start = len(records)
        records.extend(ClickRecord(start + i, *OUTCOMES[code])
                       for i, code in enumerate(chunk.tolist()))
    return records


def count_table(records: Iterable[ClickRecord]) -> np.ndarray:
    """4x4 count table ``counts[stokes, anti]`` of a record list."""
    tally = Counter((r.stokes_click, r.antistokes_click) for r in records)
    counts = np.zeros((4, 4), dtype=np.int64)
    for (stokes, anti), n in tally.items():
        counts[CLICK_CATEGORIES.index(stokes), CLICK_CATEGORIES.index(anti)] = n
    return counts


def _as_table(counts) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.shape != (4, 4):
        raise EstimatorError(
            f"expected a 4x4 count table over CLICK_CATEGORIES, got shape {counts.shape}")
    return counts


# Estimator arithmetic stays in Python ints: NumPy would turn n_s * n_a into
# a float before dividing, which rounds once the product passes 2**53.


def click_fractions(counts: np.ndarray) -> dict[str, float]:
    """Per-category fractions for both detection windows of a count table."""
    counts = _as_table(counts)
    n = int(counts.sum())
    if n == 0:
        raise EstimatorError("no trials")
    out = {}
    for k, category in enumerate(CLICK_CATEGORIES):
        out[f"stokes_{category}"] = int(counts[k, :].sum()) / n
        out[f"antistokes_{category}"] = int(counts[:, k].sum()) / n
    return out


def estimate_g2(counts: np.ndarray, anti_detector: int,
                stokes_detector: int) -> EstimateWithError:
    """Coincidence estimator N_coinc N / (N_anti N_stokes) with counting error.

    Reads a count table.  Uses exclusive single-detector outcomes: trials
    where both detectors of a window fired are counted in the table but
    excluded here, mirroring the herald rule that discards double clicks.
    The standard error is the Poisson propagation
    sqrt(1/N_coinc + 1/N_anti + 1/N_stokes) relative; with zero
    coincidences it falls back to the one-count scale.
    """
    if anti_detector not in (1, 2) or stokes_detector not in (1, 2):
        raise EstimatorError("detector indices must be 1 or 2")
    counts = _as_table(counts)
    n = int(counts.sum())
    if n == 0:
        raise EstimatorError("no trials")
    # category k of CLICK_CATEGORIES is "detector k" for k = 1, 2
    n_s = int(counts[stokes_detector, :].sum())
    n_a = int(counts[:, anti_detector].sum())
    n_c = int(counts[stokes_detector, anti_detector])
    if n_s == 0:
        raise EstimatorError(f"zero Stokes counts at detector {stokes_detector}")
    if n_a == 0:
        raise EstimatorError(f"zero anti-Stokes counts at detector {anti_detector}")
    scale = n / (n_s * n_a)
    if n_c == 0:
        return EstimateWithError(value=0.0, standard_error=scale, n_trials=n)
    value = n_c * scale
    rel = math.sqrt(1.0 / n_c + 1.0 / n_a + 1.0 / n_s)
    return EstimateWithError(value=value, standard_error=value * rel, n_trials=n)


def estimate_witness(counts: np.ndarray, stokes_detector: int, delta_phi: float) -> WitnessPoint:
    """Witness estimate of the count table of one read phase, with delta-method errors.

    The point is flagged divergent when the estimated denominator
    (g2_A1 - g2_A2) lies within two standard errors of zero; a flagged
    point carries an infinite value and no error instead of a NaN.
    """
    est1 = estimate_g2(counts, 1, stokes_detector)
    est2 = estimate_g2(counts, 2, stokes_detector)
    g1, g2 = est1.value, est2.value
    s1, s2 = est1.standard_error, est2.standard_error
    diff = g1 - g2
    if abs(diff) < 2.0 * math.hypot(s1, s2):
        value, divergent, sigma = math.inf, True, None
    else:
        value, divergent = witness_ratio(g1, g2), False
        d_g1 = 4.0 / diff**2 - 8.0 * (g1 + g2 - 1.0) / diff**3
        d_g2 = 4.0 / diff**2 + 8.0 * (g1 + g2 - 1.0) / diff**3
        sigma = math.sqrt((d_g1 * s1) ** 2 + (d_g2 * s2) ** 2)
    return WitnessPoint(
        delta_phi=float(delta_phi), stokes_detector=stokes_detector,
        g2_a1=g1, g2_a2=g2, r_m=value, divergent=divergent,
        g2_a1_error=s1, g2_a2_error=s2, r_m_error=sigma,
        n_trials=est1.n_trials)


# ---------------------------------------------------------------------------
# Columnar serialization: one trial per line


RECORD_HEADER = "trial_index,stokes_click,antistokes_click"


def records_to_csv(records: Iterable[ClickRecord]) -> str:
    lines = [RECORD_HEADER]
    lines.extend(f"{r.trial_index},{r.stokes_click},{r.antistokes_click}" for r in records)
    return "\n".join(lines) + "\n"


# Per-outcome record tails: the text after the trial index, byte-identical to
# records_to_csv lines and to json.dumps(indent=2) of the record dicts.
_CSV_TAILS = tuple(f",{s},{a}\n" for s, a in OUTCOMES)
_JSON_HEAD = '\n  {\n    "trial_index": '
_JSON_TAILS = tuple(f',\n    "stokes_click": "{s}",\n    "antistokes_click": "{a}"\n  }}'
                    for s, a in OUTCOMES)


def _byte_table(texts: Sequence[str]) -> np.ndarray:
    """ASCII bytes of ``texts``, one zero-padded ``uint8`` row each."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.encode("ascii").ljust(width, b"\0") for t in texts),
                         dtype=np.uint8).reshape(len(texts), width)


def _format_chunk(codes: np.ndarray, start: int, item: str, tails: np.ndarray) -> str:
    """``item + str(start + i) + tail of codes[i]`` for every trial ``i`` of a chunk.

    Each record fills one row of a byte matrix: the ``item`` text, the
    index digits right-aligned behind zero bytes, then the zero-padded
    ``tails`` row of its outcome.  Dropping every zero byte leaves the text.
    """
    n, h = len(codes), len(item)
    width = len(str(start + n - 1))
    digits = np.empty((width, n), dtype=np.uint8)
    quotient = np.arange(start, start + n, dtype=np.int64)
    for j in range(width - 1, -1, -1):
        quotient, digits[j] = np.divmod(quotient, 10)
    digits += ord("0")
    # indices ascend, so those short of digit j are a leading run: blank them
    for j in range(width - 1):
        digits[j, :max(10 ** (width - 1 - j) - start, 0)] = 0
    rows = np.empty((n, h + width + tails.shape[1]), dtype=np.uint8)
    rows[:, :h] = np.frombuffer(item.encode("ascii"), dtype=np.uint8)
    rows[:, h:h + width] = digits.T
    rows[:, h + width:] = tails[codes]
    return rows[rows != 0].tobytes().decode("ascii")


def write_records(chunks: Iterable[np.ndarray], out: TextIO, fmt: str = "csv") -> None:
    """Stream sampled chunks to ``out`` as CSV records or a JSON list, one write per chunk."""
    if fmt == "csv":
        head, item, tails, foot = RECORD_HEADER + "\n", "", _CSV_TAILS, ""
    elif fmt == "json":
        head, item, tails, foot = "[", "," + _JSON_HEAD, _JSON_TAILS, "\n]\n"
    else:
        raise EstimatorError(f"unknown record format {fmt!r}")
    tail_table = _byte_table(tails)
    out.write(head)
    start = 0
    for chunk in chunks:
        text = _format_chunk(chunk, start, item, tail_table)
        # each JSON record opens with its "," separator, except the first
        out.write(text[1:] if item and not start else text)
        start += len(chunk)
    out.write(foot)

