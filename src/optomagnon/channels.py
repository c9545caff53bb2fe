"""Physical building blocks: unitaries, loss maps, thermal weights, click POVMs.

Unitaries are built by exponentiating the truncated generator on the one- or
two-mode subspace they act on (skew-Hermitian generator, so the result is
exactly unitary on the truncated space).  Each ``*_block`` function returns
that small block, and the matching ``*_unitary`` lifts it into the full
registry as a sparse operator; `loss_kraus_operators` likewise lifts the
blocks of `loss_kraus_blocks`.  The top Fock level of each mode serves as a
guard band: population that would flow past the cutoff is reported as a
truncation estimate, and callers keep working amplitudes below it.

Phase convention: beamsplitters default to the symmetric convention, in
which the reflected amplitude picks up a factor i.  Which detector heralds
which superposition sign downstream depends on this choice; tests assert
signs against this documented convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .fock import (
    DensityOperator,
    FockSpaceError,
    ModeOperator,
    ModeRegistry,
    _digits,
    _embed_block,
    embed_mode_pair,
    embed_single_mode,
    partial_trace,
    sandwich,
    single_mode_annihilation,
)

SYMMETRIC_BS_PHASE = math.pi / 2  # reflected amplitude picks up i

SQUEEZER_TAIL_BOUND = 1e-5


class ChannelError(FockSpaceError):
    """Invalid channel parameters or truncation bound violations."""


class TruncationError(ChannelError):
    """Requested operation would push too much weight past a mode cutoff."""


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Two-mode mixer exp[theta (e^{i phi} a+ b - e^{-i phi} a b+)].

    mixing_angle pi/4 with the default phase gives 50/50 splitting of a
    single photon; relative_phase pi/2 is the symmetric convention.
    """

    mode_a: str
    mode_b: str
    mixing_angle: float = math.pi / 4
    relative_phase: float = SYMMETRIC_BS_PHASE


@dataclass(frozen=True)
class SqueezerSpec:
    """Two-mode squeezer between an optical and a magnon mode.

    tanh^2(r) is the probability of a single pair-creation event, so the
    vacuum maps to amplitudes proportional to (1, tanh r, tanh^2 r, ...) on
    the paired occupations.
    """

    optical_mode: str
    magnon_mode: str
    squeeze_parameter: float

    def __post_init__(self):
        if self.squeeze_parameter < 0:
            raise ChannelError("squeeze_parameter must be >= 0")

    @classmethod
    def from_pair_probability(cls, optical_mode: str, magnon_mode: str, pair_probability: float) -> "SqueezerSpec":
        if not 0.0 <= pair_probability < 1.0:
            raise ChannelError(f"pair probability {pair_probability!r} outside [0, 1)")
        return cls(optical_mode, magnon_mode, math.atanh(math.sqrt(pair_probability)))


@dataclass(frozen=True)
class SwapSpec:
    """Excitation-exchange coupler; swap_angle pi/2 exchanges the two modes."""

    optical_mode: str
    magnon_mode: str
    swap_angle: float

    def __post_init__(self):
        if not 0.0 <= self.swap_angle <= math.pi / 2:
            raise ChannelError(f"swap_angle {self.swap_angle!r} outside [0, pi/2]")


@dataclass(frozen=True)
class DetectorSpec:
    """Non-number-resolving click detector.

    The no-click POVM element is diagonal with entries
    (1 - efficiency)^n (1 - dark_click_probability); the click element is
    its complement, so the pair is complete by construction.
    """

    efficiency: float = 1.0
    dark_click_probability: float = 0.0

    def __post_init__(self):
        for name in ("efficiency", "dark_click_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChannelError(f"{name} {value!r} outside [0, 1]", fields=(name,))

    def no_click_weights(self, cutoff: int) -> np.ndarray:
        ns = np.arange(cutoff + 1)
        return (1.0 - self.efficiency) ** ns * (1.0 - self.dark_click_probability)


def _pair_block(registry: ModeRegistry, mode_a: str, mode_b: str, generator) -> np.ndarray:
    """exp(``generator(a, b)``) of the two modes' truncated ladder matrices, row-major in (n_a, n_b)."""
    da = registry.cutoff_of(mode_a) + 1
    db = registry.cutoff_of(mode_b) + 1
    a = np.kron(single_mode_annihilation(da - 1), np.eye(db))
    b = np.kron(np.eye(da), single_mode_annihilation(db - 1))
    return scipy.linalg.expm(generator(a, b))


def beamsplitter_block(spec: BeamsplitterSpec, registry: ModeRegistry) -> np.ndarray:
    """Photon-number-conserving two-mode mixing unitary on (mode_a, mode_b)."""
    if spec.mode_a == spec.mode_b:
        raise ChannelError("beamsplitter needs two distinct modes")
    phase = np.exp(1j * spec.relative_phase)
    return _pair_block(
        registry, spec.mode_a, spec.mode_b,
        lambda a, b: spec.mixing_angle * (phase * a.conj().T @ b - np.conj(phase) * a @ b.conj().T))


def beamsplitter_unitary(spec: BeamsplitterSpec, registry: ModeRegistry) -> ModeOperator:
    """`beamsplitter_block` lifted to the registry."""
    return embed_mode_pair(registry, spec.mode_a, spec.mode_b, beamsplitter_block(spec, registry))


def squeezer_vacuum_tail(spec: SqueezerSpec, registry: ModeRegistry) -> float:
    """Weight an untruncated squeezer would put past the cutoff, from vacuum."""
    c = min(registry.cutoff_of(spec.optical_mode), registry.cutoff_of(spec.magnon_mode))
    return math.tanh(spec.squeeze_parameter) ** (2 * (c + 1))


def two_mode_squeezer_block(spec: SqueezerSpec, registry: ModeRegistry) -> np.ndarray:
    """Pair-creation unitary exp[r (a+ m+ - a m)] on (optical, magnon), truncated.

    Raises TruncationError when the vacuum-input weight beyond the cutoff
    would exceed ``SQUEEZER_TAIL_BOUND``; callers read the estimate via
    `squeezer_vacuum_tail`.
    """
    tail = squeezer_vacuum_tail(spec, registry)
    if tail > SQUEEZER_TAIL_BOUND:
        raise TruncationError(
            f"squeezer tail {tail:.3e} exceeds bound {SQUEEZER_TAIL_BOUND:.3e}; raise cutoffs or lower r"
        )
    r = spec.squeeze_parameter
    return _pair_block(registry, spec.optical_mode, spec.magnon_mode,
                       lambda a, m: r * (a.conj().T @ m.conj().T - a @ m))


def two_mode_squeezer_unitary(spec: SqueezerSpec, registry: ModeRegistry) -> ModeOperator:
    """`two_mode_squeezer_block` lifted to the registry."""
    return embed_mode_pair(registry, spec.optical_mode, spec.magnon_mode,
                           two_mode_squeezer_block(spec, registry))


def swap_coupler_block(spec: SwapSpec, registry: ModeRegistry) -> np.ndarray:
    """Beamsplitter-type coupling exp[-i theta (a m+ + a+ m)] on (optical, magnon)."""
    return _pair_block(registry, spec.optical_mode, spec.magnon_mode,
                       lambda a, m: -1j * spec.swap_angle * (a @ m.conj().T + a.conj().T @ m))


def swap_coupler_unitary(spec: SwapSpec, registry: ModeRegistry) -> ModeOperator:
    """`swap_coupler_block` lifted to the registry."""
    return embed_mode_pair(registry, spec.optical_mode, spec.magnon_mode,
                           swap_coupler_block(spec, registry))


def phase_shift_block(mode: str, angle: float, registry: ModeRegistry) -> np.ndarray:
    """Diagonal e^{i n angle} on one mode; occupation probabilities invariant."""
    return np.diag(np.exp(1j * angle * np.arange(registry.cutoff_of(mode) + 1)))


def phase_shift_unitary(mode: str, angle: float, registry: ModeRegistry) -> ModeOperator:
    """`phase_shift_block` lifted to the registry."""
    return embed_single_mode(registry, mode, phase_shift_block(mode, angle, registry))


def loss_kraus_blocks(registry: ModeRegistry, mode: str, transmissivity: float) -> np.ndarray:
    """Kraus operators of the pure-loss map on one mode, as a table of single-mode blocks:
    block k loses k quanta with binomial weight, k = 0..cutoff.  The lossless map
    (transmissivity 1) has none to apply: the table is empty."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ChannelError(f"transmissivity {transmissivity!r} outside [0, 1]")
    d, eta = registry.cutoff_of(mode) + 1, transmissivity
    if transmissivity == 1.0:
        return np.zeros((0, d, d), dtype=complex)
    kraus = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        for n in range(k, d):
            kraus[k, n - k, n] = math.sqrt(math.comb(n, k) * (eta ** (n - k)) * ((1 - eta) ** k))
    return kraus


def loss_kraus_operators(registry: ModeRegistry, mode: str, transmissivity: float) -> list:
    """`loss_kraus_blocks` lifted to the registry as CSR matrices; the lossless map gives an
    empty list, which `loss_kraus_sum` applies by returning its input untouched."""
    return [_embed_block(registry, (mode,), block) for block in loss_kraus_blocks(registry, mode, transmissivity)]


def loss_channel(rho: DensityOperator, mode: str, transmissivity: float) -> DensityOperator:
    """Pure-loss map on one mode; trace preserving for any transmissivity.

    The map is defined by mixing the mode with a vacuum environment on a
    beamsplitter with cos^2(theta) = transmissivity and discarding the
    environment.  It is applied as the equivalent binomial Kraus sum,
    without enlarging the space; the test suite cross-checks the two.
    """
    kraus = loss_kraus_operators(rho.registry, mode, transmissivity)
    return DensityOperator(rho.registry, loss_kraus_sum(rho.matrix, kraus))


def loss_kraus_sum(matrices: np.ndarray, kraus: list) -> np.ndarray:
    """Sum of ``K x K+`` over the `loss_kraus_operators` ``kraus``, on a matrix or a stack."""
    if not kraus:
        return matrices
    out = np.zeros_like(matrices)
    for op in kraus:
        out += sandwich(op, matrices)
    return out


def geometric_weights(mean_occupation: float, cutoff: int) -> np.ndarray:
    """Untruncated thermal weights (1 - S) S^n for n = 0..cutoff, S = nbar/(nbar + 1)."""
    s = mean_occupation / (mean_occupation + 1.0)
    return (1.0 - s) * s ** np.arange(cutoff + 1)


def thermal_weights(mean_occupation: float, cutoff: int) -> np.ndarray:
    """Diagonal of the truncated thermal state: the geometric weights renormalized."""
    if mean_occupation < 0:
        raise ChannelError(f"mean occupation {mean_occupation!r} must be >= 0")
    weights = geometric_weights(mean_occupation, cutoff)
    return weights / weights.sum()


class ClickOutcome(NamedTuple):
    """Result of a click measurement.

    ``rho_click`` is None when the click probability is numerically zero,
    signalling that conditioning on a click would be conditioning on an
    impossible event; callers requesting that branch raise.
    Both post-measurement states have the measured mode traced out; when the
    measured mode was the only one, both states are None and only the
    probabilities remain.
    """

    p_click: float
    rho_click: Optional[DensityOperator]
    rho_noclick: Optional[DensityOperator]


def click_povm_diagonals(rho: DensityOperator, mode: str, spec: DetectorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Full-space diagonals of the no-click and click POVM elements."""
    (n,) = _digits(rho.registry, [mode])
    no_click = spec.no_click_weights(rho.registry.cutoff_of(mode))[n]
    return no_click, 1.0 - no_click


def click_measurement(rho: DensityOperator, mode: str, spec: DetectorSpec) -> ClickOutcome:
    """Apply the non-resolving click POVM to one mode and trace it out.

    Returns the click probability and both normalized post-measurement
    states.  Diagonal POVM elements make the state update a row/column
    rescaling by the element's square root.
    """
    no_click_diag, click_diag = click_povm_diagonals(rho, mode, spec)
    diag_rho = np.real(np.diag(rho.matrix)).copy()
    p_noclick = float(np.dot(diag_rho, no_click_diag))
    p_click = min(max(float(np.dot(diag_rho, click_diag)), 0.0), 1.0)  # rounding may pass 1

    keep = [label for label in rho.registry.labels if label != mode]

    def _conditioned(weights: np.ndarray, prob: float) -> Optional[DensityOperator]:
        if prob <= 1e-15 or not keep:
            return None
        root = np.sqrt(weights)
        mat = rho.matrix * root[:, None] * root[None, :]
        reduced = partial_trace(DensityOperator(rho.registry, mat), keep)
        return reduced.normalized()

    return ClickOutcome(
        p_click=p_click,
        rho_click=_conditioned(click_diag, p_click),
        rho_noclick=_conditioned(no_click_diag, p_noclick),
    )
