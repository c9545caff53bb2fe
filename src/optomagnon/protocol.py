"""The heralded two-station entanglement protocol as exact Fock-space pipelines.

Entangling stage
    A weak pulse is split on a 50/50 beamsplitter and pumps one scattering
    site per interferometer arm.  The pump is carried classically (its mean
    photon number and phase per arm), while the scattered optical mode and
    the magnon mode of each arm are simulated exactly: a two-mode squeezer
    whose pair probability is (pump photons in that arm) x (per-photon
    scattering probability) creates correlated photon/magnon pairs.  The
    scattered fields interfere on a second 50/50 beamsplitter and a click
    on exactly one detector heralds a shared single-magnon state; which
    detector fired fixes the superposition sign.

Thermal occupation
    Imperfect ground-state cooling leaves each magnon mode with mean
    occupation nbar.  Two treatments are available.  The default,
    ``mixture_overlay``, books residual excitations as a classical mixture
    over initial occupation sectors whose quanta ride along unchanged; it
    reproduces the closed-form contaminated state and its fidelity
    1/(1 + 2S + S^2) with S = nbar/(nbar + 1).  The alternative,
    ``squeezed_thermal``, seeds the squeezers with true thermal states, so
    pair creation is bosonically stimulated by the residual occupation;
    the heralded fidelity then drops to roughly (1 - S)^3.  The two differ
    at first order in S; the ``F_pipeline`` and ``F_closed_form`` columns of
    ``fidelity-sweep`` show the gap.

Read-out stage
    A swap coupler converts each magnon mode into an anti-Stokes optical
    mode, arm A picks up a configurable phase offset, and the two fields
    interfere on a closing 50/50 beamsplitter.  Cross-correlations between
    the Stokes and anti-Stokes detectors over unconditioned runs feed the
    entanglement witness: for any separable pair of magnon modes the
    witness ratio stays at or above one, so a dip below one certifies
    entanglement.

Conventions (fixed and asserted by tests): all beamsplitters use the
symmetric convention (reflection picks up i); the pump phase acquired on
reflection propagates into the pair amplitude of arm B; detector 1 then
heralds the minus superposition and detector 2 the plus superposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .channels import (
    BeamsplitterSpec,
    DetectorSpec,
    SqueezerSpec,
    SwapSpec,
    beamsplitter_block,
    geometric_weights,
    loss_kraus_blocks,
    loss_kraus_gather,
    phase_shift_block,
    squeezer_vacuum_tail,
    swap_coupler_block,
    thermal_weights,
    two_mode_squeezer_block,
)
from .fock import (
    ANTISTOKES_A,
    ANTISTOKES_B,
    MAGNON_A,
    MAGNON_B,
    STOKES_A,
    STOKES_B,
    DensityOperator,
    FockSpaceError,
    ModeRegistry,
    MultiModeState,
    _embed_block,
    lift_block,
    sandwich,
)

# Which superposition sign each herald detector projects onto, under the
# symmetric beamsplitter convention with the pump entering port A.
HERALD_SIGN_OF_DETECTOR = {1: -1, 2: +1}

REGIME_LIMIT = 0.1

# Largest stage dimension (256 at the default cutoffs): admits cutoffs 8/8 (D = 6561), rejects 9/9.
# Peak RSS of a fresh process (58 MB after imports) for entangle_stage / a 25-phase witness_exact:
# 66 / 80 MB at cutoffs 6/6 and 74 / 97 MB at 7/7; with losses 0.8, 83 / 83 MB at 6/6 and
# 117 / 117 MB at 7/7 (2-core Xeon VM, 1 BLAS thread).
PIPELINE_MAX_DIMENSION = 8192

# Herald probabilities below this are treated as no herald (HeraldError).
HERALD_FLOOR = 1e-12

# The exact engine reads only the Stokes sectors whose weight (magnon-block trace) exceeds this.
STOKES_SECTOR_FLOOR = 1e-18

# |g2_A1 - g2_A2| below this makes the exact witness ratio divergent (+inf, flagged).
WITNESS_DIVERGENCE_EPSILON = 1e-8


class ProtocolError(FockSpaceError):
    """Invalid protocol configuration or impossible conditioning."""


class HeraldError(ProtocolError):
    """Herald probability below HERALD_FLOOR: nothing to condition on."""


class ZeroIntensityError(ProtocolError):
    """A witness intensity or click rate vanished: no Stokes or no anti-Stokes light to correlate."""


class ProtocolRegimeWarning(UserWarning):
    """Pulse or scattering probability outside the weak-excitation regime."""


def mean_thermal_occupation(frequency_hz: float, temperature_k: float) -> float:
    """Bose-Einstein occupation 1/(exp(h nu / k T) - 1) at the given frequency."""
    if frequency_hz <= 0:
        raise ProtocolError(f"frequency must be positive, got {frequency_hz!r}")
    if temperature_k <= 0:
        raise ProtocolError(f"temperature must be positive, got {temperature_k!r}")
    kt = 1.380649e-23 * temperature_k  # the exact SI Boltzmann constant k, in J/K
    if kt == 0.0:  # k T underflows: exp(-h nu / k T) is 0
        return 0.0
    x = 6.62607015e-34 * frequency_hz / kt  # the exact SI Planck constant h, in J s
    if x == 0.0:  # h nu / k T underflows: nbar ~ 1/x is past the largest double
        return math.inf
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:  # x > ~709: exp(-x) < 1e-308
        return 0.0


@dataclass(frozen=True)
class ProtocolConfig:
    """All physical and numerical parameters of one experiment.

    Defaults reproduce the reference operating point: a 7 GHz magnon mode
    at 100 mK, pulse mean photon number 0.01 and per-photon scattering
    probability 0.01, ideal optics and detectors, weak read-out.
    """

    pulse_mean_photons: float = 0.01
    stokes_probability: float = 0.01
    stokes_probability_b: Optional[float] = None  # asymmetric device knob
    magnon_frequency_hz: float = 7.0e9
    temperature_k: float = 0.1
    nbar_override: Optional[float] = None  # takes precedence over temperature
    propagation_transmissivity_a: float = 1.0
    propagation_transmissivity_b: float = 1.0
    detector: DetectorSpec = field(default=DetectorSpec())
    read_phase_rad: float = math.pi / 2
    read_swap_angle_rad: float = 0.2
    herald_detector_index: int = 1
    optical_cutoff: int = 3
    magnon_cutoff: int = 3
    rng_seed: int = 12345
    thermal_model: str = "mixture_overlay"  # or "squeezed_thermal"
    magnon_decay_delay_ratio: float = 0.0  # (pulse delay)/(magnon lifetime)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ProtocolError(f"{f.name} must be finite, got {value!r}", fields=(f.name,))
            if f.type == "int" and not isinstance(value, (int, np.integer)):
                raise ProtocolError(f"{f.name} must be an integer, got {value!r}", fields=(f.name,))
        if self.pulse_mean_photons < 0:
            raise ProtocolError("pulse_mean_photons must be >= 0", fields=("pulse_mean_photons",))
        for name in ("stokes_probability", "stokes_probability_b"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ProtocolError(f"{name} must lie in [0, 1], got {value!r}", fields=(name,))
        if self.magnon_frequency_hz <= 0:
            raise ProtocolError("magnon_frequency_hz must be positive", fields=("magnon_frequency_hz",))
        if self.temperature_k < 0:
            raise ProtocolError("temperature_k must be >= 0", fields=("temperature_k",))
        if self.nbar_override is not None and self.nbar_override < 0:
            raise ProtocolError("nbar_override must be >= 0", fields=("nbar_override",))
        if not self.thermal_ratio < 1.0:  # NaN when nbar overflows to inf
            sources = (("nbar_override",) if self.nbar_override is not None
                       else ("temperature_k", "magnon_frequency_hz"))
            raise ProtocolError(f"{sources[0]} makes the thermal ratio nbar/(nbar + 1) round to 1",
                                fields=sources)
        for name in ("propagation_transmissivity_a", "propagation_transmissivity_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ProtocolError(f"{name} must lie in [0, 1]", fields=(name,))
        if self.herald_detector_index not in (1, 2):
            raise ProtocolError("herald_detector_index must be 1 or 2", fields=("herald_detector_index",))
        if not 0.0 <= self.read_swap_angle_rad <= math.pi / 2:
            raise ProtocolError("read_swap_angle_rad must lie in [0, pi/2]", fields=("read_swap_angle_rad",))
        for name in ("optical_cutoff", "magnon_cutoff"):
            if getattr(self, name) < 1:
                raise ProtocolError(f"{name} must be >= 1, got {getattr(self, name)!r}", fields=(name,))
        if not math.isfinite(self.read_phase_rad * self.optical_cutoff):  # the top anti-Stokes level's phase
            raise ProtocolError(f"read_phase_rad = {self.read_phase_rad!r} times optical_cutoff = "
                                f"{self.optical_cutoff} overflows", fields=("read_phase_rad", "optical_cutoff"))
        stage_dimension = ((self.optical_cutoff + 1) * (self.magnon_cutoff + 1)) ** 2
        if stage_dimension > PIPELINE_MAX_DIMENSION:
            raise ProtocolError(
                f"optical_cutoff = {self.optical_cutoff} and magnon_cutoff = "
                f"{self.magnon_cutoff} give a stage dimension of {stage_dimension}, above "
                f"the limit {PIPELINE_MAX_DIMENSION}; lower the cutoffs",
                fields=("optical_cutoff", "magnon_cutoff"))
        if self.thermal_model not in ("mixture_overlay", "squeezed_thermal"):
            raise ProtocolError(f"unknown thermal_model {self.thermal_model!r}", fields=("thermal_model",))
        if self.magnon_decay_delay_ratio < 0:
            raise ProtocolError("magnon_decay_delay_ratio must be >= 0", fields=("magnon_decay_delay_ratio",))
        if self.rng_seed < 0:
            raise ProtocolError(f"rng_seed must be >= 0, got {self.rng_seed!r}", fields=("rng_seed",))
        if self.pulse_mean_photons > REGIME_LIMIT:
            warnings.warn(
                f"pulse_mean_photons = {self.pulse_mean_photons} is outside the weak-pulse "
                f"regime (<< 1); higher-order photon terms grow",
                ProtocolRegimeWarning, stacklevel=2)
        for name in ("stokes_probability", "stokes_probability_b"):
            value = getattr(self, name)
            if value is not None and value > REGIME_LIMIT:
                warnings.warn(
                    f"{name} = {value} is outside the single-scattering regime (<< 1)",
                    ProtocolRegimeWarning, stacklevel=2)

    @property
    def mean_thermal_magnons(self) -> float:
        """Resolved nbar: the override if given, else from the temperature."""
        if self.nbar_override is not None:
            return self.nbar_override
        if self.temperature_k == 0.0:
            return 0.0
        return mean_thermal_occupation(self.magnon_frequency_hz, self.temperature_k)

    @property
    def thermal_ratio(self) -> float:
        nbar = self.mean_thermal_magnons
        return nbar / (nbar + 1.0)

    @property
    def pair_probability_a(self) -> float:
        """Pair-creation probability in arm A: half the pulse photons scatter with probability P."""
        return 0.5 * self.pulse_mean_photons * self.stokes_probability

    @property
    def pair_probability_b(self) -> float:
        p_b = self.stokes_probability_b if self.stokes_probability_b is not None else self.stokes_probability
        return 0.5 * self.pulse_mean_photons * p_b

    def magnon_registry(self) -> ModeRegistry:
        return ModeRegistry.of((MAGNON_A, self.magnon_cutoff), (MAGNON_B, self.magnon_cutoff))


@dataclass(frozen=True)
class HeraldedState:
    """Conditional two-magnon state after a successful herald."""

    rho_magnons: DensityOperator
    herald_probability: float
    herald_sign: int
    truncation_error: float


@dataclass(frozen=True)
class WitnessPoint:
    """Witness evaluation at one read phase for one Stokes detector."""

    delta_phi: float
    stokes_detector: int
    g2_a1: float
    g2_a2: float
    r_m: float
    divergent: bool
    g2_a1_error: Optional[float] = None
    g2_a2_error: Optional[float] = None
    r_m_error: Optional[float] = None
    n_trials: Optional[int] = None


def _superposition(lo: tuple[int, int], hi: tuple[int, int], sign: int,
                   magnon_cutoff: int) -> MultiModeState:
    """Two-magnon state (|lo> + sign |hi>)/sqrt(2)."""
    if sign not in (+1, -1):
        raise ProtocolError("sign must be +1 or -1")
    registry = ModeRegistry.of((MAGNON_A, magnon_cutoff), (MAGNON_B, magnon_cutoff))
    amps = np.zeros(registry.dimension, dtype=complex)
    amps[registry.index_of(lo)] = 1.0 / math.sqrt(2.0)
    amps[registry.index_of(hi)] = sign / math.sqrt(2.0)
    return MultiModeState(registry, amps)


def ideal_target_state(sign: int, magnon_cutoff: int = 3) -> MultiModeState:
    """Path-entangled single-magnon state (|01> + sign |10>)/sqrt(2)."""
    return _superposition((0, 1), (1, 0), sign, magnon_cutoff)


def closed_form_fidelity(thermal_ratio: float) -> float:
    """Fidelity of the thermally contaminated heralded state to the target."""
    s = thermal_ratio
    return 1.0 / (1.0 + 2.0 * s + s * s)


def thermal_final_state(thermal_ratio: float, sign: int, magnon_cutoff: int = 3) -> DensityOperator:
    """Closed-form heralded state with residual thermal magnons.

    Mixture of the target state and its copies shifted up by the initial
    occupations, with weights 1 : S : S : S^2 for the four low sectors.
    """
    s = thermal_ratio
    if not 0.0 <= s < 1.0:
        raise ProtocolError(f"thermal ratio {s!r} outside [0, 1)")
    if magnon_cutoff < 2:
        raise ProtocolError("magnon_cutoff must be >= 2 to hold the contaminated sectors")
    components = [
        (1.0, _superposition((0, 1), (1, 0), sign, magnon_cutoff)),
        (s, _superposition((0, 2), (1, 1), sign, magnon_cutoff)),
        (s, _superposition((1, 1), (2, 0), sign, magnon_cutoff)),
        (s * s, _superposition((1, 2), (2, 1), sign, magnon_cutoff)),
    ]
    registry = components[0][1].registry
    mat = np.zeros((registry.dimension, registry.dimension), dtype=complex)
    for weight, state in components:
        mat += weight * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityOperator(registry, mat / np.trace(mat))


# ---------------------------------------------------------------------------
# Entangling stage


@dataclass(frozen=True)
class EntangleFrontState:
    """Unconditioned optical/magnon state just before the herald detectors, on its Stokes sectors.

    ``blocks[s1, s2]`` is the (magnon A, magnon B) block of Stokes occupations (s1, s2)
    (detector-1 port, detector-2 port).  The Stokes-off-diagonal coherences are never
    built: the herald's partial trace and every trace read only Stokes-diagonal entries.
    ``truncation_estimate`` collects squeezer tails, thermal leakage and any trace drift.
    The optics before the thermal step (``_optical_front``) carry the state on its support
    through operators lifted onto that support alone; the herald beamsplitter, which keeps
    the total Stokes number, then runs per total-Stokes-number shell and writes only the
    sector-diagonal entries, into a read-only stack that a thermal sweep shares across its
    points.  Where neither the overlay nor a trace divide changes it, ``blocks`` is that
    shared stack itself.
    """

    blocks: np.ndarray
    truncation_estimate: float


def _lift_step(registry: ModeRegistry, labels: tuple[str, ...], blocks: Sequence[np.ndarray],
               support: np.ndarray) -> tuple[np.ndarray, list]:
    """The Kraus ``blocks`` of one step on the modes ``labels`` lifted onto the sorted basis
    indices ``support``: the support the step leaves (the union of the rows they reach), and
    its terms, each its rows' positions there and its (rows x support) CSR matrix."""
    terms = [lift_block(registry, labels, block, support) for block in blocks]
    if terms:
        support = np.unique(np.concatenate([rows for rows, _ in terms]))
    return support, [(np.searchsorted(support, rows), op) for rows, op in terms]


def _support_step(size: int, terms: list, rho: np.ndarray) -> np.ndarray:
    """A `_lift_step` step on ``rho``, a state on the support it was lifted onto: the lossless
    loss (no terms) leaves it as it is, a unitary (one term) is its sandwich, and a loss
    the sum of its Kraus sandwiches, each added onto its rows' positions in the ``size``-index
    support the step leaves.  Bit-identical to the full-space sandwich and Kraus sum there."""
    if not terms:
        return rho
    if len(terms) == 1:
        return sandwich(terms[0][1], rho)
    out = np.zeros((size, size), dtype=complex)
    for at, op in terms:
        out[np.ix_(at, at)] += sandwich(op, rho)
    return out


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Contiguous diagonal of a block stack, in dense basis order."""
    return np.diagonal(stack, axis1=-2, axis2=-1).reshape(-1)


def _thermal_overlay(blocks: np.ndarray, nbar: float, dims: tuple[int, int],
                     corner: tuple[int, int]) -> tuple[np.ndarray, float]:
    """Classical-mixture bookkeeping of residual thermal occupation on a sector stack: each
    magnon mode starts with n quanta with weight (1-S) S^n, which ride along unchanged (a
    slice-add on its ket and bra axes); weight pushed past a cutoff is dropped and reported.
    ``blocks`` is zero outside the magnon levels below ``corner``, so only that corner of
    each shifted copy is added: the skipped terms are zeros added to sums that start at
    +0.0, so the result is bit for bit the whole-block overlay."""
    d_a, d_b = dims
    tensor = blocks.reshape(-1, d_a, d_b, d_a, d_b)
    out = np.zeros_like(tensor)
    shifts_a, shifts_b = ([(n, w, min(c, d - n)) for n, w in enumerate(geometric_weights(nbar, d - 1))
                           if w > 0.0] for d, c in zip(dims, corner))
    for n_a, w_a, k_a in shifts_a:
        for n_b, w_b, k_b in shifts_b:
            out[:, n_a:n_a + k_a, n_b:n_b + k_b, n_a:n_a + k_a, n_b:n_b + k_b] += (w_a * w_b) * tensor[
                :, :k_a, :k_b, :k_a, :k_b]
    out = out.reshape(blocks.shape)
    retained = float(np.sum(_diagonal(out)).real)
    out /= retained
    return out, max(0.0, 1.0 - retained)


def _product_thermal(nbar: float, cutoff: int) -> np.ndarray:
    """Two-magnon product of truncated thermal states, magnon A first."""
    w = thermal_weights(nbar, cutoff)
    return np.kron(np.diag(w), np.diag(w)).astype(complex)


def _shell_layout(shell: np.ndarray, n_shells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions grouped by ``shell`` (each position's shell number), in ascending order
    within a shell: each position's index in its shell, the (shells x largest shell) table of
    each shell's positions padded with 0, and each shell's size."""
    sizes = np.bincount(shell, minlength=n_shells)
    order = np.argsort(shell, kind="stable")
    local = np.empty_like(order)
    local[order] = np.arange(shell.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    table = np.zeros((n_shells, sizes.max()), dtype=int)
    table[shell, local] = np.arange(shell.size)
    return local, table, sizes


def _lift_front(config: ProtocolConfig) -> tuple[list, tuple, tuple[int, int], float]:
    """The entangling optics of ``config`` up to (not including) the herald detectors, on
    (Stokes A, Stokes B, magnon A, magnon B), from the start: the vacuum, or the whole magnon
    block of Stokes sector (0, 0) when ``squeezed_thermal`` seeds the squeezers.  The steps
    before the herald beamsplitter have their small blocks (Kraus blocks; a unitary is one
    block, the lossless loss has none) lifted (`_lift_step`) onto the support the steps
    before them leave, as (support size, terms) for `_support_step`.  The herald beamsplitter
    is lifted once onto the last support ``S``.  It conserves the total Stokes number
    ``s1 + s2`` and only its Stokes-sector-diagonal output is read, so `_optical_front`
    applies it per total-Stokes-number shell through index arrays built here, with q and p
    the largest input and output shell:
      ``gather``     (|S|, q) flat indices of each state row's entries in its own shell;
      ``transpose``  (|S|, p) flat indices into the (output rows, q) product that take each
                     shell's transpose;
      ``kept``, ``put``  flat indices of the same-sector entries in the (output rows, p)
                     product, and of their places in the (co+1, co+1, d_m, d_m) stack.
    Returns the steps, the herald as (its CSR matrix, gather, transpose, kept, put), the
    magnon corner (levels below it per mode) outside which the stack is zero, and the
    squeezer-tail truncation.  The chain depends only on the start; the temperature is read
    only to pick it."""
    co, cm = config.optical_cutoff, config.magnon_cutoff
    d_m = (cm + 1) ** 2
    registry = ModeRegistry.of((STOKES_A, co), (STOKES_B, co), (MAGNON_A, cm), (MAGNON_B, cm))

    # The symmetric 50/50 splitter leaves the classical pump amplitudes alpha/sqrt(2) in arm A
    # and i alpha/sqrt(2) in arm B (phases 0 and pi/2).  The scattered field inherits the pump
    # phase, shifted by the -i of the interaction generator: -pi/2 in arm A, 0 in arm B.
    steps, truncation = [], 0.0
    for stokes, magnon, pair_prob, pair_phase in (
        (STOKES_A, MAGNON_A, config.pair_probability_a, -math.pi / 2.0),
        (STOKES_B, MAGNON_B, config.pair_probability_b, 0.0),
    ):
        if pair_prob == 0.0:
            continue
        spec = SqueezerSpec.from_pair_probability(stokes, magnon, pair_prob)
        truncation += squeezer_vacuum_tail(spec, registry)
        steps.append(((stokes, magnon), [two_mode_squeezer_block(spec, registry)]))
        if pair_phase != 0.0:
            steps.append(((stokes,), [phase_shift_block(stokes, pair_phase, registry)]))

    for stokes, eta in ((STOKES_A, config.propagation_transmissivity_a),
                        (STOKES_B, config.propagation_transmissivity_b)):
        steps.append(((stokes,), loss_kraus_blocks(registry, stokes, eta)))

    support = np.arange(d_m if _seeded_thermal(config) else 1)
    chain = []
    for labels, blocks in steps:
        support, terms = _lift_step(registry, labels, blocks, support)
        chain.append((support.size, terms))

    herald_bs = beamsplitter_block(BeamsplitterSpec(STOKES_A, STOKES_B), registry)
    rows, op = lift_block(registry, (STOKES_A, STOKES_B), herald_bs, support)
    shell_in, shell_out = (sum(np.divmod(indices // d_m, co + 1)) for indices in (support, rows))
    local_in, table_in, _ = _shell_layout(shell_in, 2 * co + 1)
    _, table_out, sizes_out = _shell_layout(shell_out, 2 * co + 1)
    gather = np.arange(support.size)[:, None] * support.size + table_in[shell_in]
    transpose = table_out[shell_in] * table_in.shape[1] + local_in[:, None]
    sector, magnons = np.divmod(rows, d_m)
    partner = table_out[shell_out]  # the output rows of each output row's shell
    kept = np.flatnonzero((np.arange(partner.shape[1]) < sizes_out[shell_out, None])
                          & (sector[partner] == sector[:, None]))
    row, col = np.divmod(kept, partner.shape[1])
    put = (sector[row] * d_m + magnons[row]) * d_m + magnons[partner[row, col]]
    corner = tuple(int(levels.max()) + 1 for levels in np.divmod(magnons, cm + 1))
    return chain, (op, gather, transpose, kept, put), corner, truncation


def _optical_front(config: ProtocolConfig, lifted: tuple) -> tuple[np.ndarray, float, tuple[int, int]]:
    """The entangling optics up to (not including) the herald detectors, before the thermal
    step: the start state is carried through the `_lift_front` steps ``lifted`` of
    ``config``, and the herald beamsplitter writes straight into the Stokes-sector stack.
    The herald is one sandwich over all total-Stokes-number shells: the state's same-shell
    entries are gathered into a (|S|, q) stack, the lifted CSR matrix multiplies it, each
    shell's conjugate transpose is gathered, the matrix multiplies that, and the
    same-sector entries are scattered into the stack.  Each kept element sums the same
    stored entries in the same order as a sandwich over the whole support would, so it has
    its bits.
    Returns the read-only sector stack, the squeezer-tail truncation and the magnon corner
    outside which the stack is zero.  The temperature is read only when
    ``squeezed_thermal`` seeds the squeezers."""
    chain, (op, gather, transpose, kept, put), corner, truncation = lifted
    co, cm = config.optical_cutoff, config.magnon_cutoff
    d_m = (cm + 1) ** 2

    if _seeded_thermal(config):  # on the magnon block of Stokes sector (0, 0)
        rho = _product_thermal(config.mean_thermal_magnons, cm)
    else:
        rho = np.ones((1, 1), dtype=complex)
    for size, terms in chain:
        rho = _support_step(size, terms, rho)

    half = np.conjugate(np.take(op @ np.take(rho, gather), transpose))  # (op rho)+ per shell
    blocks = np.zeros((co + 1, co + 1, d_m, d_m), dtype=complex)
    blocks.reshape(-1)[put] = np.take(op @ half, kept)
    blocks.flags.writeable = False
    return blocks, truncation, corner


def _seeded_thermal(config: ProtocolConfig) -> bool:
    """Whether the residual occupation seeds the squeezers rather than being overlaid."""
    return config.thermal_model == "squeezed_thermal" and config.mean_thermal_magnons > 0.0


def _thermal_step(config: ProtocolConfig, optical: tuple) -> EntangleFrontState:
    """The temperature-dependent rest of the front, on an ``_optical_front`` of ``config``
    (which it does not modify): the overlay or the seeded model's truncation weight, and
    the trace-drift renormalisation."""
    blocks, truncation, corner = optical
    nbar = config.mean_thermal_magnons
    if _seeded_thermal(config):
        truncation += 2.0 * config.thermal_ratio ** (config.magnon_cutoff + 1)
    elif nbar > 0.0:
        blocks, leak = _thermal_overlay(blocks, nbar, config.magnon_registry().dims, corner)
        truncation += leak

    # traces sum the full-length diagonal in dense order
    trace = np.sum(_diagonal(blocks))
    drift = abs(float(trace.real) - 1.0)
    truncation += drift
    if drift > 0:  # in place unless ``blocks`` is still the read-only optical stack
        blocks = np.divide(blocks, trace, out=blocks if blocks.flags.writeable else None)
    return EntangleFrontState(blocks=blocks, truncation_estimate=truncation)


def entangle_front_state(config: ProtocolConfig) -> EntangleFrontState:
    """Run the entangling optics up to (not including) the herald detectors, then the
    thermal step."""
    return _thermal_step(config, _optical_front(config, _lift_front(config)))


def _port_probability(stack: np.ndarray, axis: int, weights: np.ndarray) -> float:
    """Probability of the POVM diagonal ``weights`` on Stokes axis ``axis`` of ``stack``."""
    n_port = np.indices(stack.shape[:-1])[axis].reshape(-1)
    return float(np.dot(_diagonal(stack).real.copy(), weights[n_port]))


def _port_conditioned(stack: np.ndarray, axis: int, weights: np.ndarray) -> np.ndarray:
    """Normalized state that the POVM diagonal ``weights`` on Stokes axis ``axis`` of ``stack``
    leaves on the other modes."""
    root = np.sqrt(weights)
    out = np.zeros(stack.shape[:axis] + stack.shape[axis + 1:], dtype=complex)
    for s in range(stack.shape[axis]):
        out += (np.take(stack, s, axis) * root[s]) * root[s]
    return out / np.sum(_diagonal(out))


def entangle_stage(config: ProtocolConfig) -> HeraldedState:
    """Herald on a single click and return the conditional two-magnon state: the configured
    detector clicks while the other stays silent (double clicks are discarded), and the
    consumed optical modes are traced out."""
    return _herald(config, entangle_front_state(config))


THERMAL_SWEEP_FIELDS = ("temperature_k", "nbar_override")


def entangle_sweep(config: ProtocolConfig, field: str,
                   values: Sequence[float]) -> list[tuple[ProtocolConfig, HeraldedState]]:
    """``entangle_stage`` at each value of the thermal field ``field`` (one of
    ``THERMAL_SWEEP_FIELDS``), as (point config, heralded state) pairs.  Under
    ``mixture_overlay`` the optical front does not read the temperature, so it is built
    once and only the thermal step and the herald run per point; ``squeezed_thermal``
    seeds the squeezers with each point's occupation, so each point carries its own state
    through the front's lifted blocks, built and lifted once per start."""
    if field not in THERMAL_SWEEP_FIELDS:
        raise ProtocolError(f"a thermal sweep varies one of {THERMAL_SWEEP_FIELDS}, not {field!r} "
                            "(for a thermal-ratio sweep use nbar_override = S/(1-S))")
    if field == "temperature_k" and config.nbar_override is not None:
        raise ProtocolError("sweeping temperature_k changes nothing while nbar_override is set "
                            "(nbar_override takes precedence); sweep nbar_override or unset it")
    points, lifted, optical = [], {}, None
    for value in values:
        cfg = replace(config, **{field: float(value)})
        if optical is None or cfg.thermal_model == "squeezed_thermal":
            seeded = _seeded_thermal(cfg)
            if seeded not in lifted:
                lifted[seeded] = _lift_front(cfg)
            optical = _optical_front(cfg, lifted[seeded])
        points.append((cfg, _herald(cfg, _thermal_step(cfg, optical))))
    return points


def _herald(config: ProtocolConfig, front: EntangleFrontState) -> HeraldedState:
    """The single-click herald of ``entangle_stage`` on the front state of ``config``."""
    no_click = config.detector.no_click_weights(config.optical_cutoff)
    herald = config.herald_detector_index

    p_click = _port_probability(front.blocks, herald - 1, 1.0 - no_click)
    if p_click < HERALD_FLOOR:
        raise HeraldError(f"herald detector {herald} clicks with probability {p_click:.3e}, "
                          f"below HERALD_FLOOR = {HERALD_FLOOR:.1e}")
    rho_click = _port_conditioned(front.blocks, herald - 1, 1.0 - no_click)
    # the silent port is the one Stokes axis left
    herald_probability = p_click * (1.0 - _port_probability(rho_click, 0, 1.0 - no_click))
    if herald_probability < HERALD_FLOOR:
        raise HeraldError(f"herald detector {herald} clicks with detector {3 - herald} silent with "
                          f"probability {herald_probability:.3e}, below HERALD_FLOOR = {HERALD_FLOOR:.1e}")
    rho_magnons = _port_conditioned(rho_click, 0, no_click)

    return HeraldedState(
        rho_magnons=DensityOperator(config.magnon_registry(), rho_magnons),
        herald_probability=herald_probability,
        herald_sign=HERALD_SIGN_OF_DETECTOR[herald],
        truncation_error=front.truncation_estimate,
    )


# ---------------------------------------------------------------------------
# Read-out stage


def read_stage(heralded: HeraldedState, config: ProtocolConfig) -> DensityOperator:
    """Convert the heralded magnons to anti-Stokes light behind the interferometer.

    Returns the two-detector optical state (detector 1 port first) with the
    magnon modes traced out; uses the configured read phase.
    """
    optics = _ReadOptics(config, heralded.rho_magnons.matrix[None])
    cm, d = config.magnon_cutoff, optics.antistokes.dimension
    rows, slots = np.nonzero(optics._in_shell)
    stack = np.zeros(((cm + 1) ** 2, d, d), dtype=complex)  # zero off the shells
    stack[:, rows, optics._columns[rows, slots]] = optics.phased(config.read_phase_rad)[rows, slots].T
    mixed = sandwich(optics.closing, stack).reshape(cm + 1, cm + 1, d, d)
    return DensityOperator(optics.antistokes, mixed.sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# Joint Stokes/anti-Stokes statistics (exact witness and sampling backend)


@dataclass(frozen=True)
class JointStatistics:
    """Exact joint photon-number distribution over the four detector ports.

    ``number_probabilities[s1, s2, a1, a2]`` is the probability of finding
    those occupations in the Stokes detector-1/2 and anti-Stokes
    detector-1/2 ports of one unconditioned run at a fixed read phase.
    ``stokes_below_floor[j - 1]`` is the weight of Stokes detector j's light if all of it is below
    ``STOKES_SECTOR_FLOOR``, so that the exact engine reads none of it, nor the anti-Stokes light
    of the magnons in those sectors (else 0).
    """

    delta_phi: float
    number_probabilities: np.ndarray
    detector: DetectorSpec
    stokes_below_floor: tuple[float, float] = (0.0, 0.0)

    def _cross_ratio(self, joint: float, anti: float, stokes: float, i: int, j: int,
                     kind: str, reach: str) -> float:
        """``joint / (anti * stokes)``; a ZeroIntensityError names each vanished factor or their underflow."""
        if anti * stokes > 0.0:
            return joint / (anti * stokes)
        vanished = [f"no {light} {reach} {light} detector {k}" for light, k, mean
                    in (("Stokes", j, stokes), ("anti-Stokes", i, anti)) if mean <= 0.0]
        if stokes <= 0.0 < self.stokes_below_floor[j - 1]:
            vanished[0] = (f"the Stokes light at Stokes detector {j} is below STOKES_SECTOR_FLOOR = "
                           f"{STOKES_SECTOR_FLOOR:.1e} (weight {self.stokes_below_floor[j - 1]:.3e})")
            if anti <= 0.0:  # the magnons paired with that light went with its sectors
                vanished[1] = (f"any anti-Stokes light at anti-Stokes detector {i} was dropped "
                               "with those Stokes sectors")
        raise ZeroIntensityError(f"a detector {kind} vanished: " + "; ".join(vanished or [
            f"the Stokes {kind} {stokes!r} times the anti-Stokes {kind} {anti!r} underflows"]))

    def g2_number(self, i: int, j: int) -> float:
        """Second-order cross-coherence from exact pre-detection moments."""
        probs = self.number_probabilities
        n_anti, n_stokes = (
            np.arange(probs.shape[axis]).reshape([-1 if a == axis else 1 for a in range(4)])
            for axis in (2 if i == 1 else 3, 0 if j == 1 else 1))
        return self._cross_ratio(float(np.sum(probs * (n_anti * n_stokes))), float(np.sum(probs * n_anti)),
                                 float(np.sum(probs * n_stokes)), i, j, "intensity", "light reaches")

    def click_pattern_probabilities(self) -> np.ndarray:
        """4x4 outcome table over (stokes, anti) categories none/d1/d2/both.

        Applies the configured non-resolving detector POVM independently to
        each port; exact counterpart of one sampled trial.  Built on the first
        call; every caller then reads that one table, which is read-only.
        """
        return self._click_table

    @cached_property
    def _click_table(self) -> np.ndarray:
        probs = self.number_probabilities
        tables = []
        for axis in range(4):
            d = probs.shape[axis]
            no_click = self.detector.no_click_weights(d - 1)
            tables.append(np.stack([no_click, 1.0 - no_click]))  # [outcome, n]
        t = np.einsum("abcd,xa,yb,zc,wd->xyzw", probs, *tables)
        # category = 2 * click2 + click1: none, d1, d2, both
        table = t.transpose(1, 0, 3, 2).reshape(4, 4)
        table.flags.writeable = False
        return table

    def g2_click(self, i: int, j: int) -> float:
        """Click-based cross-correlation; exact limit of the counting estimator."""
        table = self.click_pattern_probabilities()
        return self._cross_ratio(float(table[j, i]), float(table[:, i].sum()), float(table[j, :].sum()),
                                 i, j, "click rate", "clicks at")

    def witness_point(self, stokes_detector: int) -> WitnessPoint:
        """Exact witness at this read phase from the pre-detection moments."""
        if stokes_detector not in (1, 2):
            raise ProtocolError("stokes_detector must be 1 or 2")
        g2_a1 = self.g2_number(1, stokes_detector)
        g2_a2 = self.g2_number(2, stokes_detector)
        value, divergent = exact_witness_ratio(g2_a1, g2_a2)
        return WitnessPoint(
            delta_phi=self.delta_phi, stokes_detector=stokes_detector,
            g2_a1=g2_a1, g2_a2=g2_a2, r_m=value, divergent=divergent)


def witness_ratio(g2_a1: float, g2_a2: float) -> float:
    """Witness value 4 (g2_A1 + g2_A2 - 1) / (g2_A1 - g2_A2)^2 from the two cross-coherences."""
    diff = g2_a1 - g2_a2
    return 4.0 * (g2_a1 + g2_a2 - 1.0) / (diff * diff)


def exact_witness_ratio(g2_a1: float, g2_a2: float) -> tuple[float, bool]:
    """Witness value of two exact cross-coherences (number moments or click rates) and its
    divergence flag: +inf, flagged, when they are balanced within WITNESS_DIVERGENCE_EPSILON."""
    divergent = abs(g2_a1 - g2_a2) < WITNESS_DIVERGENCE_EPSILON
    return (math.inf if divergent else witness_ratio(g2_a1, g2_a2)), divergent


class _ReadOptics:
    """Block-restricted read optics on a stack of two-magnon matrices.

    On (magnon A, magnon B, anti-Stokes A, anti-Stokes B) each read stage
    computes only the blocks its successor reads.  The swaps make the
    magnon-diagonal blocks one magnon-B level at a time, and of each level only
    the anti-Stokes-photon-number-shell-diagonal blocks are kept: the closing
    beamsplitter conserves the photon number and the detectors read only its
    output diagonals.  Both anti-Stokes losses then run on those blocks alone,
    since loss Kraus k takes shell n + k to shell n on ket and bra alike.  The
    swaps are lifted onto their anti-Stokes-vacuum columns only and the closing
    beamsplitter once onto the whole anti-Stokes space (each row's stored
    entries lie in its own shell), with the entries and per-row order of the
    full-space lift there; every loss, the magnon decay too, is
    `loss_kraus_gather`'s index gather.  So kept elements match the full-space
    sandwiches bit for bit.

    ``fixed`` holds those phase-independent blocks in one padded layout,
    (anti-Stokes row, column within its shell, stack), zero past each shell's
    size, with the stack (sector, magnon A, magnon B) as the contiguous last
    axis.  Each read phase is then `phased` into one buffer, and
    `detector_diagonals` takes one closing-beamsplitter product for all shells
    and reads only the output diagonals from it.
    """

    def __init__(self, config: ProtocolConfig, rho: np.ndarray):
        co, cm, theta = config.optical_cutoff, config.magnon_cutoff, config.read_swap_angle_rad
        self.antistokes = ModeRegistry.of((ANTISTOKES_A, co), (ANTISTOKES_B, co))
        d = self.antistokes.dimension
        self._anti_a_numbers, anti_b = np.divmod(np.arange(d), co + 1)
        # each basis index's place in its anti-Stokes photon-number shell, and each shell's indices
        shell = self._anti_a_numbers + anti_b
        local, table, sizes = _shell_layout(shell, 2 * co + 1)
        shells = [row[:size] for row, size in zip(table, sizes)]
        # the phase-independent decay, swaps and losses of the stack ``rho``,
        # as blocks [sector, n_magnon_a, n_magnon_b, anti-Stokes shell^2]
        survival = math.exp(-config.magnon_decay_delay_ratio)  # 1, lossless, without decay
        whole = [np.arange(rho.shape[-1])]
        for label in (MAGNON_A, MAGNON_B):  # before the anti-Stokes vacuum is adjoined
            (rho,) = loss_kraus_gather([rho], config.magnon_registry(), label, survival, whole)
        # swap A on (magnon A, magnon B, anti-Stokes A): lifted on the anti-Stokes-vacuum
        # columns; out, one magnon-A level of rows at a time
        arm_a = ModeRegistry.of((MAGNON_A, cm), (MAGNON_B, cm), (ANTISTOKES_A, co))
        swap_a = _embed_block(arm_a, (ANTISTOKES_A, MAGNON_A),
                              swap_coupler_block(SwapSpec(ANTISTOKES_A, MAGNON_A, theta), arm_a),
                              np.arange(0, arm_a.dimension, co + 1))
        rows = (cm + 1) * (co + 1)
        rho = np.stack([sandwich(swap_a[a * rows:(a + 1) * rows], rho)
                        for a in range(cm + 1)], axis=1)
        # swap B on each magnon-A diagonal block: lifted on the anti-Stokes-B-vacuum
        # columns; out, one magnon-B level of rows at a time, of which only the shell
        # blocks are kept
        arm_b = ModeRegistry.of((MAGNON_B, cm), (ANTISTOKES_A, co), (ANTISTOKES_B, co))
        swap_b = _embed_block(arm_b, (ANTISTOKES_B, MAGNON_B),
                              swap_coupler_block(SwapSpec(ANTISTOKES_B, MAGNON_B, theta), arm_b),
                              np.arange(0, arm_b.dimension, co + 1))
        fixed = [np.zeros(rho.shape[:2] + (cm + 1, idx.size, idx.size), dtype=complex) for idx in shells]
        for b in range(cm + 1):
            level = sandwich(swap_b[b * d:(b + 1) * d], rho)
            for idx, block in zip(shells, fixed):
                block[:, :, b] = level[..., idx[:, None], idx]
        # both anti-Stokes losses take shell n + k to shell n on ket and bra alike
        for label, eta in ((ANTISTOKES_A, config.propagation_transmissivity_a),
                           (ANTISTOKES_B, config.propagation_transmissivity_b)):
            fixed = loss_kraus_gather(fixed, self.antistokes, label, eta, shells)
        stack = math.prod(fixed[0].shape[:3])
        self.fixed = np.zeros((d, table.shape[1], stack), dtype=complex)
        for idx, block in zip(shells, fixed):
            self.fixed[idx, :idx.size] = block.reshape(stack, idx.size, idx.size).transpose(1, 2, 0)
        self._phased = None  # made by the first `phased` call, once the temporaries above are freed
        # the basis index of each (row, column within its shell) slot, and which slots lie
        # inside the row's shell rather than in its padding
        self._columns, self._in_shell = table[shell], np.arange(table.shape[1]) < sizes[shell, None]
        # the closing beamsplitter, and its stored entries as (row, column within the row's
        # shell) weights, real and imaginary parts apart; a slot it stores nothing in weighs 0
        closing_bs = beamsplitter_block(BeamsplitterSpec(ANTISTOKES_A, ANTISTOKES_B), self.antistokes)
        _, self.closing = lift_block(self.antistokes, (ANTISTOKES_A, ANTISTOKES_B), closing_bs, np.arange(d))
        entries = self.closing.tocoo()
        weights = np.zeros((d, table.shape[1], 1), dtype=complex)
        weights[entries.row, local[entries.col], 0] = entries.data
        self._weights = (weights.real.copy(), weights.imag.copy())

    def phased(self, delta_phi: float) -> np.ndarray:
        """``fixed`` with the arm-A read phase on ket and bra (numpy's two complex multiplies per
        element, ket first), in a buffer that the next call overwrites."""
        phases = np.exp(1j * delta_phi * self._anti_a_numbers)
        self._phased = np.multiply(self.fixed, phases[:, None, None], out=self._phased)
        return np.multiply(self._phased, phases.conj()[self._columns, None], out=self._phased)

    def detector_diagonals(self, delta_phi: float) -> np.ndarray:
        """Anti-Stokes number probabilities at read phase ``delta_phi``: the diagonal of each
        stack matrix behind the closing beamsplitter, as (stack, anti-Stokes basis).

        One CSR product makes ``half = op x`` for every shell at once.  Diagonal element r of
        ``op half+`` is the sum of ``op[r, c] conj(half[r, c])`` over row r's stored entries in
        stored (column) order onto +0.0; it is summed here with scipy's real part of that
        product, ``op.re h.re - op.im (-h.im)``, written as ``op.re h.re + op.im h.im`` in real
        arithmetic (the same bits).  A slot the row stores nothing in adds a signed zero, which
        leaves a sum begun at +0.0 unchanged.  So each diagonal has the bits of the per-shell
        sandwich's, and no off-diagonal output is built."""
        d, q, stack = self.fixed.shape
        half = (self.closing @ self.phased(delta_phi).reshape(d, q * stack)).reshape(d, q, stack)
        re, im = half.real, half.imag
        np.multiply(re, self._weights[0], out=re)
        np.multiply(im, self._weights[1], out=im)
        np.add(re, im, out=re)
        diagonals = np.zeros((stack, d))
        for c in range(q):
            diagonals += re[:, c].T
        return diagonals


def _stokes_sector_blocks(front: EntangleFrontState) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Stokes sectors (s1, s2) of weight above STOKES_SECTOR_FLOOR and an owning stack of their blocks."""
    sectors = [s for s in np.ndindex(front.blocks.shape[:2])
               if float(np.trace(front.blocks[s]).real) > STOKES_SECTOR_FLOOR]
    return sectors, np.stack([front.blocks[s] for s in sectors])


def _phase_statistics(config: ProtocolConfig, phase_grid: Sequence[float],
                      sectors: list[tuple[int, int]], blocks: np.ndarray,
                      stokes_below_floor: tuple[float, float] = (0.0, 0.0)) -> list[JointStatistics]:
    """Detector statistics per read phase of the magnon blocks ``blocks[k]`` of Stokes
    sectors ``sectors[k]``, with the ``stokes_below_floor`` of `JointStatistics`."""
    optics = _ReadOptics(config, blocks)
    co, cm = config.optical_cutoff, config.magnon_cutoff
    out = []
    for delta_phi in phase_grid:
        probs = np.zeros((co + 1, co + 1, co + 1, co + 1))
        diags = optics.detector_diagonals(float(delta_phi)).reshape(len(sectors), cm + 1, cm + 1, -1)
        for (s1, s2), diag in zip(sectors, diags):
            # a contiguous (cm+1, cm+1, co+1, co+1) array fixes the summation order
            probs[s1, s2] += diag.reshape(cm + 1, cm + 1, co + 1, co + 1).sum(axis=(0, 1))
        out.append(JointStatistics(float(delta_phi), probs, config.detector, stokes_below_floor))
    return out


def exact_phase_statistics(config: ProtocolConfig,
                           phase_grid: Sequence[float]) -> list[JointStatistics]:
    """Exact detector statistics at every read phase of a grid, from one front build;
    the one path from the front state through the read optics to statistics."""
    sectors, blocks = _stokes_sector_blocks(front := entangle_front_state(config))
    below_floor = [0.0 if any(s[p] for s in sectors) else sum(float(np.trace(front.blocks[s]).real)
                   for s in np.ndindex(front.blocks.shape[:2]) if s[p]) for p in (0, 1)]
    del front  # dropped once its sector blocks are taken, before the phase loop
    return _phase_statistics(config, phase_grid, sectors, blocks, tuple(below_floor))


def exact_joint_statistics(config: ProtocolConfig) -> JointStatistics:
    """Exact detector statistics of one unconditioned run at the configured read phase."""
    return exact_phase_statistics(config, [config.read_phase_rad])[0]


def witness_exact(config: ProtocolConfig, phase_grid: Sequence[float],
                  stokes_detector: int = 1) -> list[WitnessPoint]:
    """Exact witness curve over the read-phase grid for one Stokes detector."""
    return [stats.witness_point(stokes_detector) for stats in exact_phase_statistics(config, phase_grid)]


SEPARABLE_BASELINES = ("product_thermal", "classical_mixture")


def separable_baseline(config: ProtocolConfig, phase_grid: Sequence[float],
                       stokes_detector: int = 1,
                       baseline: str = "product_thermal") -> list[WitnessPoint]:
    """Witness curve with the heralded magnons replaced by a separable state.

    The Stokes field keeps the protocol's statistics but all correlation
    with the magnon modes is severed, which is what makes the replacement
    separable across the Stokes/magnon split as well.
    """
    co, cm = config.optical_cutoff, config.magnon_cutoff
    registry = config.magnon_registry()
    if baseline == "product_thermal":
        mat = _product_thermal(config.mean_thermal_magnons, cm)
        if not mat[1:].any():  # the magnon vacuum |0, 0> alone
            raise ZeroIntensityError(
                "the product_thermal baseline at zero thermal occupation is the magnon vacuum, so "
                "no anti-Stokes light reaches the detectors; the classical_mixture baseline has light")
    elif baseline == "classical_mixture":
        mat = np.zeros((registry.dimension, registry.dimension), dtype=complex)
        mat[registry.index_of((0, 1)), registry.index_of((0, 1))] = 0.5
        mat[registry.index_of((1, 0)), registry.index_of((1, 0))] = 0.5
    else:
        raise ProtocolError(f"unknown baseline {baseline!r}; choose from {SEPARABLE_BASELINES}")

    # Stokes-sector weights: the front's diagonal summed over the magnon axes
    diag = _diagonal(entangle_front_state(config).blocks).real.copy()
    weights = diag.reshape(co + 1, co + 1, cm + 1, cm + 1).sum(axis=(2, 3))
    sectors = [s for s in np.ndindex(weights.shape) if weights[s] > 0.0]
    blocks = np.stack([float(weights[s]) * mat for s in sectors])
    return [stats.witness_point(stokes_detector)
            for stats in _phase_statistics(config, phase_grid, sectors, blocks)]


# ---------------------------------------------------------------------------
# State distance


def trace_distance(rho_a: DensityOperator, rho_b: DensityOperator) -> float:
    """Trace distance (1/2) ||rho_a - rho_b||_1 of two densities on the same registry."""
    if rho_a.registry.modes != rho_b.registry.modes:
        raise ProtocolError("trace distance needs matching registries")
    eigs = np.linalg.eigvalsh(rho_a.matrix - rho_b.matrix)
    return 0.5 * float(np.abs(eigs).sum())
