import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optomagnon import protocol
from optomagnon.channels import (
    BeamsplitterSpec,
    ChannelError,
    DetectorSpec,
    SqueezerSpec,
    SwapSpec,
    TruncationError,
    beamsplitter_block,
    beamsplitter_unitary,
    click_measurement,
    geometric_weights,
    loss_channel,
    loss_kraus_blocks,
    loss_kraus_operators,
    loss_kraus_sum,
    phase_shift_block,
    phase_shift_unitary,
    squeezer_vacuum_tail,
    swap_coupler_block,
    swap_coupler_unitary,
    thermal_weights,
    two_mode_squeezer_block,
    two_mode_squeezer_unitary,
)
from optomagnon.fock import (
    ANTISTOKES_A,
    ANTISTOKES_B,
    MAGNON_A,
    MAGNON_B,
    STOKES_A,
    STOKES_B,
    DensityOperator,
    ModeRegistry,
    MultiModeState,
    _digits,
    _embed_block,
    apply_unitary,
    embed_single_mode,
    fidelity_with_pure,
    lift_block,
    partial_trace,
    sandwich,
)
from optomagnon.protocol import (
    HeraldError,
    ProtocolConfig,
    ProtocolError,
    ProtocolRegimeWarning,
    ZeroIntensityError,
    _lift_front,
    _optical_front,
    _stokes_sector_blocks,
    _thermal_overlay,
    JointStatistics,
    closed_form_fidelity,
    entangle_front_state,
    entangle_stage,
    entangle_sweep,
    exact_joint_statistics,
    exact_phase_statistics,
    ideal_target_state,
    mean_thermal_occupation,
    read_stage,
    separable_baseline,
    thermal_final_state,
    trace_distance,
    witness_exact,
)

COLD = ProtocolConfig(temperature_k=0.0)


# ---------------------------------------------------------------------------
# thermal occupation


def test_mean_thermal_occupation_reference_points():
    nbar = mean_thermal_occupation(7e9, 0.1)
    assert abs(nbar - 0.036) < 1e-3
    s_50mk = mean_thermal_occupation(7e9, 0.05)
    assert abs(s_50mk / (1 + s_50mk) - 0.001) < 5e-4


@pytest.mark.parametrize("temperature_k", [4e-4, 1e-6, 1e-310, 5e-324])
def test_mean_thermal_occupation_is_zero_below_the_smallest_double(temperature_k):
    # h nu / k T beyond ~709 overflows exp; the occupation there is below 1e-308
    assert mean_thermal_occupation(7e9, temperature_k) == 0.0
    assert ProtocolConfig(temperature_k=temperature_k).thermal_ratio == 0.0
    assert mean_thermal_occupation(7e9, 6e-4) == 1.0 / math.expm1(
        scipy.constants.h * 7e9 / (scipy.constants.k * 6e-4))


def test_mean_thermal_occupation_limits_and_errors():
    assert mean_thermal_occupation(7e9, 1e-3) < 1e-100
    with pytest.raises(ProtocolError):
        mean_thermal_occupation(7e9, 0.0)
    with pytest.raises(ProtocolError):
        mean_thermal_occupation(-1.0, 0.1)


def test_nbar_override_precedence():
    cfg = ProtocolConfig(temperature_k=0.1, nbar_override=0.5)
    assert cfg.mean_thermal_magnons == 0.5
    assert ProtocolConfig(temperature_k=0.0).mean_thermal_magnons == 0.0


def test_oversized_cutoffs_raise_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="optical_cutoff = 9 and magnon_cutoff = 9"):
            ProtocolConfig(optical_cutoff=9, magnon_cutoff=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert ProtocolConfig(optical_cutoff=8, magnon_cutoff=8).optical_cutoff == 8


@pytest.mark.parametrize("name", ["optical_cutoff", "magnon_cutoff", "herald_detector_index", "rng_seed"])
@pytest.mark.parametrize("value", [3.5, 2.0])
def test_a_non_integer_integer_field_is_an_error_carrying_it(name, value):
    with pytest.raises(ProtocolError, match=f"^{name} must be an integer, got {value!r}$") as err:
        ProtocolConfig(**{name: value})
    assert err.value.fields == (name,)


def test_regime_warnings():
    with pytest.warns(ProtocolRegimeWarning):
        ProtocolConfig(pulse_mean_photons=0.2)
    with pytest.warns(ProtocolRegimeWarning):
        ProtocolConfig(stokes_probability=0.2)


def test_regime_warning_covers_arm_b_scattering():
    with pytest.warns(ProtocolRegimeWarning, match="stokes_probability_b"):
        ProtocolConfig(stokes_probability_b=0.2)


def _sector_stack(rho):
    """Stokes-diagonal (magnon A, magnon B) blocks ``[s1, s2]`` of a (Stokes 1, Stokes 2,
    magnon A, magnon B) matrix."""
    dims = rho.registry.dims
    tensor = rho.matrix.reshape(dims + dims)
    d_m = dims[2] * dims[3]
    return np.stack([tensor[s1, s2, :, :, s1, s2].reshape(d_m, d_m)
                     for s1 in range(dims[0]) for s2 in range(dims[1])]).reshape(
        dims[0], dims[1], d_m, d_m)


def test_thermal_overlay_matches_embedded_shift_sandwiches():
    # reference: each pair of initial occupations (n_a, n_b) lifts the state
    # by V_a V_b rho V_b^+ V_a^+ with full-space shift operators
    registry = ModeRegistry.of((STOKES_A, 2), (STOKES_B, 1), (MAGNON_A, 3), (MAGNON_B, 2))
    rng = np.random.default_rng(3)
    d = registry.dimension
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = DensityOperator(registry, a @ a.conj().T / np.trace(a @ a.conj().T).real)
    s = 0.3 / 1.3

    def shifts(label):
        cutoff = registry.cutoff_of(label)
        out = []
        for n in range(cutoff + 1):
            block = np.zeros((cutoff + 1, cutoff + 1))
            for k in range(cutoff + 1 - n):
                block[k + n, k] = 1.0
            out.append(((1.0 - s) * s**n, embed_single_mode(registry, label, block).matrix))
        return out

    expected = np.zeros((d, d), dtype=complex)
    for w_a, v_a in shifts(MAGNON_A):
        for w_b, v_b in shifts(MAGNON_B):
            expected += (w_a * w_b) * (v_a @ (v_b @ rho.matrix @ v_b.conj().T) @ v_a.conj().T)
    retained = float(np.trace(expected).real)
    # the overlay runs on the Stokes-diagonal sector stack of the same matrix, which is
    # dense: its occupied corner is the whole magnon block
    got, leak = _thermal_overlay(_sector_stack(rho), 0.3, registry.dims[2:], registry.dims[2:])
    assert np.array_equal(got, _sector_stack(DensityOperator(registry, expected)) / retained)
    assert leak == max(0.0, 1.0 - retained)


def test_phase_statistics_give_the_exact_witness_curve():
    cfg = ProtocolConfig()
    grid = np.linspace(0.0, 2.0 * math.pi, 5)
    points = [stats.witness_point(1) for stats in exact_phase_statistics(cfg, grid)]
    assert points == witness_exact(cfg, grid, stokes_detector=1)
    with pytest.raises(ProtocolError):
        exact_phase_statistics(cfg, grid[:1])[0].witness_point(3)


def test_front_matrix_is_released_before_the_phase_loop(monkeypatch):
    # the sector blocks are taken from the front's block stack; neither it
    # nor a view of it may stay alive into the per-phase read optics
    fronts, alive_at_mix = [], []
    build, mix = protocol.entangle_front_state, protocol._ReadOptics.detector_diagonals

    def traced_build(config):
        front = build(config)
        fronts.append(weakref.ref(front.blocks))
        return front

    def traced_mix(self, delta_phi):
        alive_at_mix.append(fronts[-1]() is not None)
        return mix(self, delta_phi)

    monkeypatch.setattr(protocol, "entangle_front_state", traced_build)
    monkeypatch.setattr(protocol._ReadOptics, "detector_diagonals", traced_mix)
    exact_phase_statistics(ProtocolConfig(), np.linspace(0.0, 2.0 * math.pi, 4))
    assert len(fronts) == 1
    assert alive_at_mix == [False] * 4


# ---------------------------------------------------------------------------
# target and closed-form states


def _mean_number(rho, label):
    """Mean occupation of mode ``label``: the diagonal of ``rho`` dotted with its digits."""
    (n,) = _digits(rho.registry, [label])
    return float(np.dot(np.diag(rho.matrix).real, n))


def test_ideal_target_state_properties():
    plus = ideal_target_state(+1)
    minus = ideal_target_state(-1)
    assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-14

    rho = plus.to_density()
    total = _mean_number(rho, MAGNON_A) + _mean_number(rho, MAGNON_B)
    assert abs(total - 1.0) < 1e-14

    reduced = partial_trace(rho, [MAGNON_A])
    assert abs(reduced.matrix[0, 0] - 0.5) < 1e-14
    assert abs(reduced.matrix[1, 1] - 0.5) < 1e-14


def test_thermal_final_state_fidelity_formula():
    for s in (0.0, 0.001, 0.035, 0.1):
        for sign in (+1, -1):
            rho = thermal_final_state(s, sign)
            f = fidelity_with_pure(rho, ideal_target_state(sign))
            assert abs(f - closed_form_fidelity(s)) < 1e-12

    pure = thermal_final_state(0.0, +1)
    assert abs(fidelity_with_pure(pure, ideal_target_state(+1)) - 1.0) < 1e-14

    with pytest.raises(ProtocolError):
        thermal_final_state(1.0, +1)
    with pytest.raises(ProtocolError):
        thermal_final_state(0.1, +1, magnon_cutoff=1)


# ---------------------------------------------------------------------------
# entangling stage


def test_entangle_ideal_fidelity_and_signs():
    for detector, sign in ((1, -1), (2, +1)):
        cfg = replace(COLD, herald_detector_index=detector)
        heralded = entangle_stage(cfg)
        assert heralded.herald_sign == sign
        fid = fidelity_with_pure(heralded.rho_magnons, ideal_target_state(sign))
        assert fid >= 0.99
        wrong = fidelity_with_pure(heralded.rho_magnons, ideal_target_state(-sign))
        assert wrong < 0.01
        assert heralded.truncation_error < 1e-6
        heralded.rho_magnons.check()


def test_entangle_zero_pulse_raises():
    with pytest.raises(HeraldError):
        entangle_stage(replace(COLD, pulse_mean_photons=0.0))
    with pytest.raises(HeraldError):
        entangle_stage(replace(COLD, stokes_probability=0.0))


# the first floor is on the herald click, the second on the silent port's no-click
HERALD_FLOOR_FAILURES = [
    (DetectorSpec(efficiency=0.0), "herald detector 1 clicks with probability 0.000e+00, "
                                   "below HERALD_FLOOR = 1.0e-12"),
    (DetectorSpec(dark_click_probability=1.0), "herald detector 1 clicks with detector 2 silent with "
                                               "probability 0.000e+00, below HERALD_FLOOR = 1.0e-12"),
]


@pytest.mark.parametrize("detector, message", HERALD_FLOOR_FAILURES)
def test_each_herald_floor_raises_its_message(detector, message):
    with pytest.raises(HeraldError) as caught:
        entangle_stage(ProtocolConfig(detector=detector))
    assert str(caught.value) == message


def test_herald_probability_linear_in_p_and_scattering():
    base = entangle_stage(COLD).herald_probability
    doubled_p = entangle_stage(replace(COLD, pulse_mean_photons=0.02)).herald_probability
    doubled_s = entangle_stage(replace(COLD, stokes_probability=0.02)).herald_probability
    assert abs(doubled_p / base - 2.0) < 0.05 * 2.0
    assert abs(doubled_s / base - 2.0) < 0.05 * 2.0


def test_entangle_thermal_marches_closed_form():
    cfg = ProtocolConfig()  # 100 mK defaults
    heralded = entangle_stage(cfg)
    fid = fidelity_with_pure(heralded.rho_magnons, ideal_target_state(heralded.herald_sign))
    assert abs(fid - closed_form_fidelity(cfg.thermal_ratio)) < 0.01


def test_entangle_stimulated_variant_three_s_deficit():
    # with true thermal seeding the pair creation is bosonically stimulated
    # and the fidelity deficit grows from ~2S to ~3S
    cfg = ProtocolConfig(thermal_model="squeezed_thermal")
    heralded = entangle_stage(cfg)
    fid = fidelity_with_pure(heralded.rho_magnons, ideal_target_state(heralded.herald_sign))
    s = cfg.thermal_ratio
    assert abs(fid - (1.0 - s) ** 3) < 2e-3


def test_loss_robustness_sweep():
    fidelities, heralds = [], []
    for eta in (1.0, 0.75, 0.5, 0.25):
        cfg = replace(COLD, propagation_transmissivity_a=eta, propagation_transmissivity_b=eta)
        heralded = entangle_stage(cfg)
        fidelities.append(fidelity_with_pure(heralded.rho_magnons,
                                             ideal_target_state(heralded.herald_sign)))
        heralds.append(heralded.herald_probability)
    assert max(fidelities) - min(fidelities) < 0.01
    assert all(a > b for a, b in zip(heralds, heralds[1:]))


def test_detector_efficiency_scales_herald_only():
    lossy = replace(COLD, detector=DetectorSpec(efficiency=0.5))
    heralded = entangle_stage(lossy)
    ideal = entangle_stage(COLD)
    assert abs(heralded.herald_probability / ideal.herald_probability - 0.5) < 0.01
    f = fidelity_with_pure(heralded.rho_magnons, ideal_target_state(heralded.herald_sign))
    assert f >= 0.99


# ---------------------------------------------------------------------------
# pipeline vs closed form


@pytest.mark.parametrize("cfg", [
    pytest.param(ProtocolConfig(temperature_k=0.0, pulse_mean_photons=1e-3, stokes_probability=1e-3),
                 id="cold-small"),
    pytest.param(ProtocolConfig(), id="reference"),
])
def test_pipeline_state_is_within_the_closed_form_bound(cfg):
    heralded = entangle_stage(cfg)
    s = cfg.thermal_ratio
    closed = thermal_final_state(s, heralded.herald_sign, cfg.magnon_cutoff)
    distance = trace_distance(heralded.rho_magnons, closed)
    assert distance <= 2.0 * max(cfg.pulse_mean_photons, cfg.stokes_probability, s * s)
    assert distance < 1e-2
    f_pipeline = fidelity_with_pure(heralded.rho_magnons,
                                    ideal_target_state(heralded.herald_sign, cfg.magnon_cutoff))
    assert abs(f_pipeline - closed_form_fidelity(s)) < 0.01


# ---------------------------------------------------------------------------
# read-out stage


def test_read_zero_angle_gives_vacuum_antistokes():
    cfg = replace(COLD, read_swap_angle_rad=0.0)
    rho = read_stage(entangle_stage(cfg), cfg)
    assert abs(rho.matrix[0, 0].real - 1.0) < 1e-12


def test_read_full_swap_conserves_excitations():
    cfg = replace(COLD, read_swap_angle_rad=math.pi / 2)
    heralded = entangle_stage(cfg)
    rho = read_stage(heralded, cfg)
    anti_total = _mean_number(rho, ANTISTOKES_A) + _mean_number(rho, ANTISTOKES_B)
    magnons = heralded.rho_magnons
    magnon_total = _mean_number(magnons, MAGNON_A) + _mean_number(magnons, MAGNON_B)
    assert abs(anti_total - magnon_total) < 1e-10


def _detector_fringe(herald_detector, phases):
    cfg = replace(COLD, read_swap_angle_rad=math.pi / 2, herald_detector_index=herald_detector)
    heralded = entangle_stage(cfg)
    clicks = []
    for phi in phases:
        rho = read_stage(heralded, replace(cfg, read_phase_rad=float(phi)))
        clicks.append(click_measurement(rho, ANTISTOKES_A, DetectorSpec()).p_click)
    return np.array(clicks)


def test_read_fringe_matches_single_excitation_interference():
    # oracle: a single excitation split as (|01> + sign e^{i dphi} |10>)/sqrt(2)
    # through a symmetric 50/50 mixer clicks detector 1 with probability
    # (1 + sign sin(dphi))/2
    phases = np.linspace(0.0, 2 * math.pi, 9)
    fringe = _detector_fringe(1, phases)  # herald detector 1 -> sign -1
    predicted = 0.5 * (1.0 - np.sin(phases))
    assert np.abs(fringe - predicted).max() < 1e-4

    visibility = (fringe.max() - fringe.min()) / (fringe.max() + fringe.min())
    assert visibility > 1.0 - 1e-6


def test_read_fringe_shifts_by_pi_when_herald_flips():
    phases = np.linspace(0.0, 2 * math.pi, 17)[:-1]
    f1 = _detector_fringe(1, phases)
    f2 = _detector_fringe(2, phases)
    shift = (phases[np.argmin(f2)] - phases[np.argmin(f1)]) % (2 * math.pi)
    assert abs(shift - math.pi) < 1e-9


def test_read_magnon_decay_option():
    cfg = replace(COLD, read_swap_angle_rad=math.pi / 2, magnon_decay_delay_ratio=0.5)
    heralded = entangle_stage(cfg)
    rho = read_stage(heralded, cfg)
    anti_total = _mean_number(rho, ANTISTOKES_A) + _mean_number(rho, ANTISTOKES_B)
    assert abs(anti_total - math.exp(-0.5)) < 1e-3


# ---------------------------------------------------------------------------
# witness


def test_witness_detects_entanglement_at_defaults():
    cfg = ProtocolConfig()
    grid = np.linspace(0.0, 2 * math.pi, 25)
    points = witness_exact(cfg, grid, stokes_detector=1)
    finite = [p.r_m for p in points if not p.divergent]
    assert min(finite) < 1.0
    for p in points:
        assert p.g2_a1 >= 0.0 and p.g2_a2 >= 0.0
        assert not math.isnan(p.r_m)


def test_witness_periodicity():
    cfg = ProtocolConfig()
    a = witness_exact(cfg, [0.9], 1)[0].r_m
    b = witness_exact(cfg, [0.9 + 2 * math.pi], 1)[0].r_m
    assert abs(a - b) < 1e-9


def test_witness_balanced_point_flags_divergence():
    cfg = ProtocolConfig()
    point = witness_exact(cfg, [0.0], 1)[0]  # fringes cross at zero phase
    assert point.divergent
    assert math.isinf(point.r_m)
    assert not math.isnan(point.r_m)


def test_witness_zero_intensity_raises():
    with pytest.raises((ZeroIntensityError, HeraldError)):
        witness_exact(ProtocolConfig(pulse_mean_photons=0.0), [0.5], 1)


def test_witness_second_stokes_detector():
    cfg = ProtocolConfig()
    points = witness_exact(cfg, [math.pi / 2], stokes_detector=2)
    assert not points[0].divergent
    assert points[0].r_m < 1.0


def test_witness_matches_first_order_pair_counting():
    # independent oracle: with cold magnons, one photon pair per run at
    # probability q per arm, the cross-coherence is the heralded fringe over
    # the accidental floor, g2 = 1 + (1 -/+ sin(dphi)) / (2 q), up to O(q)
    cfg = ProtocolConfig(temperature_k=0.0)
    q = cfg.pair_probability_a
    for phi in (0.5, 2.0, 4.0):
        point = witness_exact(cfg, [phi], 1)[0]
        pred_a1 = 1.0 + (1.0 - math.sin(phi)) / (2.0 * q)
        pred_a2 = 1.0 + (1.0 + math.sin(phi)) / (2.0 * q)
        assert abs(point.g2_a1 / pred_a1 - 1.0) < 5e-3
        assert abs(point.g2_a2 / pred_a2 - 1.0) < 5e-3
        pred_rm = 4.0 * (pred_a1 + pred_a2 - 1.0) / (pred_a1 - pred_a2) ** 2
        assert abs(point.r_m / pred_rm - 1.0) < 1e-2


def test_thermal_fringe_minimum_shows_photon_bunching():
    # at the dark fringe the surviving coincidences come from thermal
    # magnons; bosonic bunching with the heralded photon pulls them toward
    # the bright port, so the exact value sits well below the
    # no-interference estimate nbar / (nbar + q)
    cfg = ProtocolConfig()
    point = witness_exact(cfg, [math.pi / 2], 1)[0]
    naive = cfg.mean_thermal_magnons / (cfg.mean_thermal_magnons + cfg.pair_probability_a)
    assert point.g2_a1 < naive - 0.2


# ---------------------------------------------------------------------------
# read engine against the dense full-space reference


class _DenseReadOptics:
    """Reference read pipeline: every stage is a full-space sparse-embedded
    sandwich on the (magnon A, magnon B, anti-Stokes A, anti-Stokes B)
    matrix, with the anti-Stokes vacuum adjoined up front."""

    def __init__(self, config):
        self.config = config
        co, cm = config.optical_cutoff, config.magnon_cutoff
        self.registry = ModeRegistry.of(
            (MAGNON_A, cm), (MAGNON_B, cm), (ANTISTOKES_A, co), (ANTISTOKES_B, co))
        theta = config.read_swap_angle_rad
        self.swap_a = swap_coupler_unitary(SwapSpec(ANTISTOKES_A, MAGNON_A, theta), self.registry)
        self.swap_b = swap_coupler_unitary(SwapSpec(ANTISTOKES_B, MAGNON_B, theta), self.registry)
        self.closing_bs = beamsplitter_unitary(
            BeamsplitterSpec(ANTISTOKES_A, ANTISTOKES_B), self.registry)
        axis = self.registry.axis_of(ANTISTOKES_A)
        cols = np.arange(self.registry.dimension)
        self.anti_a_numbers = (cols // self.registry.strides[axis]) % self.registry.dims[axis]

    @staticmethod
    def _sandwich(op, rho):
        return op @ (op @ rho).conj().T

    def _loss(self, rho, mode, eta):
        if eta == 1.0:
            return rho
        out = np.zeros_like(rho)
        for op in loss_kraus_operators(self.registry, mode, eta):
            out += self._sandwich(op, rho)
        return out

    def fixed_evolution(self, rho_magnons):
        cfg = self.config
        vac = np.zeros(((cfg.optical_cutoff + 1) ** 2,) * 2, dtype=complex)
        vac[0, 0] = 1.0
        rho = np.kron(rho_magnons, vac)
        if cfg.magnon_decay_delay_ratio > 0.0:
            survival = math.exp(-cfg.magnon_decay_delay_ratio)
            rho = self._loss(rho, MAGNON_A, survival)
            rho = self._loss(rho, MAGNON_B, survival)
        rho = self._sandwich(self.swap_a.matrix, rho)
        rho = self._sandwich(self.swap_b.matrix, rho)
        rho = self._loss(rho, ANTISTOKES_A, cfg.propagation_transmissivity_a)
        return self._loss(rho, ANTISTOKES_B, cfg.propagation_transmissivity_b)

    def phase_and_mix(self, fixed, delta_phi):
        phases = np.exp(1j * delta_phi * self.anti_a_numbers)
        rho = fixed * phases[:, None] * phases[None, :].conj()
        return DensityOperator(self.registry, self._sandwich(self.closing_bs.matrix, rho))

    def statistics(self, blocks, grid):
        co, cm = self.config.optical_cutoff, self.config.magnon_cutoff
        fixed = {key: self.fixed_evolution(block) for key, block in blocks.items()}
        out = []
        for delta_phi in grid:
            probs = np.zeros((co + 1,) * 4)
            for (s1, s2), rho in fixed.items():
                mixed = self.phase_and_mix(rho, delta_phi)
                diag = np.real(np.diag(mixed.matrix)).copy().reshape(cm + 1, cm + 1, co + 1, co + 1)
                probs[s1, s2] += diag.sum(axis=(0, 1))
            out.append(probs)
        return out


READ_ENGINE_CONFIGS = [
    ProtocolConfig(),
    ProtocolConfig(optical_cutoff=2, magnon_cutoff=4),
    ProtocolConfig(optical_cutoff=4, magnon_cutoff=2),
    ProtocolConfig(optical_cutoff=3, magnon_cutoff=5, propagation_transmissivity_a=0.7,
                   magnon_decay_delay_ratio=0.3),
    ProtocolConfig(thermal_model="squeezed_thermal", temperature_k=0.15),
    ProtocolConfig(herald_detector_index=2, stokes_probability_b=0.02),
    ProtocolConfig(pulse_mean_photons=0.1, stokes_probability=0.1,
                   read_swap_angle_rad=math.pi / 2),
    ProtocolConfig(optical_cutoff=1, magnon_cutoff=1),
    ProtocolConfig(propagation_transmissivity_a=0.8, propagation_transmissivity_b=0.8,
                   magnon_decay_delay_ratio=0.1, detector=DetectorSpec(efficiency=0.6)),
    ProtocolConfig(optical_cutoff=2, magnon_cutoff=2, propagation_transmissivity_a=0.0),
    ProtocolConfig(optical_cutoff=3, magnon_cutoff=2, propagation_transmissivity_b=0.55),
]


@pytest.mark.parametrize("cfg", READ_ENGINE_CONFIGS)
def test_read_engine_is_bit_identical_to_dense_reference(cfg):
    grid = [float(x) for x in np.linspace(0.0, 2.0 * math.pi, 7)] + [0.9, cfg.read_phase_rad]
    optics = _DenseReadOptics(cfg)
    blocks = dict(zip(*_stokes_sector_blocks(entangle_front_state(cfg))))
    for stats, probs in zip(exact_phase_statistics(cfg, grid), optics.statistics(blocks, grid)):
        assert np.array_equal(stats.number_probabilities, probs)

    weights = _DenseFront(cfg).sector_weights()
    w = thermal_weights(cfg.mean_thermal_magnons, cfg.magnon_cutoff)
    mixture = np.zeros(((cfg.magnon_cutoff + 1) ** 2,) * 2, dtype=complex)
    mixture[1, 1] = mixture[cfg.magnon_cutoff + 1, cfg.magnon_cutoff + 1] = 0.5
    for kind, rho in (("product_thermal", np.kron(np.diag(w), np.diag(w)).astype(complex)),
                      ("classical_mixture", mixture)):
        sector_blocks = {key: weight * rho for key, weight in weights.items() if weight > 0.0}
        expected = [
            JointStatistics(phi, probs, cfg.detector).witness_point(1)
            for phi, probs in zip(grid, optics.statistics(sector_blocks, grid))]
        assert separable_baseline(cfg, grid, 1, baseline=kind) == expected

    heralded = entangle_stage(cfg)
    fixed = optics.fixed_evolution(heralded.rho_magnons.matrix)
    dense = partial_trace(optics.phase_and_mix(fixed, cfg.read_phase_rad),
                          (ANTISTOKES_A, ANTISTOKES_B))
    got = read_stage(heralded, cfg)
    assert got.registry == dense.registry
    assert np.abs(got.matrix - dense.matrix).max() < 1e-13


def _fixed_through_whole_level_loss_sums(config, rho):
    """`_ReadOptics.fixed` as first built: the magnon decay and both anti-Stokes losses as
    `loss_kraus_sum` CSR sandwiches, the anti-Stokes ones on each whole magnon-B level, and
    the shell-diagonal blocks gathered only after them; then laid out as `_ReadOptics.fixed`
    is, by (anti-Stokes row, column within its shell, stack), zero past each shell."""
    co, cm, theta = config.optical_cutoff, config.magnon_cutoff, config.read_swap_angle_rad
    antistokes = ModeRegistry.of((ANTISTOKES_A, co), (ANTISTOKES_B, co))
    anti_a, anti_b = np.divmod(np.arange(antistokes.dimension), co + 1)
    shells = [np.flatnonzero(anti_a + anti_b == n) for n in range(2 * co + 1)]
    survival = math.exp(-config.magnon_decay_delay_ratio)
    for label in (MAGNON_A, MAGNON_B):
        rho = loss_kraus_sum(rho, loss_kraus_operators(config.magnon_registry(), label, survival))
    arm_a = ModeRegistry.of((MAGNON_A, cm), (MAGNON_B, cm), (ANTISTOKES_A, co))
    swap_a = _embed_block(arm_a, (ANTISTOKES_A, MAGNON_A),
                          swap_coupler_block(SwapSpec(ANTISTOKES_A, MAGNON_A, theta), arm_a),
                          np.arange(0, arm_a.dimension, co + 1))
    rows = (cm + 1) * (co + 1)
    rho = np.stack([sandwich(swap_a[a * rows:(a + 1) * rows], rho) for a in range(cm + 1)], axis=1)
    arm_b = ModeRegistry.of((MAGNON_B, cm), (ANTISTOKES_A, co), (ANTISTOKES_B, co))
    swap_b = _embed_block(arm_b, (ANTISTOKES_B, MAGNON_B),
                          swap_coupler_block(SwapSpec(ANTISTOKES_B, MAGNON_B, theta), arm_b),
                          np.arange(0, arm_b.dimension, co + 1))
    fixed = [np.zeros(rho.shape[:2] + (cm + 1, idx.size, idx.size), dtype=complex) for idx in shells]
    losses = [loss_kraus_operators(antistokes, ANTISTOKES_A, config.propagation_transmissivity_a),
              loss_kraus_operators(antistokes, ANTISTOKES_B, config.propagation_transmissivity_b)]
    d = antistokes.dimension
    for b in range(cm + 1):
        level = sandwich(swap_b[b * d:(b + 1) * d], rho)
        for kraus in losses:
            level = loss_kraus_sum(level, kraus)
        for idx, block in zip(shells, fixed):
            block[:, :, b] = level[..., idx[:, None], idx]
    padded = np.zeros((d, co + 1, rho.shape[0] * (cm + 1) ** 2), dtype=complex)
    for idx, block in zip(shells, fixed):
        padded[idx, :idx.size] = block.reshape(-1, idx.size, idx.size).transpose(1, 2, 0)
    return padded


def _stack_with_signed_zeros(seed, dim):
    """A two-matrix stack: a random density and a random Hermitian matrix with exact -0.0
    entries, whose sign a lost zero would show."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense = a @ a.conj().T
    sparse = dense.copy()
    mask = rng.random((dim, dim)) < 0.4
    sparse[mask | mask.T] = complex(-0.0, -0.0)
    return np.stack([dense / np.trace(dense).real, sparse])


@pytest.mark.parametrize("co", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cm", [1, 2, 3, 4])
def test_shell_loss_gathers_keep_the_bytes_of_whole_level_loss_sums(co, cm):
    rho = _stack_with_signed_zeros(10 * co + cm, (cm + 1) ** 2)
    for eta_a in (0.0, 0.37, 1.0):
        for eta_b in (0.0, 0.37, 1.0):
            for decay in (0.0, 0.3):
                cfg = ProtocolConfig(optical_cutoff=co, magnon_cutoff=cm, propagation_transmissivity_a=eta_a,
                                     propagation_transmissivity_b=eta_b, magnon_decay_delay_ratio=decay)
                got = protocol._ReadOptics(cfg, rho).fixed
                expected = _fixed_through_whole_level_loss_sums(cfg, rho)
                assert (got.shape, got.dtype, got.tobytes()) == \
                    (expected.shape, expected.dtype, expected.tobytes()), (eta_a, eta_b, decay)


def _per_shell_closing(co):
    """Each anti-Stokes photon-number shell's basis indices and the closing beamsplitter lifted
    onto them."""
    antistokes = ModeRegistry.of((ANTISTOKES_A, co), (ANTISTOKES_B, co))
    closing_bs = beamsplitter_block(BeamsplitterSpec(ANTISTOKES_A, ANTISTOKES_B), antistokes)
    anti_a, anti_b = np.divmod(np.arange(antistokes.dimension), co + 1)
    shells = [np.flatnonzero(anti_a + anti_b == n) for n in range(2 * co + 1)]
    return [(idx, lift_block(antistokes, (ANTISTOKES_A, ANTISTOKES_B), closing_bs, idx)[1]) for idx in shells]


def _per_shell_diagonals(optics, closing, delta_phi):
    """`_ReadOptics.detector_diagonals` as first computed: per anti-Stokes photon-number
    shell, the closing beamsplitter lifted onto that shell (``closing``) sandwiches the phased
    shell blocks of ``fixed`` (`fock.sandwich`, the whole output), and `np.diagonal` takes
    the diagonal."""
    d, _, stack = optics.fixed.shape
    anti_a = np.arange(d) // (optics.antistokes.cutoff_of(ANTISTOKES_A) + 1)
    phases = np.exp(1j * delta_phi * anti_a)
    out = np.zeros((stack, d))
    for idx, op in closing:
        block = np.ascontiguousarray(optics.fixed[idx, :idx.size].transpose(2, 0, 1))
        mixed = sandwich(op, block * phases[idx, None] * phases[None, idx].conj())
        out[:, idx] = np.diagonal(mixed, axis1=-2, axis2=-1).real
    return out


@pytest.mark.parametrize("co", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("cm", [1, 2, 3, 4])
def test_detector_diagonals_keep_the_bytes_of_per_shell_sandwiches(co, cm):
    rho = _stack_with_signed_zeros(100 + 10 * co + cm, (cm + 1) ** 2)
    closing = _per_shell_closing(co)
    for eta_a in (0.0, 0.37, 1.0):
        for eta_b in (0.0, 0.37, 1.0):
            for decay in (0.0, 0.3):
                for angle in (0.2, math.pi / 2):
                    cfg = ProtocolConfig(optical_cutoff=co, magnon_cutoff=cm, propagation_transmissivity_a=eta_a,
                                         propagation_transmissivity_b=eta_b, magnon_decay_delay_ratio=decay,
                                         read_swap_angle_rad=angle)
                    optics = protocol._ReadOptics(cfg, rho)
                    for delta_phi in (0.0, math.pi / 2, math.pi, 2.0 * math.pi, 0.9):
                        got = optics.detector_diagonals(delta_phi)
                        expected = _per_shell_diagonals(optics, closing, delta_phi)
                        assert (got.shape, got.dtype, got.tobytes()) == \
                            (expected.shape, expected.dtype, expected.tobytes()), \
                            (eta_a, eta_b, decay, angle, delta_phi)


# ---------------------------------------------------------------------------
# front and herald against the dense full-space reference


class _DenseFront:
    """Reference entangling stage: the dense full-space front matrix, built
    by full-space sandwiches, the dense-tensor thermal overlay, and the
    two-detector herald as two `click_measurement` calls."""

    def __init__(self, config):
        co, cm = config.optical_cutoff, config.magnon_cutoff
        registry = ModeRegistry.of(
            (STOKES_A, co), (STOKES_B, co), (MAGNON_A, cm), (MAGNON_B, cm))
        nbar = config.mean_thermal_magnons
        seeded_thermal = config.thermal_model == "squeezed_thermal" and nbar > 0.0
        if seeded_thermal:
            vac, th = np.diag(thermal_weights(0.0, co)), np.diag(thermal_weights(nbar, cm))
            rho = DensityOperator(registry, np.kron(np.kron(np.kron(vac, vac), th), th))
        else:
            rho = MultiModeState.vacuum(registry).to_density()
        alpha = math.sqrt(config.pulse_mean_photons)
        pumps = (alpha / math.sqrt(2.0), 1j * alpha / math.sqrt(2.0))
        truncation = 0.0
        for stokes, magnon, pair_prob, pump in (
            (STOKES_A, MAGNON_A, config.pair_probability_a, pumps[0]),
            (STOKES_B, MAGNON_B, config.pair_probability_b, pumps[1]),
        ):
            if pair_prob == 0.0:
                continue
            spec = SqueezerSpec.from_pair_probability(stokes, magnon, pair_prob)
            truncation += squeezer_vacuum_tail(spec, registry)
            rho = apply_unitary(rho, two_mode_squeezer_unitary(spec, registry))
            pair_phase = np.angle(pump) - math.pi / 2.0
            if pair_phase != 0.0:
                rho = apply_unitary(rho, phase_shift_unitary(stokes, pair_phase, registry))
        if config.propagation_transmissivity_a < 1.0:
            rho = loss_channel(rho, STOKES_A, config.propagation_transmissivity_a)
        if config.propagation_transmissivity_b < 1.0:
            rho = loss_channel(rho, STOKES_B, config.propagation_transmissivity_b)
        rho = apply_unitary(rho, beamsplitter_unitary(BeamsplitterSpec(STOKES_A, STOKES_B), registry))
        if nbar > 0.0 and not seeded_thermal:
            rho, leak = self._overlay(rho, nbar)
            truncation += leak
        elif seeded_thermal:
            truncation += 2.0 * (nbar / (nbar + 1.0)) ** (cm + 1)
        drift = abs(rho.trace - 1.0)
        truncation += drift
        if drift > 0:
            rho = rho.normalized()
        self.config, self.rho, self.truncation_estimate = config, rho, truncation

    @staticmethod
    def _overlay(rho, nbar):
        registry = rho.registry
        dims = registry.dims
        tensor = rho.matrix.reshape(dims + dims)
        out = np.zeros_like(tensor)
        shifts = []
        for label in (MAGNON_A, MAGNON_B):
            axis = registry.axis_of(label)
            weights = geometric_weights(nbar, registry.cutoff_of(label))
            shifts.append([(axis, n, w) for n, w in enumerate(weights) if w > 0.0])
        for axis_a, n_a, w_a in shifts[0]:
            for axis_b, n_b, w_b in shifts[1]:
                dst = [slice(None)] * tensor.ndim
                src = [slice(None)] * tensor.ndim
                for axis, n in ((axis_a, n_a), (axis_b, n_b)):
                    for ax in (axis, axis + len(dims)):
                        dst[ax] = slice(n, dims[axis])
                        src[ax] = slice(0, dims[axis] - n)
                out[tuple(dst)] += (w_a * w_b) * tensor[tuple(src)]
        out = out.reshape(rho.matrix.shape)
        retained = float(np.trace(out).real)
        return DensityOperator(registry, out / retained), max(0.0, 1.0 - retained)

    def sector_weights(self):
        dims = self.rho.registry.dims
        weights = np.real(np.diag(self.rho.matrix)).copy().reshape(dims).sum(axis=(2, 3))
        return {(s1, s2): float(weights[s1, s2]) for s1 in range(dims[0]) for s2 in range(dims[1])}

    def herald(self):
        """Heralded magnon matrix and herald probability."""
        config = self.config
        herald_mode = STOKES_A if config.herald_detector_index == 1 else STOKES_B
        silent_mode = STOKES_B if config.herald_detector_index == 1 else STOKES_A
        first = click_measurement(self.rho, herald_mode, config.detector)
        if first.rho_click is None or first.p_click < protocol.HERALD_FLOOR:
            raise HeraldError("no herald")
        second = click_measurement(first.rho_click, silent_mode, config.detector)
        herald_probability = first.p_click * (1.0 - second.p_click)
        if second.rho_noclick is None or herald_probability < protocol.HERALD_FLOOR:
            raise HeraldError("no herald")
        return second.rho_noclick.matrix, herald_probability


LOSSY_C4 = ProtocolConfig(
    optical_cutoff=4, magnon_cutoff=4, propagation_transmissivity_a=0.8,
    propagation_transmissivity_b=0.8, detector=DetectorSpec(efficiency=0.6, dark_click_probability=1e-4),
    magnon_decay_delay_ratio=0.1, temperature_k=0.05)

FRONT_ENGINE_CONFIGS = READ_ENGINE_CONFIGS + [
    LOSSY_C4,
    COLD,
    ProtocolConfig(stokes_probability_b=0.02, propagation_transmissivity_b=0.5,
                   herald_detector_index=2),
]


@pytest.mark.parametrize("cfg", FRONT_ENGINE_CONFIGS)
def test_front_and_herald_are_bit_identical_to_dense_reference(cfg):
    dense = _DenseFront(cfg)
    front = entangle_front_state(cfg)
    co, cm = cfg.optical_cutoff, cfg.magnon_cutoff
    assert np.array_equal(front.blocks, _sector_stack(dense.rho))
    assert front.truncation_estimate == dense.truncation_estimate
    # the baseline weights: the stack's diagonal summed over the magnon axes
    diag = np.diagonal(front.blocks, axis1=-2, axis2=-1).real.reshape(co + 1, co + 1, cm + 1, cm + 1)
    weights = diag.sum(axis=(2, 3))
    assert {key: float(weights[key]) for key in np.ndindex(weights.shape)} == dense.sector_weights()

    heralded = entangle_stage(cfg)
    rho, herald_probability = dense.herald()
    assert np.array_equal(heralded.rho_magnons.matrix, rho)
    assert heralded.herald_probability == herald_probability
    assert heralded.truncation_error == dense.truncation_estimate


def _whole_support_front(config):
    """`_optical_front` as it was before the herald beamsplitter ran per total-Stokes-number
    shell: the herald is one more `_lift_step` step, sandwiched over the whole support, and
    each Stokes sector's diagonal block is read back from that matrix with `np.ix_`."""
    co, cm = config.optical_cutoff, config.magnon_cutoff
    d_m = (cm + 1) ** 2
    registry = ModeRegistry.of((STOKES_A, co), (STOKES_B, co), (MAGNON_A, cm), (MAGNON_B, cm))
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
    steps.append(((STOKES_A, STOKES_B), [beamsplitter_block(BeamsplitterSpec(STOKES_A, STOKES_B), registry)]))

    seeded = protocol._seeded_thermal(config)
    support = np.arange(d_m if seeded else 1)
    rho = (protocol._product_thermal(config.mean_thermal_magnons, cm) if seeded
           else np.ones((1, 1), dtype=complex))
    for labels, blocks in steps:
        support, terms = protocol._lift_step(registry, labels, blocks, support)
        rho = protocol._support_step(support.size, terms, rho)

    stack = np.zeros((co + 1, co + 1, d_m, d_m), dtype=complex)
    sector, magnons = np.divmod(support, d_m)
    for k in np.unique(sector):
        at = np.flatnonzero(sector == k)
        stack[divmod(k, co + 1)][np.ix_(magnons[at], magnons[at])] = rho[np.ix_(at, at)]
    corner = tuple(int(levels.max()) + 1 for levels in np.divmod(magnons, cm + 1))
    return stack, truncation, corner


_HERALD_ARMS = [  # (stokes_probability, stokes_probability_b)
    (0.01, None),
    (0.0, 0.02),  # no pairs in arm A
    (0.01, 0.0),  # no pairs in arm B
    (0.01, 0.03),
]


@pytest.mark.parametrize("co, cm", [
    (co, cm) for co in range(1, 7) for cm in range(1, 5)
    if ((co + 1) * (cm + 1)) ** 2 <= protocol.PIPELINE_MAX_DIMENSION])
def test_shell_herald_keeps_the_bytes_of_the_whole_support_herald(co, cm):
    transmissivities = (0.0, 0.37, 1.0)
    configs = [ProtocolConfig(optical_cutoff=co, magnon_cutoff=cm, propagation_transmissivity_a=eta_a,
                              propagation_transmissivity_b=eta_b, stokes_probability=p_a,
                              stokes_probability_b=p_b, thermal_model=model, temperature_k=0.2)
               for eta_a in transmissivities for eta_b in transmissivities
               for p_a, p_b in (_HERALD_ARMS if (eta_a, eta_b) == (0.37, 1.0) else _HERALD_ARMS[:1])
               for model in ("mixture_overlay", "squeezed_thermal")]
    for cfg in configs:
        blocks, truncation, corner = _optical_front(cfg, _lift_front(cfg))
        expected, expected_truncation, expected_corner = _whole_support_front(cfg)
        assert (blocks.shape, blocks.dtype, blocks.tobytes()) == (
            expected.shape, expected.dtype, expected.tobytes()), cfg
        assert (truncation, corner) == (expected_truncation, expected_corner), cfg


SWEEP_CONFIGS = [
    ProtocolConfig(),
    ProtocolConfig(thermal_model="squeezed_thermal"),
    ProtocolConfig(propagation_transmissivity_a=0.7, propagation_transmissivity_b=0.5,
                   stokes_probability_b=0.02, herald_detector_index=2),
    ProtocolConfig(optical_cutoff=2, magnon_cutoff=4, propagation_transmissivity_b=0.8,
                   thermal_model="squeezed_thermal", herald_detector_index=2,
                   detector=DetectorSpec(efficiency=0.6, dark_click_probability=1e-4)),
]


@pytest.mark.parametrize("cfg", SWEEP_CONFIGS)
@pytest.mark.parametrize("field, values", [
    ("temperature_k", [0.0, 0.05, 0.2, 0.5]),  # the first point has no overlay
    ("nbar_override", [0.0, 0.01, 0.3]),
])
def test_sweep_points_are_bit_equal_to_independent_stages(cfg, field, values):
    points = entangle_sweep(cfg, field, values)
    assert [point_cfg for point_cfg, _ in points] == [replace(cfg, **{field: v}) for v in values]
    for point_cfg, heralded in points:
        alone = entangle_stage(point_cfg)
        assert heralded.rho_magnons.matrix.tobytes() == alone.rho_magnons.matrix.tobytes()
        assert (heralded.herald_probability, heralded.herald_sign, heralded.truncation_error) == (
            alone.herald_probability, alone.herald_sign, alone.truncation_error)


def test_sweep_rejects_a_field_it_cannot_share_the_optics_over():
    with pytest.raises(ProtocolError, match="pulse_mean_photons"):
        entangle_sweep(ProtocolConfig(), "pulse_mean_photons", [0.01])
    with pytest.raises(ProtocolError, match="temperature_k.*nbar_override"):
        entangle_sweep(ProtocolConfig(nbar_override=0.05), "temperature_k", [0.1, 0.2])


def test_shared_optical_front_is_read_only():
    cfg = ProtocolConfig()
    blocks, _, _ = _optical_front(cfg, _lift_front(cfg))
    with pytest.raises(ValueError):
        blocks[0, 0] += 1.0


def _whole_block_overlay(blocks, nbar, dims):
    """The thermal overlay as it was before it was restricted to the occupied corner: every
    shifted copy of every whole magnon block is added."""
    d_a, d_b = dims
    tensor = blocks.reshape(-1, d_a, d_b, d_a, d_b)
    out = np.zeros_like(tensor)
    shifts_a, shifts_b = ([(n, w) for n, w in enumerate(geometric_weights(nbar, d - 1)) if w > 0.0]
                          for d in dims)
    for n_a, w_a in shifts_a:
        for n_b, w_b in shifts_b:
            out[:, n_a:, n_b:, n_a:, n_b:] += (w_a * w_b) * tensor[
                :, :d_a - n_a, :d_b - n_b, :d_a - n_a, :d_b - n_b]
    out = out.reshape(blocks.shape)
    retained = float(np.sum(np.diagonal(out, axis1=-2, axis2=-1).reshape(-1)).real)
    return out / retained, max(0.0, 1.0 - retained)


# 0.002 K: S = exp(-168), so the geometric weights underflow to 0 from n = 5 on
@pytest.mark.parametrize("optical_cutoff, magnon_cutoff, temperatures", [
    *[(c, c, (0.002, 0.05, 0.3, 1.0)) for c in range(1, 6)],
    (3, 12, (0.002, 0.05, 0.3, 1.0)),
    (3, 18, (0.005, 0.5)),  # 0.005 K: nonzero weights up to n = 11, zero from n = 12
    (2, 4, (0.3,)),
])
def test_corner_overlay_is_bit_equal_to_the_whole_block_overlay(
        optical_cutoff, magnon_cutoff, temperatures):
    cfg = ProtocolConfig(optical_cutoff=optical_cutoff, magnon_cutoff=magnon_cutoff,
                         propagation_transmissivity_b=0.8, stokes_probability_b=0.02)
    blocks, _, corner = _optical_front(cfg, _lift_front(cfg))
    assert corner == (min(optical_cutoff, magnon_cutoff) + 1,) * 2
    dims = cfg.magnon_registry().dims
    underflowed = False
    for temperature in temperatures:
        nbar = replace(cfg, temperature_k=temperature).mean_thermal_magnons
        underflowed |= bool(np.any(geometric_weights(nbar, magnon_cutoff) == 0.0))
        got, leak = _thermal_overlay(blocks, nbar, dims, corner)
        expected, expected_leak = _whole_block_overlay(blocks, nbar, dims)
        assert got.tobytes() == expected.tobytes()
        assert leak == expected_leak
    assert underflowed == (magnon_cutoff >= 5)


def test_engine_peak_memory_stays_below_one_dense_front_matrix():
    cfg = ProtocolConfig(optical_cutoff=6, magnon_cutoff=6, propagation_transmissivity_a=0.8,
                         propagation_transmissivity_b=0.8)
    dense_bytes = 16 * ((cfg.optical_cutoff + 1) * (cfg.magnon_cutoff + 1)) ** 4  # 92 MB
    for run in (lambda: entangle_stage(cfg),
                lambda: exact_phase_statistics(cfg, np.linspace(0.0, 2.0 * math.pi, 5))):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


def test_lossy_front_peak_memory_stays_below_a_third_of_the_dense_front_matrix():
    # the herald runs per total-Stokes-number shell: 22.2 MB measured, against 54.2 MB for the
    # sandwich over the whole 784 -> 1316-row support it replaced
    cfg = ProtocolConfig(optical_cutoff=6, magnon_cutoff=6, propagation_transmissivity_a=0.8,
                         propagation_transmissivity_b=0.8)
    dense_bytes = 16 * ((cfg.optical_cutoff + 1) * (cfg.magnon_cutoff + 1)) ** 4  # 92 MB
    tracemalloc.start()
    try:
        entangle_stage(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 3


_UNIT = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(optical_cutoff=st.integers(1, 3), magnon_cutoff=st.integers(1, 3),
       temperature_k=st.floats(0.0, 0.3), pulse_mean_photons=st.floats(0.0, 0.1),
       stokes_probability=st.floats(0.0, 0.1), propagation_transmissivity_a=_UNIT,
       propagation_transmissivity_b=_UNIT, efficiency=_UNIT,
       dark_click_probability=st.floats(0.0, 1e-3), magnon_decay_delay_ratio=_UNIT,
       herald_detector_index=st.sampled_from((1, 2)),
       thermal_model=st.sampled_from(("mixture_overlay", "squeezed_thermal")),
       read_swap_angle_rad=st.floats(0.0, math.pi / 2))
def test_engine_invariants_over_the_config_domain(efficiency, dark_click_probability, **fields):
    # a squeezer tail past its bound and a vanishing herald are the only allowed failures
    cfg = ProtocolConfig(detector=DetectorSpec(efficiency, dark_click_probability), **fields)
    try:
        heralded = entangle_stage(cfg)
    except (TruncationError, HeraldError):
        pass
    else:
        heralded.rho_magnons.check()
        assert 0.0 <= heralded.herald_probability <= 1.0
    try:
        phase_stats = exact_phase_statistics(cfg, np.linspace(0.0, 2.0 * math.pi, 3))
    except TruncationError:
        return
    for stats in phase_stats:
        assert stats.number_probabilities.min() >= -1e-10
        assert abs(stats.number_probabilities.sum() - 1.0) <= 1e-10
        assert abs(stats.click_pattern_probabilities().sum() - 1.0) <= 1e-10


# Each range is the whole range ProtocolConfig accepts, mixed with the physical scale so
# that about a third of the examples get past the squeezer bound and the herald floor.
_NONNEGATIVE = st.floats(0.0, 1.0) | st.floats(0.0, 1e300)
_PROBABILITY = st.floats(0.0, 0.02) | _UNIT


@pytest.mark.filterwarnings("ignore::optomagnon.protocol.ProtocolRegimeWarning")
@settings(derandomize=True, deadline=None, max_examples=100)
@given(optical_cutoff=st.integers(1, 3), magnon_cutoff=st.integers(1, 3),
       pulse_mean_photons=_PROBABILITY, stokes_probability=_PROBABILITY,
       stokes_probability_b=st.none() | _PROBABILITY,
       magnon_frequency_hz=st.floats(1e9, 1e11) | st.floats(0.0, 1e300, exclude_min=True),
       temperature_k=_NONNEGATIVE, nbar_override=st.none() | _NONNEGATIVE,
       propagation_transmissivity_a=_UNIT, propagation_transmissivity_b=_UNIT,
       efficiency=_UNIT, dark_click_probability=_UNIT, magnon_decay_delay_ratio=_NONNEGATIVE,
       read_phase_rad=st.floats(-1e300, 1e300), read_swap_angle_rad=st.floats(0.0, math.pi / 2),
       herald_detector_index=st.sampled_from((1, 2)),
       thermal_model=st.sampled_from(("mixture_overlay", "squeezed_thermal")))
def test_every_accepted_config_gives_a_density_or_a_documented_error(
        efficiency, dark_click_probability, **fields):
    # tolerances: Hermitian, unit trace and eigenvalues >= 0 to 1e-12; number probabilities
    # >= -1e-15 summing to 1 within 1e-12.  A HeraldError is a ProtocolError.
    try:
        cfg = ProtocolConfig(detector=DetectorSpec(efficiency, dark_click_probability), **fields)
    except ProtocolError:
        return
    try:
        heralded = entangle_stage(cfg)
    except (ProtocolError, ChannelError):
        pass
    else:
        rho = heralded.rho_magnons
        assert rho.hermiticity_defect() <= 1e-12
        assert abs(rho.trace - 1.0) <= 1e-12
        assert rho.min_eigenvalue() >= -1e-12
        assert 0.0 < heralded.herald_probability <= 1.0
        assert heralded.truncation_error >= 0.0
    try:
        probs = exact_joint_statistics(cfg).number_probabilities
    except (ProtocolError, ChannelError):
        return
    assert probs.min() >= -1e-15
    assert abs(probs.sum() - 1.0) <= 1e-12


def _psd(draw, dim: int) -> np.ndarray:
    """``F F+ / tr(F F+)`` of a complex ``dim`` x (1-8) factor ``F``, first scaled to a largest
    entry of modulus 1 so that no product underflows, and made exactly Hermitian."""
    parts = draw(arrays(np.float64, (2, dim, draw(st.integers(1, 8))), elements=st.floats(-1.0, 1.0)))
    largest = np.hypot(parts[0], parts[1]).max()
    assume(largest > 0.0)
    factor = (parts[0] / largest) + 1j * (parts[1] / largest)
    m = factor @ factor.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


@st.composite
def _front_inputs(draw):
    """A front registry; a density on a random support of its basis; and a Stokes sector
    stack ``[s1, s2, magnon, magnon]``, the diagonal blocks of a density that is zero
    outside a random magnon corner."""
    co, cm = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    reg = ModeRegistry.of((STOKES_A, co), (STOKES_B, co), (MAGNON_A, cm), (MAGNON_B, cm))
    mask = draw(arrays(np.bool_, reg.dimension))
    assume(mask.any())
    support = np.flatnonzero(mask)
    rho = _psd(draw, support.size)

    corner = (draw(st.integers(1, cm + 1)), draw(st.integers(1, cm + 1)))
    _, _, n_a, n_b = np.indices(reg.dims).reshape(4, -1)
    inside = np.flatnonzero((n_a < corner[0]) & (n_b < corner[1]))
    full = np.zeros((reg.dimension,) * 2, dtype=complex)
    full[np.ix_(inside, inside)] = _psd(draw, inside.size)
    sectors, q = (co + 1) ** 2, (cm + 1) ** 2
    blocks = np.einsum("iaib->iab", full.reshape(sectors, q, sectors, q))
    return reg, support, rho, blocks.reshape(co + 1, co + 1, q, q), corner


def _assert_densities(stack: np.ndarray) -> None:
    """Each matrix of ``stack`` is Hermitian and positive, and their traces sum to 1."""
    mats = stack.reshape(-1, *stack.shape[-2:])
    assert np.abs(mats - mats.conj().swapaxes(-1, -2)).max() <= 1e-12
    assert np.linalg.eigvalsh(mats).min() >= -1e-12
    assert abs(np.trace(mats, axis1=-2, axis2=-1).sum().real - 1.0) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(inputs=_front_inputs(), angle=st.floats(0.0, math.pi / 2), squeeze_parameter=_UNIT,
       transmissivity=_UNIT, nbar=st.floats(0.0, 1e15, exclude_min=True), efficiency=_UNIT,
       dark_click_probability=_UNIT)
def test_pipeline_block_operations_keep_a_density_a_density(
        inputs, angle, squeeze_parameter, transmissivity, nbar, efficiency, dark_click_probability):
    reg, support, rho, blocks, corner = inputs
    stage = [((STOKES_A, STOKES_B), [beamsplitter_block(BeamsplitterSpec(STOKES_A, STOKES_B, angle), reg)]),
             ((STOKES_A,), [phase_shift_block(STOKES_A, angle, reg)]),
             ((STOKES_B, MAGNON_B), [swap_coupler_block(SwapSpec(STOKES_B, MAGNON_B, angle), reg)])]
    try:  # a squeezer tail past its bound is the only allowed failure
        stage.append(((STOKES_A, MAGNON_A),
                      [two_mode_squeezer_block(SqueezerSpec(STOKES_A, MAGNON_A, squeeze_parameter), reg)]))
    except TruncationError:
        pass
    for mode in (STOKES_A, MAGNON_B):
        stage.append(((mode,), loss_kraus_blocks(reg, mode, transmissivity)))
    for labels, kraus in stage:
        out, terms = protocol._lift_step(reg, labels, kraus, support)
        _assert_densities(protocol._support_step(out.size, terms, rho))

    magnons = ModeRegistry.of((MAGNON_A, reg.cutoff_of(MAGNON_A)), (MAGNON_B, reg.cutoff_of(MAGNON_B)))
    _assert_densities(loss_kraus_sum(blocks, loss_kraus_operators(magnons, MAGNON_A, transmissivity)))
    _assert_densities(protocol._thermal_overlay(blocks, nbar, magnons.dims, corner)[0])
    no_click = DetectorSpec(efficiency, dark_click_probability).no_click_weights(reg.cutoff_of(STOKES_A))
    for axis in (0, 1):
        for weights in (1.0 - no_click, no_click):
            # the herald conditions only above its probability floor
            if protocol._port_probability(blocks, axis, weights) >= protocol.HERALD_FLOOR:
                _assert_densities(protocol._port_conditioned(blocks, axis, weights))


# ---------------------------------------------------------------------------
# separable baselines


@pytest.mark.parametrize("kind", ["product_thermal", "classical_mixture"])
def test_separable_baselines_never_beat_threshold(kind):
    cfg = ProtocolConfig()
    grid = np.linspace(0.0, 2 * math.pi, 9)
    points = separable_baseline(cfg, grid, 1, baseline=kind)
    for p in points:
        if not p.divergent:
            assert p.r_m >= 1.0 - 1e-6
    # with the magnon correlations severed both coherences sit at 1 exactly,
    # so every point lands on the divergence flag
    assert all(p.divergent for p in points)
    assert all(abs(p.g2_a1 - 1.0) < 1e-9 for p in points)


@pytest.mark.parametrize("kind", ["vacuum", "bogus"])
def test_separable_baseline_unknown_kind_raises(kind):
    # vacuum magnons give no anti-Stokes light, so that baseline is not offered
    with pytest.raises(ProtocolError, match=f"unknown baseline '{kind}'"):
        separable_baseline(ProtocolConfig(), [0.5], 1, baseline=kind)


# ---------------------------------------------------------------------------
# joint statistics consistency


def test_joint_statistics_consistent_with_entangle_stage():
    cfg = ProtocolConfig()
    stats = exact_joint_statistics(cfg)
    table = stats.click_pattern_probabilities()
    assert abs(table.sum() - 1.0) < 1e-9
    heralded = entangle_stage(cfg)
    assert abs(table[1, :].sum() - heralded.herald_probability) < 1e-12


def test_click_table_and_g2_match_their_per_entry_references():
    # the category loop and the per-port moments the two methods replaced
    rng = np.random.default_rng(3)
    probs = rng.random((3, 4, 2, 5))
    probs /= probs.sum()
    stats = JointStatistics(0.4, probs, DetectorSpec(efficiency=0.7, dark_click_probability=1e-3))
    tables = [np.stack([w, 1.0 - w]) for w in
              (stats.detector.no_click_weights(d - 1) for d in probs.shape)]
    t = np.einsum("abcd,xa,yb,zc,wd->xyzw", probs, *tables)
    category = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}  # none, d1, d2, both
    expected = np.zeros((4, 4))
    for s_cat, (x, y) in category.items():
        for a_cat, (z, w) in category.items():
            expected[s_cat, a_cat] = t[x, y, z, w]
    assert np.array_equal(stats.click_pattern_probabilities(), expected)

    def occupations(axis):
        shape = [1, 1, 1, 1]
        shape[axis] = probs.shape[axis]
        return np.arange(probs.shape[axis]).reshape(shape)

    for i in (1, 2):
        for j in (1, 2):
            anti, stokes = occupations(1 + i), occupations(j - 1)
            denom = float(np.sum(probs * anti)) * float(np.sum(probs * stokes))
            assert stats.g2_number(i, j) == float(np.sum(probs * (anti * stokes))) / denom


def test_trace_distance_basic():
    a = thermal_final_state(0.0, +1)
    b = thermal_final_state(0.1, +1)
    assert trace_distance(a, a) < 1e-14
    assert 0.0 < trace_distance(a, b) < 1.0


_VACUUM_ONLY = np.zeros((2, 2, 2, 2))
_VACUUM_ONLY[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ideal_target_state(0), ProtocolError, "sign must be", id="superposition-sign"),
    pytest.param(lambda: JointStatistics(0.0, _VACUUM_ONLY, DetectorSpec()).g2_click(1, 1),
                 ZeroIntensityError, "click rate vanished", id="g2-click-no-light"),
    pytest.param(lambda: trace_distance(DensityOperator(ModeRegistry.of(("thermal", 2)),
                                                        np.diag(thermal_weights(0.1, 2))),
                                        ideal_target_state(1, 1).to_density()),
                 ProtocolError, "matching registries", id="trace-distance-registries"),
])
def test_each_protocol_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("stokes_below_floor, stokes_entry, anti_entry", [
    ((0.0, 0.0), "no Stokes {} Stokes detector 1", "no anti-Stokes {} anti-Stokes detector 1"),
    ((2e-20, 0.0), "the Stokes light at Stokes detector 1 is below STOKES_SECTOR_FLOOR = 1.0e-18 "
                   "(weight 2.000e-20)",
     "any anti-Stokes light at anti-Stokes detector 1 was dropped with those Stokes sectors"),
])
@pytest.mark.parametrize("g2, kind, reach", [
    ("g2_number", "intensity", "light reaches"),
    ("g2_click", "click rate", "clicks at"),
])
def test_both_cross_coherences_name_each_vanished_factor(stokes_below_floor, stokes_entry, anti_entry, g2,
                                                         kind, reach):
    stats = JointStatistics(0.0, _VACUUM_ONLY, DetectorSpec(), stokes_below_floor)
    with pytest.raises(ZeroIntensityError) as caught:
        getattr(stats, g2)(1, 1)
    assert str(caught.value) == (f"a detector {kind} vanished: {stokes_entry.format(reach)}; "
                                 f"{anti_entry.format(reach)}")
