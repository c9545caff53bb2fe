import math

import numpy as np
import pytest
import scipy.linalg

from optomagnon.channels import (
    BeamsplitterSpec,
    ChannelError,
    DetectorSpec,
    SqueezerSpec,
    SwapSpec,
    TruncationError,
    beamsplitter_unitary,
    click_measurement,
    click_povm_diagonals,
    loss_channel,
    loss_kraus_operators,
    loss_kraus_sum,
    phase_shift_unitary,
    swap_coupler_unitary,
    thermal_state,
    thermal_truncation_weight,
    two_mode_squeezer_unitary,
)
from optomagnon.fock import (
    DensityOperator,
    ModeRegistry,
    MultiModeState,
    UnknownModeError,
    apply_unitary,
    expectation,
    number_operator,
    partial_trace,
)

TWO_MODES = ModeRegistry.of(("a", 3), ("b", 3))


def _unitarity_defect(op):
    dense = op.to_dense()
    return np.abs(dense.conj().T @ dense - np.eye(dense.shape[0])).max()


def _random_density(reg, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(reg.dimension,) * 2) + 1j * rng.normal(size=(reg.dimension,) * 2)
    m = m @ m.conj().T
    return DensityOperator(reg, m / np.trace(m))


# ---------------------------------------------------------------------------
# beamsplitter


def test_beamsplitter_identity_at_zero_angle():
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b", mixing_angle=0.0), TWO_MODES)
    assert np.abs(bs.to_dense() - np.eye(16)).max() < 1e-14


def test_beamsplitter_50_50_single_photon():
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b"), TWO_MODES)
    out = apply_unitary(MultiModeState.from_occupation(TWO_MODES, (1, 0)), bs)
    probs = out.occupation_probabilities()
    assert abs(probs[TWO_MODES.index_of((1, 0))] - 0.5) < 1e-12
    assert abs(probs[TWO_MODES.index_of((0, 1))] - 0.5) < 1e-12


def test_beamsplitter_conserves_photon_number():
    rng = np.random.default_rng(8)
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b", mixing_angle=0.61, relative_phase=0.3),
                              TWO_MODES)
    n_total = number_operator(TWO_MODES, "a").matrix + number_operator(TWO_MODES, "b").matrix
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    rho = MultiModeState(TWO_MODES, amps / np.linalg.norm(amps)).to_density()
    before = float(np.trace(n_total @ rho.matrix).real)
    after_rho = apply_unitary(rho, bs)
    after = float(np.trace(n_total @ after_rho.matrix).real)
    assert abs(before - after) < 1e-12


def test_beamsplitter_unitarity_and_errors():
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b"), TWO_MODES)
    assert _unitarity_defect(bs) < 1e-10
    with pytest.raises(ChannelError):
        beamsplitter_unitary(BeamsplitterSpec("a", "a"), TWO_MODES)
    with pytest.raises(UnknownModeError):
        beamsplitter_unitary(BeamsplitterSpec("a", "zz"), TWO_MODES)


# ---------------------------------------------------------------------------
# two-mode squeezer


def test_squeezer_identity_at_zero():
    sq = two_mode_squeezer_unitary(SqueezerSpec("a", "b", 0.0), TWO_MODES)
    assert np.abs(sq.to_dense() - np.eye(16)).max() < 1e-14


def test_squeezer_amplitude_hierarchy():
    # generous cutoff so the truncated exponential matches the ideal series
    reg = ModeRegistry.of(("a", 10), ("b", 10))
    spec = SqueezerSpec.from_pair_probability("a", "b", 0.03)
    out = apply_unitary(MultiModeState.vacuum(reg), two_mode_squeezer_unitary(spec, reg))
    a00 = out.amplitudes[reg.index_of((0, 0))]
    a11 = out.amplitudes[reg.index_of((1, 1))]
    a22 = out.amplitudes[reg.index_of((2, 2))]
    assert abs(abs(a11 / a00) ** 2 - 0.03) < 1e-6
    assert abs(abs(a22) / abs(a11) - math.tanh(spec.squeeze_parameter)) < 1e-6


def test_squeezer_inverse_recovers_input():
    spec = SqueezerSpec("a", "b", 0.15)
    forward = two_mode_squeezer_unitary(spec, TWO_MODES)
    # r -> -r is the conjugate transpose of the pair-creation unitary
    backward = forward.dag()
    rho = _random_density(TWO_MODES, 21)
    round_trip = apply_unitary(apply_unitary(rho, forward), backward)
    assert np.abs(round_trip.matrix - rho.matrix).max() < 1e-10


def test_squeezer_truncation_bound():
    small = ModeRegistry.of(("a", 1), ("b", 1))
    with pytest.raises(TruncationError):
        two_mode_squeezer_unitary(SqueezerSpec.from_pair_probability("a", "b", 0.3), small)
    with pytest.raises(ChannelError):
        SqueezerSpec("a", "b", -0.1)


def test_squeezer_unitarity():
    sq = two_mode_squeezer_unitary(SqueezerSpec.from_pair_probability("a", "b", 0.01), TWO_MODES)
    assert _unitarity_defect(sq) < 1e-10


# ---------------------------------------------------------------------------
# swap coupler


def test_swap_identity_at_zero():
    sw = swap_coupler_unitary(SwapSpec("a", "b", 0.0), TWO_MODES)
    assert np.abs(sw.to_dense() - np.eye(16)).max() < 1e-14


def test_swap_full_exchange():
    sw = swap_coupler_unitary(SwapSpec("a", "b", math.pi / 2), TWO_MODES)
    out = apply_unitary(MultiModeState.from_occupation(TWO_MODES, (0, 1)), sw)
    assert abs(abs(out.amplitudes[TWO_MODES.index_of((1, 0))]) - 1.0) < 1e-12


def test_swap_half_coupling_matches_two_level_exponential():
    # independent oracle: exponentiate the coupling on the {|01>, |10>} subspace
    theta = math.pi / 4
    gen = -1j * theta * np.array([[0.0, 1.0], [1.0, 0.0]])
    u2 = scipy.linalg.expm(gen)
    expected = np.abs(u2 @ np.array([1.0, 0.0])) ** 2  # start in |0,1>

    sw = swap_coupler_unitary(SwapSpec("a", "b", theta), TWO_MODES)
    out = apply_unitary(MultiModeState.from_occupation(TWO_MODES, (0, 1)), sw)
    probs = out.occupation_probabilities()
    assert abs(probs[TWO_MODES.index_of((0, 1))] - expected[0]) < 1e-12
    assert abs(probs[TWO_MODES.index_of((1, 0))] - expected[1]) < 1e-12
    assert abs(expected[0] - 0.5) < 1e-12 and abs(expected[1] - 0.5) < 1e-12


def test_swap_angle_validation():
    with pytest.raises(ChannelError):
        SwapSpec("a", "b", -0.1)
    with pytest.raises(ChannelError):
        SwapSpec("a", "b", math.pi)


@pytest.mark.parametrize("build", [
    lambda: beamsplitter_unitary(BeamsplitterSpec("a", "b", 0.4, 1.1), TWO_MODES),
    lambda: two_mode_squeezer_unitary(SqueezerSpec("a", "b", 0.12), TWO_MODES),
    lambda: swap_coupler_unitary(SwapSpec("a", "b", 0.9), TWO_MODES),
    lambda: phase_shift_unitary("a", 2.3, TWO_MODES),
])
def test_every_channel_unitary_is_unitary(build):
    assert _unitarity_defect(build()) < 1e-10


# ---------------------------------------------------------------------------
# phase shifter


def test_phase_shift_basics():
    reg = ModeRegistry.of(("a", 3))
    assert np.abs(phase_shift_unitary("a", 0.0, reg).to_dense() - np.eye(4)).max() < 1e-14

    one = MultiModeState.from_occupation(reg, (1,))
    out = apply_unitary(one, phase_shift_unitary("a", 0.8, reg))
    assert abs(out.amplitudes[reg.index_of((1,))] - np.exp(1j * 0.8)) < 1e-14

    full_turn = phase_shift_unitary("a", 2 * math.pi, reg)
    assert np.abs(full_turn.to_dense() - np.eye(4)).max() < 1e-12


# ---------------------------------------------------------------------------
# loss channel


def test_loss_identity_and_vacuum_reset():
    reg = ModeRegistry.of(("x", 3))
    rho = _random_density(reg, 4)
    assert np.abs(loss_channel(rho, "x", 1.0).matrix - rho.matrix).max() < 1e-14

    reset = loss_channel(rho, "x", 0.0)
    expected = np.zeros_like(rho.matrix)
    expected[0, 0] = 1.0
    assert np.abs(reset.matrix - expected).max() < 1e-12


def test_loss_binomial_on_single_photon():
    reg = ModeRegistry.of(("x", 3))
    rho = MultiModeState.from_occupation(reg, (1,)).to_density()
    out = loss_channel(rho, "x", 0.5)
    assert np.allclose(np.diag(out.matrix).real[:2], [0.5, 0.5], atol=1e-12)


def test_loss_composition_and_positivity():
    reg = ModeRegistry.of(("x", 3), ("y", 2))
    rho = _random_density(reg, 17)
    once = loss_channel(loss_channel(rho, "x", 0.8), "x", 0.6)
    combined = loss_channel(rho, "x", 0.48)
    assert np.abs(once.matrix - combined.matrix).max() < 1e-10
    assert abs(once.trace - 1.0) < 1e-12
    assert once.min_eigenvalue() > -1e-10


def _vacuum_matrix(cutoff):
    mat = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    mat[0, 0] = 1.0
    return mat


def _loss_by_dilation(rho, mode, transmissivity):
    """Reference pure-loss map: mix the mode with a vacuum environment on a
    beamsplitter with cos^2(theta) = transmissivity, then trace the environment out."""
    registry = rho.registry
    cutoff = registry.cutoff_of(mode)
    env_label = f"env_{mode}"
    big = ModeRegistry(registry.modes + ((env_label, cutoff),))
    big_rho = DensityOperator(big, np.kron(rho.matrix, _vacuum_matrix(cutoff)))
    theta = math.acos(math.sqrt(transmissivity))
    bs = beamsplitter_unitary(BeamsplitterSpec(mode, env_label, theta), big)
    return partial_trace(apply_unitary(big_rho, bs), registry.labels)


def test_loss_kraus_matches_dilation():
    reg = ModeRegistry.of(("x", 3), ("y", 2))
    rho = _random_density(reg, 29)
    for eta in (0.0, 0.3, 0.77, 1.0):
        kraus = loss_channel(rho, "x", eta)
        dilation = _loss_by_dilation(rho, "x", eta)
        assert np.abs(kraus.matrix - dilation.matrix).max() < 1e-12


def test_loss_rejects_bad_transmissivity():
    reg = ModeRegistry.of(("x", 1))
    rho = MultiModeState.vacuum(reg).to_density()
    with pytest.raises(ChannelError):
        loss_channel(rho, "x", 1.5)


@pytest.mark.parametrize("eta", [math.nan, math.inf, 1.2, -0.5])
def test_every_loss_entry_rejects_a_transmissivity_outside_the_unit_interval(eta):
    reg = ModeRegistry.of(("a", 2), ("b", 1))
    rho = _random_density(reg, 5)
    message = rf"transmissivity {eta!r} outside \[0, 1\]"
    with pytest.raises(ChannelError, match=message):
        loss_kraus_sum(rho.matrix, loss_kraus_operators(reg, "a", eta))
    with pytest.raises(ChannelError, match=message):
        loss_channel(rho, "a", eta)


def test_lossless_kraus_sum_returns_its_input():
    reg = ModeRegistry.of(("a", 2), ("b", 1))
    matrix = _random_density(reg, 6).matrix
    assert loss_kraus_operators(reg, "a", 1.0) == []
    assert loss_kraus_sum(matrix, loss_kraus_operators(reg, "a", 1.0)) is matrix


# ---------------------------------------------------------------------------
# thermal preparation


def test_thermal_state_basics():
    vac = thermal_state(0.0, 3)
    assert abs(vac.matrix[0, 0] - 1.0) < 1e-14

    th = thermal_state(0.036, 3)
    assert abs(th.trace - 1.0) < 1e-12
    s = 0.036 / 1.036
    assert abs(th.matrix[1, 1].real / th.matrix[0, 0].real - s) < 1e-12

    with pytest.raises(ChannelError):
        thermal_state(-0.1, 3)


def test_thermal_mean_within_truncation_weight():
    for nbar, cutoff in ((0.036, 3), (0.3, 6), (1.0, 12)):
        th = thermal_state(nbar, cutoff)
        mean = expectation(th, number_operator(th.registry, "thermal")).real
        weight = thermal_truncation_weight(nbar, cutoff)
        assert abs(mean - nbar) <= 10 * (cutoff + 1) * weight + 1e-12


# ---------------------------------------------------------------------------
# click POVM


def test_click_certainties():
    reg = ModeRegistry.of(("x", 3), ("y", 1))
    one = MultiModeState.from_occupation(reg, (1, 0)).to_density()
    out = click_measurement(one, "x", DetectorSpec(efficiency=1.0))
    assert abs(out.p_click - 1.0) < 1e-12

    vac = MultiModeState.vacuum(reg).to_density()
    out_vac = click_measurement(vac, "x", DetectorSpec())
    assert out_vac.p_click < 1e-15
    assert out_vac.rho_click is None  # conditioning on an impossible event


def test_click_partial_efficiency():
    reg = ModeRegistry.of(("x", 3), ("y", 1))
    two = MultiModeState.from_occupation(reg, (2, 0)).to_density()
    out = click_measurement(two, "x", DetectorSpec(efficiency=0.5))
    assert abs(out.p_click - 0.75) < 1e-12  # 1 - (1 - eta)^2


def test_click_povm_completeness_and_darks():
    reg = ModeRegistry.of(("x", 3), ("y", 2))
    rho = _random_density(reg, 31)
    no_click, click = click_povm_diagonals(rho, "x", DetectorSpec(efficiency=0.4,
                                                                 dark_click_probability=0.01))
    assert np.abs(no_click + click - 1.0).max() == 0.0

    vac = MultiModeState.vacuum(reg).to_density()
    out = click_measurement(vac, "x", DetectorSpec(dark_click_probability=0.25))
    assert abs(out.p_click - 0.25) < 1e-12

    with pytest.raises(ChannelError):
        DetectorSpec(efficiency=1.2)
