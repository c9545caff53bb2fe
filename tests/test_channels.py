import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    loss_kraus_gather,
    loss_kraus_operators,
    loss_kraus_sum,
    phase_shift_unitary,
    swap_coupler_unitary,
    thermal_weights,
    two_mode_squeezer_unitary,
)
from optomagnon.fock import (
    DensityOperator,
    ModeOperator,
    ModeRegistry,
    MultiModeState,
    UnknownModeError,
    _digits,
    apply_unitary,
    partial_trace,
)

TWO_MODES = ModeRegistry.of(("a", 3), ("b", 3))


def _unitarity_defect(op):
    dense = op.matrix.toarray()
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
    assert np.abs(bs.matrix.toarray() - np.eye(16)).max() < 1e-14


def test_beamsplitter_50_50_single_photon():
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b"), TWO_MODES)
    out = apply_unitary(MultiModeState.from_occupation(TWO_MODES, (1, 0)), bs)
    probs = np.abs(out.amplitudes) ** 2
    assert abs(probs[TWO_MODES.index_of((1, 0))] - 0.5) < 1e-12
    assert abs(probs[TWO_MODES.index_of((0, 1))] - 0.5) < 1e-12


def test_beamsplitter_conserves_photon_number():
    rng = np.random.default_rng(8)
    bs = beamsplitter_unitary(BeamsplitterSpec("a", "b", mixing_angle=0.61, relative_phase=0.3),
                              TWO_MODES)
    n_total = np.diag(np.add(*_digits(TWO_MODES, ["a", "b"])))
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
    assert np.abs(sq.matrix.toarray() - np.eye(16)).max() < 1e-14


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
    backward = ModeOperator(TWO_MODES, forward.matrix.conj().T)
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
    assert np.abs(sw.matrix.toarray() - np.eye(16)).max() < 1e-14


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
    probs = np.abs(out.amplitudes) ** 2
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
    assert np.abs(phase_shift_unitary("a", 0.0, reg).matrix.toarray() - np.eye(4)).max() < 1e-14

    one = MultiModeState.from_occupation(reg, (1,))
    out = apply_unitary(one, phase_shift_unitary("a", 0.8, reg))
    assert abs(out.amplitudes[reg.index_of((1,))] - np.exp(1j * 0.8)) < 1e-14

    full_turn = phase_shift_unitary("a", 2 * math.pi, reg)
    assert np.abs(full_turn.matrix.toarray() - np.eye(4)).max() < 1e-12


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
    with pytest.raises(ChannelError, match=message):
        loss_kraus_gather([rho.matrix], reg, "a", eta, [np.arange(reg.dimension)])


def test_lossless_kraus_sum_returns_its_input():
    reg = ModeRegistry.of(("a", 2), ("b", 1))
    matrix = _random_density(reg, 6).matrix
    assert loss_kraus_operators(reg, "a", 1.0) == []
    assert loss_kraus_sum(matrix, loss_kraus_operators(reg, "a", 1.0)) is matrix
    blocks = [matrix]
    assert loss_kraus_gather(blocks, reg, "a", 1.0, [np.arange(reg.dimension)]) is blocks


@pytest.mark.parametrize("eta", [0.0, 1e-200, 0.3, 0.77])  # 1e-200: weights that underflow to 0
@pytest.mark.parametrize("mode", ["a", "b"])
def test_loss_gathers_keep_the_bits_of_the_kraus_sum(mode, eta):
    reg = ModeRegistry.of(("a", 2), ("b", 3))
    stack = np.stack([_random_density(reg, seed).matrix for seed in (7, 8)])
    full = loss_kraus_sum(stack, loss_kraus_operators(reg, mode, eta))
    whole = [np.arange(reg.dimension)]
    assert loss_kraus_gather([stack], reg, mode, eta, whole)[0].tobytes() == full.tobytes()
    # total-number shells: the blocks the sum keeps on its shell diagonal
    a, b = _digits(reg, ["a", "b"])
    shells = [np.flatnonzero(a + b == n) for n in range(6)]
    got = loss_kraus_gather([stack[..., idx[:, None], idx] for idx in shells], reg, mode, eta, shells)
    assert [block.tobytes() for block in got] == [full[..., idx[:, None], idx].tobytes() for idx in shells]


def test_a_loss_gather_needs_shells_the_loss_keeps_whole():
    reg = ModeRegistry.of(("a", 2), ("b", 1))
    matrix = _random_density(reg, 9).matrix
    (b,) = _digits(reg, ["b"])
    for mode in ("a", "b"):  # each keeps the b-number shells whole
        shells = [np.flatnonzero(b == 0), np.flatnonzero(b == 1)]
        assert len(loss_kraus_gather([matrix[np.ix_(i, i)] for i in shells], reg, mode, 0.5, shells)) == 2
    shells = [np.array([0, 2]), np.array([1, 3, 4, 5])]  # losing an a-quantum takes 4 to 2
    with pytest.raises(ChannelError, match="maps a shell outside any one shell"):
        loss_kraus_gather([matrix[np.ix_(i, i)] for i in shells], reg, "a", 0.5, shells)
    with pytest.raises(ChannelError, match="maps a shell outside any one shell"):
        loss_kraus_gather([matrix[:3, :3]], reg, "a", 0.5, [np.arange(3)])


# ---------------------------------------------------------------------------
# thermal preparation


def test_thermal_weights_basics():
    vac = thermal_weights(0.0, 3)
    assert abs(vac[0] - 1.0) < 1e-14

    th = thermal_weights(0.036, 3)
    assert abs(th.sum() - 1.0) < 1e-12
    s = 0.036 / 1.036
    assert abs(th[1] / th[0] - s) < 1e-12

    with pytest.raises(ChannelError):
        thermal_weights(-0.1, 3)


def test_thermal_mean_within_truncation_weight():
    for nbar, cutoff in ((0.036, 3), (0.3, 6), (1.0, 12)):
        mean = float(np.dot(thermal_weights(nbar, cutoff), np.arange(cutoff + 1)))
        weight = (nbar / (nbar + 1.0)) ** (cutoff + 1)
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


def test_click_probability_stays_in_the_unit_interval():
    # the dot product of this trace-one diagonal with all-click weights rounds to 1 + 2**-52
    reg = ModeRegistry.of(("x", 2), ("y", 2))
    plus = DensityOperator(reg, np.full((9, 9), 1 / 9, dtype=complex))
    assert click_measurement(plus, "x", DetectorSpec(dark_click_probability=1.0)).p_click == 1.0


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


# ---------------------------------------------------------------------------
# every channel keeps a density a density


@st.composite
def _two_mode_densities(draw):
    """``F F+ / tr(F F+)`` of a complex factor ``F`` with 1-16 columns, first scaled to a
    largest entry of modulus 1 so that no product underflows."""
    reg = ModeRegistry.of(("a", draw(st.integers(1, 3))), ("b", draw(st.integers(1, 3))))
    rank = draw(st.integers(1, 16))
    parts = draw(arrays(np.float64, (2, reg.dimension, rank), elements=st.floats(-1.0, 1.0)))
    largest = np.hypot(parts[0], parts[1]).max()
    assume(largest > 0.0)
    factor = (parts[0] / largest) + 1j * (parts[1] / largest)
    m = factor @ factor.conj().T
    return DensityOperator(reg, m / np.trace(m)).check()


_ANGLE = st.floats(0.0, 2.0 * math.pi)
_UNIT = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rho=_two_mode_densities(), modes=st.sampled_from((("a", "b"), ("b", "a"))),
       mixing_angle=_ANGLE, relative_phase=_ANGLE, swap_angle=st.floats(0.0, math.pi / 2),
       phase=_ANGLE, squeeze_parameter=_UNIT, transmissivity=_UNIT, efficiency=_UNIT,
       dark_click_probability=_UNIT)
def test_every_channel_keeps_a_density_a_density(rho, modes, mixing_angle, relative_phase,
                                                 swap_angle, phase, squeeze_parameter,
                                                 transmissivity, efficiency, dark_click_probability):
    reg, (first, second) = rho.registry, modes
    unitaries = [beamsplitter_unitary(BeamsplitterSpec(first, second, mixing_angle, relative_phase), reg),
                 swap_coupler_unitary(SwapSpec(first, second, swap_angle), reg),
                 phase_shift_unitary(first, phase, reg)]
    try:  # a squeezer tail past its bound is the only allowed failure
        unitaries.append(two_mode_squeezer_unitary(SqueezerSpec(first, second, squeeze_parameter), reg))
    except TruncationError:
        pass
    for unitary in unitaries:
        apply_unitary(rho, unitary).check()
    loss_channel(rho, first, transmissivity).check()
    out = click_measurement(rho, first, DetectorSpec(efficiency, dark_click_probability))
    assert 0.0 <= out.p_click <= 1.0
    for branch in (out.rho_click, out.rho_noclick):
        if branch is not None:
            branch.check()
