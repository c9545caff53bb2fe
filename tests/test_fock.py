import numpy as np
import pytest
import scipy.linalg

from optomagnon import fock
from optomagnon.fock import (
    DensityOperator,
    FockSpaceError,
    ModeOperator,
    ModeRegistry,
    MultiModeState,
    NormalizationError,
    UnknownModeError,
    annihilation,
    apply_unitary,
    embed_mode_pair,
    embed_single_mode,
    expectation,
    fidelity_with_pure,
    number_operator,
    partial_trace,
)
from optomagnon.channels import phase_shift_unitary, thermal_state


def test_registry_validation():
    with pytest.raises(FockSpaceError):
        ModeRegistry.of(("a", 2), ("a", 2))
    with pytest.raises(FockSpaceError):
        ModeRegistry.of(("a", 0))
    with pytest.raises(FockSpaceError):
        ModeRegistry(())
    reg = ModeRegistry.of(("a", 2), ("b", 3))
    assert reg.dimension == 12
    assert reg.labels == ("a", "b")
    with pytest.raises(UnknownModeError):
        reg.axis_of("c")


def test_basis_single_mode():
    reg = ModeRegistry.of(("m", 2))
    assert reg.dimension == 3
    assert np.unravel_index(2, reg.dims) == (2,)


def test_basis_two_modes_distinct_indices():
    reg = ModeRegistry.of(("a", 1), ("b", 1))
    assert reg.dimension == 4
    assert reg.index_of((1, 0)) != reg.index_of((0, 1))


def test_basis_ten_modes_dimension():
    reg = ModeRegistry(tuple((f"m{k}", 3) for k in range(10)))
    assert reg.dimension == 4**10 == 1048576


@pytest.mark.parametrize("dims", [(("a", 2),), (("a", 1), ("b", 3)), (("a", 2), ("b", 2), ("c", 1))])
def test_index_round_trip(dims):
    reg = ModeRegistry(dims)
    for i in range(reg.dimension):
        assert reg.index_of(np.unravel_index(i, reg.dims)) == i
    with pytest.raises(FockSpaceError):
        reg.index_of((99,) * len(dims))


def test_annihilation_ladder():
    reg = ModeRegistry.of(("m", 4))
    a = annihilation(reg, "m")

    one = MultiModeState.from_occupation(reg, (1,))
    out = apply_unitary(one, a)  # not unitary, but the linear action is what we test
    assert abs(out.amplitudes[reg.index_of((0,))] - 1.0) < 1e-14

    vac = MultiModeState.vacuum(reg)
    assert np.abs((a.matrix @ vac.amplitudes)).max() == 0.0

    three = MultiModeState.from_occupation(reg, (3,))
    out3 = a.matrix @ three.amplitudes
    assert abs(out3[reg.index_of((2,))] - np.sqrt(3)) < 1e-14

    with pytest.raises(UnknownModeError):
        annihilation(reg, "nope")


def test_commutator_on_safe_subspace():
    reg = ModeRegistry.of(("m", 5))
    a = annihilation(reg, "m").matrix.toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    # exact identity below the cutoff boundary
    for n in range(5):
        vec = np.zeros(6)
        vec[n] = 1.0
        assert np.allclose(comm @ vec, vec, atol=1e-14)


def _random_unitary(reg, rng):
    d = reg.dimension
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    import scipy.sparse as sp
    return ModeOperator(reg, sp.csr_matrix(scipy.linalg.expm(1j * h)))


def test_apply_unitary_preserves_norm_and_trace():
    rng = np.random.default_rng(42)
    reg = ModeRegistry.of(("a", 2), ("b", 2))
    u = _random_unitary(reg, rng)

    amps = rng.normal(size=reg.dimension) + 1j * rng.normal(size=reg.dimension)
    psi = MultiModeState(reg, amps / np.linalg.norm(amps))
    assert abs(apply_unitary(psi, u).norm - 1.0) < 1e-12

    mat = rng.normal(size=(reg.dimension, reg.dimension)) + 1j * rng.normal(size=(reg.dimension, reg.dimension))
    mat = mat @ mat.conj().T
    rho = DensityOperator(reg, mat / np.trace(mat))
    assert abs(apply_unitary(rho, u).trace - 1.0) < 1e-12


def test_phase_unitary_preserves_occupations():
    reg = ModeRegistry.of(("a", 3))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = MultiModeState(reg, amps / np.linalg.norm(amps))
    shifted = apply_unitary(psi, phase_shift_unitary("a", 0.7, reg))
    assert np.allclose(shifted.occupation_probabilities(), psi.occupation_probabilities(), atol=1e-14)


def test_partial_trace_product_state():
    reg = ModeRegistry.of(("a", 2), ("b", 2))
    rho_a = thermal_state(0.2, 2).matrix
    rho_b = thermal_state(0.7, 2).matrix
    rho = DensityOperator(reg, np.kron(rho_a, rho_b))
    reduced = partial_trace(rho, ["a"])
    assert np.abs(reduced.matrix - rho_a).max() < 1e-14
    assert abs(reduced.trace - rho.trace) < 1e-12


def test_partial_trace_bell_state():
    reg = ModeRegistry.of(("a", 1), ("b", 1))
    amps = np.zeros(4, dtype=complex)
    amps[reg.index_of((0, 1))] = 1 / np.sqrt(2)
    amps[reg.index_of((1, 0))] = 1 / np.sqrt(2)
    reduced = partial_trace(MultiModeState(reg, amps).to_density(), ["a"])
    assert np.allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-14)


def test_partial_trace_composition():
    rng = np.random.default_rng(11)
    reg = ModeRegistry.of(("a", 1), ("b", 2), ("c", 1))
    mat = rng.normal(size=(reg.dimension,) * 2) + 1j * rng.normal(size=(reg.dimension,) * 2)
    mat = mat @ mat.conj().T
    rho = DensityOperator(reg, mat / np.trace(mat))
    via_two_steps = partial_trace(partial_trace(rho, ["a", "b"]), ["a"])
    direct = partial_trace(rho, ["a"])
    assert np.abs(via_two_steps.matrix - direct.matrix).max() < 1e-12

    with pytest.raises(FockSpaceError):
        partial_trace(rho, [])
    with pytest.raises(UnknownModeError):
        partial_trace(rho, ["nope"])


def test_expectation_number_operator():
    reg = ModeRegistry.of(("m", 3))
    n_op = number_operator(reg, "m")
    two = MultiModeState.from_occupation(reg, (2,)).to_density()
    assert abs(expectation(two, n_op) - 2.0) < 1e-14

    vac = MultiModeState.vacuum(reg).to_density()
    a = annihilation(reg, "m")
    assert abs(expectation(vac, ModeOperator(reg, a.dag().matrix @ a.matrix))) < 1e-14

    th = thermal_state(0.036, 3)
    mean = expectation(th, number_operator(th.registry, "thermal")).real
    assert abs(mean - 0.036) < 1e-4  # truncation tail only


def test_fidelity_with_pure_basics():
    reg = ModeRegistry.of(("a", 2))
    psi = MultiModeState.from_occupation(reg, (1,))
    assert abs(fidelity_with_pure(psi.to_density(), psi) - 1.0) < 1e-14

    orth = MultiModeState.from_occupation(reg, (2,))
    assert fidelity_with_pure(orth.to_density(), psi) == 0.0

    with pytest.raises(NormalizationError):
        fidelity_with_pure(psi.to_density(), MultiModeState(reg, psi.amplitudes * 2))


def test_fidelity_linear_and_phase_invariant():
    rng = np.random.default_rng(5)
    reg = ModeRegistry.of(("a", 2))
    psi = MultiModeState.from_occupation(reg, (0,))
    mats = []
    for _ in range(2):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = m @ m.conj().T
        mats.append(m / np.trace(m))
    rho1, rho2 = (DensityOperator(reg, m) for m in mats)
    lam = 0.3
    mix = DensityOperator(reg, lam * rho1.matrix + (1 - lam) * rho2.matrix)
    combined = lam * fidelity_with_pure(rho1, psi) + (1 - lam) * fidelity_with_pure(rho2, psi)
    assert abs(fidelity_with_pure(mix, psi) - combined) < 1e-12

    rotated = MultiModeState(reg, np.exp(1j * 1.2) * psi.amplitudes)
    assert abs(fidelity_with_pure(rho1, rotated) - fidelity_with_pure(rho1, psi)) < 1e-12


def test_density_check_flags_bad_matrices():
    reg = ModeRegistry.of(("a", 1))
    good = MultiModeState.vacuum(reg).to_density()
    good.check()
    bad = DensityOperator(reg, np.array([[1.0, 0.5], [0.1, 0.0]]))
    with pytest.raises(NormalizationError):
        bad.check()


def test_state_check_flags_bad_norm():
    reg = ModeRegistry.of(("a", 1))
    MultiModeState.vacuum(reg).check()
    with pytest.raises(NormalizationError):
        MultiModeState(reg, np.array([1.0, 1.0])).check()


def test_lifted_operator_arrays_are_read_only():
    op = annihilation(ModeRegistry.of(("a", 2), ("b", 3)), "b").matrix
    for array in (op.data, op.indices, op.indptr):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_cached_lift_equals_a_fresh_build():
    reg = ModeRegistry.of(("a", 2), ("b", 3), ("c", 1))
    rng = np.random.default_rng(3)
    block = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    block[block.real > 0.5] = 0.0
    cached = embed_mode_pair(reg, "c", "b", block).matrix
    assert embed_mode_pair(reg, "c", "b", block.copy()).matrix is cached
    fresh = fock._lift.__wrapped__(reg, ("c", "b"), 8, block.tobytes()).matrix
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))


def test_lift_cache_stays_bounded():
    reg = ModeRegistry.of(("a", 1))
    maxsize = fock._lift.cache_info().maxsize
    for k in range(maxsize + 20):
        embed_single_mode(reg, "a", np.diag([1.0, np.exp(1e-3j * k)]))
    assert fock._lift.cache_info().currsize <= maxsize
