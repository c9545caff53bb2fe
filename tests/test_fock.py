import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from optomagnon import fock
from optomagnon.fock import (
    DensityOperator,
    FockSpaceError,
    ModeOperator,
    ModeRegistry,
    MultiModeState,
    NormalizationError,
    RegistryMismatchError,
    UnknownModeError,
    apply_unitary,
    embed_mode_pair,
    embed_single_mode,
    fidelity_with_pure,
    lift_block,
    partial_trace,
    single_mode_annihilation,
)
from optomagnon.channels import phase_shift_unitary, thermal_weights


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
    a = embed_single_mode(reg, "m", single_mode_annihilation(4))

    one = MultiModeState.from_occupation(reg, (1,))
    out = apply_unitary(one, a)  # not unitary, but the linear action is what we test
    assert abs(out.amplitudes[reg.index_of((0,))] - 1.0) < 1e-14

    vac = MultiModeState.vacuum(reg)
    assert np.abs((a.matrix @ vac.amplitudes)).max() == 0.0

    three = MultiModeState.from_occupation(reg, (3,))
    out3 = a.matrix @ three.amplitudes
    assert abs(out3[reg.index_of((2,))] - np.sqrt(3)) < 1e-14

    with pytest.raises(UnknownModeError):
        embed_single_mode(reg, "nope", single_mode_annihilation(4))


def test_commutator_on_safe_subspace():
    reg = ModeRegistry.of(("m", 5))
    a = embed_single_mode(reg, "m", single_mode_annihilation(5)).matrix.toarray()
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
    assert np.allclose(np.abs(shifted.amplitudes) ** 2, np.abs(psi.amplitudes) ** 2, atol=1e-14)


def test_partial_trace_product_state():
    reg = ModeRegistry.of(("a", 2), ("b", 2))
    rho_a = np.diag(thermal_weights(0.2, 2))
    rho_b = np.diag(thermal_weights(0.7, 2))
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


def test_pair_lift_on_reversed_modes_equals_a_dense_reference():
    reg = ModeRegistry.of(("a", 2), ("b", 3), ("c", 1))
    rng = np.random.default_rng(3)
    block = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    block[block.real > 0.5] = 0.0
    lifted = embed_mode_pair(reg, "c", "b", block).matrix
    # identity on a, block on (c, b), then axes (a, c, b) permuted to the registry's (a, b, c)
    dense = np.kron(np.eye(3), block).reshape(3, 2, 4, 3, 2, 4).transpose(0, 2, 1, 3, 5, 4)
    assert np.array_equal(lifted.toarray(), dense.reshape(24, 24))
    assert np.all(lifted.data != 0)


@pytest.mark.parametrize("cols", [[-1], [2, 2], [9], [3, 1], [[0, 1]], [0.0, 1.0], [True]])
def test_lift_block_rejects_columns_that_are_not_increasing_basis_indices(cols):
    reg = ModeRegistry.of(("a", 2), ("b", 2))
    with pytest.raises(FockSpaceError, match="columns must be strictly increasing integers in"):
        lift_block(reg, ("a",), np.eye(3), np.array(cols))


def test_lift_block_accepts_no_columns():
    rows, lifted = lift_block(ModeRegistry.of(("a", 2), ("b", 2)), ("a",), np.eye(3), np.arange(0))
    assert rows.size == 0 and lifted.shape == (0, 0)



def _coo_lift(registry, labels, block):
    """Reference full-space lift: the block put on every column of the registry as a COO
    matrix, which scipy makes CSR."""
    axes = [registry.axis_of(label) for label in labels]
    dims = tuple(registry.dims[axis] for axis in axes)
    strides = [registry.strides[axis] for axis in axes]
    every = np.arange(registry.dimension)
    digits = [(every // stride) % d for stride, d in zip(strides, dims)]
    rest = every - sum(n * stride for n, stride in zip(digits, strides))
    vals = block[:, np.ravel_multi_index(digits, dims)]
    out_rows = sum(n * stride for n, stride in zip(np.unravel_index(np.arange(len(block)), dims), strides))
    brows, keep = np.nonzero(vals)
    return sp.coo_matrix((vals[brows, keep], (out_rows[brows] + rest[keep], keep)),
                         shape=(registry.dimension, registry.dimension)).tocsr()


def _assert_same_csr(got, want):
    """Same shape, and the same CSR arrays byte for byte, index dtype included."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@st.composite
def _lift_inputs(draw):
    """A registry of 1-4 modes with cutoffs 1-4; a block on 1-3 of its modes in any order,
    with a random pattern of (signed) zeros; and a random sorted set of basis columns."""
    cutoffs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    registry = ModeRegistry(tuple((f"m{k}", c) for k, c in enumerate(cutoffs)))
    labels = tuple(draw(st.permutations(registry.labels))[:draw(st.integers(1, min(3, len(cutoffs))))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod([registry.cutoff_of(label) + 1 for label in labels]))
    block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    block.real[rng.random((size, size)) < draw(st.floats(0.0, 1.0))] = 0.0
    block.imag[rng.random((size, size)) < draw(st.floats(0.0, 1.0))] = 0.0
    block[rng.random((size, size)) < draw(st.floats(0.0, 1.0))] = draw(st.sampled_from([0.0, -0.0]))
    cols = np.flatnonzero(rng.random(registry.dimension) < draw(st.floats(0.0, 1.0)))
    return registry, labels, block, cols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inputs=_lift_inputs())
def test_lifts_equal_the_coo_lift_sliced_the_same_way(inputs):
    registry, labels, block, cols = inputs
    full = _coo_lift(registry, labels, block)
    _assert_same_csr(fock._embed_block(registry, labels, block), full)
    sliced = full[:, cols]
    _assert_same_csr(fock._embed_block(registry, labels, block, cols), sliced)
    rows, lifted = lift_block(registry, labels, block, cols)
    want = np.flatnonzero(np.diff(sliced.indptr))
    assert rows.tobytes() == want.tobytes()
    _assert_same_csr(lifted, sliced[want])
    if len(labels) == 2:
        _assert_same_csr(embed_mode_pair(registry, *labels, block).matrix, full)


_SIX = ModeRegistry.of(("a", 1), ("b", 2))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ModeRegistry.of(("", 1)), FockSpaceError, "nonempty", id="empty-label"),
    pytest.param(lambda: _SIX.index_of((0,)), FockSpaceError, "occupation has 1 entries", id="index-length"),
    pytest.param(lambda: MultiModeState(_SIX, np.zeros(5)), RegistryMismatchError, "amplitude vector",
                 id="state-shape"),
    pytest.param(lambda: MultiModeState(_SIX, np.full(6, np.nan)).norm, NormalizationError, "not finite",
                 id="state-norm-nan"),
    pytest.param(lambda: DensityOperator(_SIX, np.zeros((5, 5))), RegistryMismatchError, "matrix shape",
                 id="density-shape"),
    pytest.param(lambda: DensityOperator(_SIX, np.zeros((6, 6))).normalized(), NormalizationError,
                 "zero-trace", id="normalized-zero"),
    pytest.param(lambda: DensityOperator(_SIX, np.eye(6) / 3).check(), NormalizationError,
                 "differs from 1", id="check-trace"),
    pytest.param(lambda: DensityOperator(_SIX, np.diag([1.5, -0.5, 0, 0, 0, 0])).check(),
                 NormalizationError, "negative eigenvalue", id="check-positivity"),
    pytest.param(lambda: ModeOperator(_SIX, sp.eye(5)), RegistryMismatchError, "operator shape",
                 id="operator-shape"),
    pytest.param(lambda: lift_block(_SIX, ("a", "a"), np.eye(4), np.arange(6)), FockSpaceError,
                 "distinct modes", id="lift-repeated-mode"),
    pytest.param(lambda: lift_block(_SIX, ("a", "b"), np.eye(4), np.arange(6)), RegistryMismatchError,
                 "block shape", id="lift-block-shape"),
    pytest.param(lambda: apply_unitary(ModeOperator(_SIX, sp.eye(6)), ModeOperator(_SIX, sp.eye(6))),
                 TypeError, "cannot apply a unitary to ModeOperator", id="apply-to-operator"),
    pytest.param(lambda: apply_unitary(MultiModeState.vacuum(ModeRegistry.of(("c", 5))),
                                       ModeOperator(_SIX, sp.eye(6))),
                 RegistryMismatchError, "registries differ", id="apply-other-registry"),
    pytest.param(lambda: fidelity_with_pure(DensityOperator(_SIX, 2 * np.eye(6)),
                                            MultiModeState.vacuum(_SIX)),
                 NormalizationError, "outside \\[0, 1\\]", id="fidelity-range"),
])
def test_each_shape_registry_and_invariant_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
