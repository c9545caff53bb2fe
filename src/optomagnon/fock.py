"""Exact linear algebra on truncated multi-mode Fock spaces.

The registry fixes an ordered list of labeled bosonic modes, each with a
photon-number cutoff.  Basis states are occupation tuples mapped to flat
indices by a mixed-radix rule (first mode is the most significant digit,
matching the Kronecker-product convention used throughout).  Pure states
are dense complex vectors, mixed states dense complex matrices, and mode
operators sparse matrices on the same basis.

All containers are immutable values: operations return new objects and
never mutate their inputs, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

# Canonical mode labels of the entanglement protocol.  The engine accepts
# any labels; these constants keep the protocol modules consistent.
STOKES_A, STOKES_B = "stokes_A", "stokes_B"
MAGNON_A, MAGNON_B = "magnon_A", "magnon_B"
ANTISTOKES_A, ANTISTOKES_B = "antistokes_A", "antistokes_B"


class FockSpaceError(Exception):
    """Base class for engine errors."""


class UnknownModeError(FockSpaceError):
    """A mode label is not present in the registry."""


class RegistryMismatchError(FockSpaceError):
    """Two objects live on different registries or dimensions."""


class NormalizationError(FockSpaceError):
    """A state or density violates its norm/trace invariant beyond tolerance."""


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered list of (label, cutoff) pairs defining the truncated space.

    A cutoff of ``c`` keeps occupations 0..c inclusive, so each mode
    contributes a factor ``c + 1`` to the total dimension.
    """

    modes: tuple[tuple[str, int], ...]

    def __post_init__(self):
        modes = tuple((str(label), int(cutoff)) for label, cutoff in self.modes)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise FockSpaceError("registry needs at least one mode")
        labels = [label for label, _ in modes]
        if len(set(labels)) != len(labels):
            raise FockSpaceError(f"duplicate mode labels in {labels}")
        for label, cutoff in modes:
            if not label:
                raise FockSpaceError("mode labels must be nonempty strings")
            if cutoff < 1:
                raise FockSpaceError(f"cutoff for mode {label!r} must be >= 1, got {cutoff}")

    @classmethod
    def of(cls, *modes: tuple[str, int]) -> "ModeRegistry":
        return cls(tuple(modes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(cutoff + 1 for _, cutoff in self.modes)

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    @property
    def strides(self) -> tuple[int, ...]:
        out, acc = [], 1
        for d in reversed(self.dims):
            out.append(acc)
            acc *= d
        return tuple(reversed(out))

    def axis_of(self, label: str) -> int:
        for k, (name, _) in enumerate(self.modes):
            if name == label:
                return k
        raise UnknownModeError(f"mode {label!r} not in registry {self.labels}")

    def cutoff_of(self, label: str) -> int:
        return self.modes[self.axis_of(label)][1]

    def restricted(self, keep: Iterable[str]) -> "ModeRegistry":
        """Registry containing only ``keep``, preserving the original order."""
        keep = set(keep)
        for label in keep:
            self.axis_of(label)
        return ModeRegistry(tuple(m for m in self.modes if m[0] in keep))

    def index_of(self, occupation: Sequence[int]) -> int:
        """Flat basis index of an occupation tuple (first mode most significant)."""
        if len(occupation) != len(self.modes):
            raise FockSpaceError(
                f"occupation has {len(occupation)} entries, registry has {len(self.modes)} modes"
            )
        for n, d in zip(occupation, self.dims):
            if not 0 <= n < d:
                raise FockSpaceError(f"occupation {tuple(occupation)} outside cutoffs")
        return int(np.ravel_multi_index(tuple(occupation), self.dims))


@dataclass(frozen=True)
class MultiModeState:
    """Pure state: complex amplitude vector over the registry's basis."""

    registry: ModeRegistry
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.registry.dimension,):
            raise RegistryMismatchError(
                f"amplitude vector of length {amps.shape} does not match dimension "
                f"{self.registry.dimension}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_occupation(cls, registry: ModeRegistry, occupation: Sequence[int]) -> "MultiModeState":
        amps = np.zeros(registry.dimension, dtype=complex)
        amps[registry.index_of(occupation)] = 1.0
        return cls(registry, amps)

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "MultiModeState":
        return cls.from_occupation(registry, (0,) * len(registry.modes))

    @property
    def norm(self) -> float:
        n = float(np.linalg.norm(self.amplitudes))
        if not np.isfinite(n):
            raise NormalizationError("state norm is not finite")
        return n

    def normalized(self) -> "MultiModeState":
        n = self.norm
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return MultiModeState(self.registry, self.amplitudes / n)

    def check(self) -> "MultiModeState":
        """Assert unit norm within NORM_TOL, returning self on success."""
        if abs(self.norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"norm {self.norm!r} differs from 1 beyond {NORM_TOL}")
        return self

    def overlap(self, other: "MultiModeState") -> complex:
        _require_same_registry(self.registry, other.registry)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def occupation_probabilities(self) -> np.ndarray:
        """Probabilities over flat basis indices."""
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.registry, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state: Hermitian trace-one matrix over the registry's basis.

    The constructor only checks shape; `check` verifies the Hermiticity,
    trace and positivity invariants where tests or stage boundaries need
    them, to keep inner-loop construction cheap.
    """

    registry: ModeRegistry
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.registry.dimension
        if mat.shape != (d, d):
            raise RegistryMismatchError(f"matrix shape {mat.shape} does not match dimension {d}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def product(cls, registry: ModeRegistry, single_mode_matrices: Sequence[np.ndarray]) -> "DensityOperator":
        """Tensor product of one single-mode matrix per registry mode, in order."""
        if len(single_mode_matrices) != len(registry.modes):
            raise RegistryMismatchError("need exactly one factor per mode")
        mat = np.ones((1, 1), dtype=complex)
        for (label, cutoff), factor in zip(registry.modes, single_mode_matrices):
            factor = np.asarray(factor, dtype=complex)
            if factor.shape != (cutoff + 1, cutoff + 1):
                raise RegistryMismatchError(f"factor for mode {label!r} has shape {factor.shape}")
            mat = np.kron(mat, factor)
        return cls(registry, mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "DensityOperator":
        t = np.trace(self.matrix)
        if abs(t) == 0.0:
            raise NormalizationError("cannot normalize a zero-trace matrix")
        return DensityOperator(self.registry, self.matrix / t)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check(self) -> "DensityOperator":
        """Assert the density-operator invariants, returning self on success."""
        if self.hermiticity_defect() > HERMITICITY_TOL:
            raise NormalizationError(f"Hermiticity defect {self.hermiticity_defect():.3e}")
        if abs(self.trace - 1.0) > TRACE_TOL:
            raise NormalizationError(f"trace {self.trace!r} differs from 1")
        if self.min_eigenvalue() < -HERMITICITY_TOL:
            raise NormalizationError(f"negative eigenvalue {self.min_eigenvalue():.3e}")
        return self

    def occupation_probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


@dataclass(frozen=True)
class ModeOperator:
    """Operator on the registry's space, held as a sparse matrix."""

    registry: ModeRegistry
    matrix: sp.csr_matrix

    def __post_init__(self):
        mat = sp.csr_matrix(self.matrix, dtype=complex)
        d = self.registry.dimension
        if mat.shape != (d, d):
            raise RegistryMismatchError(f"operator shape {mat.shape} does not match dimension {d}")
        object.__setattr__(self, "matrix", mat)

    def dag(self) -> "ModeOperator":
        return ModeOperator(self.registry, self.matrix.conj().T.tocsr())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _require_same_registry(a: ModeRegistry, b: ModeRegistry) -> None:
    if a.modes != b.modes:
        raise RegistryMismatchError(f"registries differ: {a.labels} vs {b.labels}")


# ---------------------------------------------------------------------------
# Embedding single- and two-mode blocks into the full space.
#
# A block acting on modes (x, y, ...) is lifted by enumerating every basis
# index, splitting off the (n_x, n_y, ...) digits, and re-assembling target
# indices with the block's output digits.  This keeps lifted operators sparse:
# at most block-dimension entries per column.


def _digits(registry: ModeRegistry, labels: Sequence[str]) -> tuple[np.ndarray, ...]:
    cols = np.arange(registry.dimension)
    out = []
    for label in labels:
        axis = registry.axis_of(label)
        stride = registry.strides[axis]
        out.append((cols // stride) % registry.dims[axis])
    return tuple(out)


def _embed_block(registry: ModeRegistry, labels: Sequence[str], block: np.ndarray) -> ModeOperator:
    """Lift a matrix on distinct modes (row-major in their occupations) to the full space.
    Lifts are memoized on the block's bytes and shared, so their CSR arrays are read-only."""
    if len(set(labels)) != len(labels):
        raise FockSpaceError(f"a block needs distinct modes, got {tuple(labels)}")
    dims = tuple(registry.dims[registry.axis_of(label)] for label in labels)
    block = np.asarray(block, dtype=complex)
    if block.shape != (math.prod(dims),) * 2:
        raise RegistryMismatchError(f"block shape {block.shape} does not match modes {tuple(labels)}")
    return _lift(registry, tuple(labels), block.shape[0], block.tobytes())


@functools.lru_cache(maxsize=128)
def _lift(registry: ModeRegistry, labels: tuple[str, ...], size: int, data: bytes) -> ModeOperator:
    block = np.frombuffer(data, dtype=complex).reshape(size, size)
    axes = [registry.axis_of(label) for label in labels]
    dims = tuple(registry.dims[axis] for axis in axes)
    strides = [registry.strides[axis] for axis in axes]
    digits = _digits(registry, labels)
    rest = np.arange(registry.dimension) - sum(n * stride for n, stride in zip(digits, strides))
    bcol = np.ravel_multi_index(digits, dims)
    vals = block[:, bcol]
    out_rows = sum(n * stride for n, stride in zip(np.unravel_index(np.arange(size), dims), strides))
    brows, keep = np.nonzero(vals)
    mat = sp.coo_matrix((vals[brows, keep], (out_rows[brows] + rest[keep], keep)),
                        shape=(registry.dimension, registry.dimension))
    op = ModeOperator(registry, mat.tocsr())
    for array in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
        array.flags.writeable = False
    return op


def embed_single_mode(registry: ModeRegistry, label: str, block: np.ndarray) -> ModeOperator:
    """Lift a (cutoff+1)-dimensional single-mode matrix to the full space."""
    return _embed_block(registry, (label,), block)


def embed_mode_pair(registry: ModeRegistry, label_a: str, label_b: str,
                    block: np.ndarray) -> ModeOperator:
    """Lift a two-mode matrix (row-major in (n_a, n_b)) to the full space."""
    return _embed_block(registry, (label_a, label_b), block)


def single_mode_annihilation(cutoff: int) -> np.ndarray:
    """Dense (cutoff+1)-dimensional ladder matrix with a|n> = sqrt(n)|n-1>."""
    d = cutoff + 1
    mat = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


def annihilation(registry: ModeRegistry, label: str) -> ModeOperator:
    """Annihilation operator for one mode, exact up to the cutoff boundary."""
    return embed_single_mode(registry, label, single_mode_annihilation(registry.cutoff_of(label)))


def creation(registry: ModeRegistry, label: str) -> ModeOperator:
    return annihilation(registry, label).dag()


def number_operator(registry: ModeRegistry, label: str) -> ModeOperator:
    (n,) = _digits(registry, [label])
    return ModeOperator(registry, sp.diags(n.astype(complex)).tocsr())


def sandwich(op: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``op x op+`` as op (op x)+ for a Hermitian ``x`` or each matrix of a stack ``x[..., q, q]``.

    Two CSR products on column-stacked operands: each output element sums one
    row of ``op`` in stored order, so it is bit-identical whatever the stack
    size, and under any row/column slice of ``op`` that drops only zero terms.
    """
    *lead, q, _ = x.shape
    n, p = math.prod(lead), op.shape[0]
    half = op @ np.moveaxis(x.reshape(n, q, q), 0, 1).reshape(q, n * q)
    half = np.conjugate(half.reshape(p, n, q).transpose(2, 1, 0), order="C")
    out = op @ half.reshape(q, n * p)
    return np.moveaxis(out.reshape(p, n, p), 1, 0).reshape(*lead, p, p)


def apply_unitary(obj, unitary: ModeOperator):
    """Evolve a pure state (U|psi>) or a density (U rho U+); returns the same kind."""
    _require_same_registry(obj.registry, unitary.registry)
    u = unitary.matrix
    if isinstance(obj, MultiModeState):
        return MultiModeState(obj.registry, u @ obj.amplitudes)
    if isinstance(obj, DensityOperator):
        return DensityOperator(obj.registry, sandwich(u, obj.matrix))
    raise TypeError(f"cannot apply a unitary to {type(obj).__name__}")


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every mode not in ``keep``; kept modes retain their order."""
    keep = list(dict.fromkeys(keep))
    if not keep:
        raise FockSpaceError("keep set must be nonempty")
    registry = rho.registry
    keep_axes = sorted(registry.axis_of(label) for label in keep)
    n_modes = len(registry.modes)
    dims = registry.dims
    tensor = rho.matrix.reshape(dims + dims)

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n_modes > len(letters):
        raise FockSpaceError("too many modes for partial trace")
    ket = list(letters[:n_modes])
    bra = list(letters[n_modes:2 * n_modes])
    for axis in range(n_modes):
        if axis not in keep_axes:
            bra[axis] = ket[axis]
    out = "".join(ket[a] for a in keep_axes) + "".join(bra[a] for a in keep_axes)
    reduced = np.einsum("".join(ket) + "".join(bra) + "->" + out, tensor)

    new_registry = registry.restricted(keep)
    d = new_registry.dimension
    return DensityOperator(new_registry, reduced.reshape(d, d))


def expectation(rho: DensityOperator, op: ModeOperator) -> complex:
    """tr(rho O); real within tolerance for Hermitian O."""
    _require_same_registry(rho.registry, op.registry)
    return complex(op.matrix.multiply(rho.matrix.T).sum())


def fidelity_with_pure(rho: DensityOperator, psi: MultiModeState) -> float:
    """<psi| rho |psi>, clamped to [0, 1] only for excursions within 1e-8."""
    _require_same_registry(rho.registry, psi.registry)
    if abs(psi.norm - 1.0) > 1e-8:
        raise NormalizationError(f"reference state norm {psi.norm!r} not 1 within 1e-8")
    value = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
    if value < -1e-8 or value > 1.0 + 1e-8:
        raise NormalizationError(f"fidelity {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)
