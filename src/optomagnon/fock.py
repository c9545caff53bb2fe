"""Exact linear algebra on truncated multi-mode Fock spaces.

The registry fixes an ordered list of labeled bosonic modes, each with a
photon-number cutoff.  Basis states are occupation tuples mapped to flat
indices by a mixed-radix rule (first mode is the most significant digit,
matching the Kronecker-product convention used throughout).  Pure states
are dense complex vectors, mixed states dense complex matrices, and mode
operators sparse matrices on the same basis.

Operations return new objects and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    """Base class for engine errors; ``fields``: the parameters a failed check read, most specific first."""

    def __init__(self, *args, fields: tuple[str, ...] = ()):
        super().__init__(*args)
        self.fields = fields


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

    def check(self) -> "MultiModeState":
        """Assert unit norm within NORM_TOL, returning self on success."""
        if abs(self.norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"norm {self.norm!r} differs from 1 beyond {NORM_TOL}")
        return self

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


def _require_same_registry(a: ModeRegistry, b: ModeRegistry) -> None:
    if a.modes != b.modes:
        raise RegistryMismatchError(f"registries differ: {a.labels} vs {b.labels}")


# ---------------------------------------------------------------------------
# Lifting single- and two-mode blocks onto basis columns of the full space.
#
# A block acting on modes (x, y, ...) maps basis index ``rest + offset(n_x, n_y, ...)``
# to ``rest + offset(m_x, m_y, ...)``, where ``rest`` holds the other modes' digits.  With
# the block's modes put in registry order, ``offset`` grows with the block index, so the
# rows a set of columns reaches, and each row's columns in order, follow by index
# arithmetic: the lifted operator is never built over more columns than it is given.


def _digits(registry: ModeRegistry, labels: Sequence[str]) -> tuple[np.ndarray, ...]:
    cols = np.arange(registry.dimension)
    out = []
    for label in labels:
        axis = registry.axis_of(label)
        stride = registry.strides[axis]
        out.append((cols // stride) % registry.dims[axis])
    return tuple(out)


def lift_block(registry: ModeRegistry, labels: Sequence[str], block: np.ndarray,
               cols: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """Lift a matrix on distinct modes (row-major in their occupations) onto the basis columns
    ``cols`` of the registry, strictly increasing integer indices (a FockSpaceError otherwise):
    the sorted rows it reaches from them, and its (rows x cols) CSR matrix there, nonzero
    entries only, each row in column order.  These are the entries and the per-row order of
    the full-space lift sliced to those rows and columns.  Each call builds and returns fresh
    arrays."""
    cols = np.asarray(cols)
    if (cols.ndim != 1 or cols.dtype.kind not in "iu"
            or cols.size and (cols[0] < 0 or cols[-1] >= registry.dimension) or (cols[1:] <= cols[:-1]).any()):
        raise FockSpaceError(f"columns must be strictly increasing integers in [0, {registry.dimension}), "
                             f"got {cols!r}")
    if len(set(labels)) != len(labels):
        raise FockSpaceError(f"a block needs distinct modes, got {tuple(labels)}")
    axes = [registry.axis_of(label) for label in labels]
    dims = tuple(registry.dims[axis] for axis in axes)
    block = np.asarray(block, dtype=complex)
    size = math.prod(dims)
    if block.shape != (size, size):
        raise RegistryMismatchError(f"block shape {block.shape} does not match modes {tuple(labels)}")
    order = sorted(range(len(axes)), key=axes.__getitem__)
    block = block.reshape(dims + dims).transpose(order + [len(axes) + k for k in order])
    dims = tuple(dims[k] for k in order)
    block = block.reshape(size, size)
    strides = [registry.strides[axes[k]] for k in order]
    offsets = sum(n * stride for n, stride in zip(np.unravel_index(np.arange(size), dims), strides))

    def split(indices):  # block index of each basis index, and the basis index at its block's 0
        at = np.ravel_multi_index([(indices // stride) % d for stride, d in zip(strides, dims)], dims)
        return at, indices - offsets[at]

    bcol, rest = split(cols)
    reached = np.zeros(registry.dimension, dtype=bool)
    reached[(rest[:, None] + offsets)[block[:, bcol].T != 0]] = True
    rows = np.flatnonzero(reached)
    brow, rest = split(rows)
    position = np.full(registry.dimension, -1)
    position[cols] = np.arange(cols.size)
    position = position[rest[:, None] + offsets]  # each row's candidate columns, ascending
    values = block[brow]
    keep = (position >= 0) & (values != 0)
    indptr = np.zeros(rows.size + 1, dtype=int)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return rows, sp.csr_matrix((values[keep], position[keep], indptr), shape=(rows.size, cols.size))


def _embed_block(registry: ModeRegistry, labels: Sequence[str], block: np.ndarray,
                 cols: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """`lift_block` on the columns ``cols`` (every column by default), with every row of the
    registry: the rows it does not reach are empty."""
    d = registry.dimension
    rows, lifted = lift_block(registry, labels, block, np.arange(d) if cols is None else cols)
    indptr = np.zeros(d + 1, dtype=lifted.indptr.dtype)
    indptr[rows + 1] = np.diff(lifted.indptr)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((lifted.data, lifted.indices, indptr), shape=(d, lifted.shape[1]))


def embed_single_mode(registry: ModeRegistry, label: str, block: np.ndarray) -> ModeOperator:
    """Lift a (cutoff+1)-dimensional single-mode matrix to the full space."""
    return ModeOperator(registry, _embed_block(registry, (label,), block))


def embed_mode_pair(registry: ModeRegistry, label_a: str, label_b: str,
                    block: np.ndarray) -> ModeOperator:
    """Lift a two-mode matrix (row-major in (n_a, n_b)) to the full space."""
    return ModeOperator(registry, _embed_block(registry, (label_a, label_b), block))


def single_mode_annihilation(cutoff: int) -> np.ndarray:
    """Dense (cutoff+1)-dimensional ladder matrix with a|n> = sqrt(n)|n-1>."""
    d = cutoff + 1
    mat = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


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

    # 52 letters cover 26 modes; the density matrix of 27 modes has at least 2**54 entries
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
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


def fidelity_with_pure(rho: DensityOperator, psi: MultiModeState) -> float:
    """<psi| rho |psi>, clamped to [0, 1] only for excursions within 1e-8."""
    _require_same_registry(rho.registry, psi.registry)
    if abs(psi.norm - 1.0) > 1e-8:
        raise NormalizationError(f"reference state norm {psi.norm!r} not 1 within 1e-8")
    value = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
    if value < -1e-8 or value > 1.0 + 1e-8:
        raise NormalizationError(f"fidelity {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)
