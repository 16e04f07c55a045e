"""Quantum-state primitives: labelled density matrices, kets, Schmidt
decompositions, and the entropic quantities built from them.

All entropies and relative entropies are in bits (base-2 logarithms).  An
infinite relative entropy (support mismatch) is a legitimate result and is
returned as ``math.inf`` rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg as la

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# support(rho) lies inside support(sigma) when tr((I - P_sigma) rho) < this
SUPPORT_LEAK_TOL = 1e-10
# singular values below this do not count toward the Schmidt rank
SCHMIDT_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LabeledState:
    """Density matrix plus an ordered list of labelled subsystems.

    ``dims[k]`` is the dimension of the factor named ``labels[k]``; labels
    make the six-register partial traces of the cloning/deleting pipelines
    explicit instead of positional.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        matrix = la.as_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        if len(dims) != len(labels):
            raise ValueError(f"{len(dims)} dims but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        la._check_dims(dims, matrix.shape[0])
        trace = complex(np.trace(matrix))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"state trace is {trace}, expected 1")
        defect = la.hermiticity_defect(matrix)
        if not defect <= la.HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian: defect {defect:.3e}")
        smallest = float(np.linalg.eigvalsh(matrix)[0])
        if smallest < -PSD_TOL:
            raise ValueError(f"state is not PSD: smallest eigenvalue {smallest:.3e}")

    def label_indices(self, labels: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.labels.index(s) for s in labels)
        except ValueError:
            raise ValueError(f"unknown label in {tuple(labels)}; state has {self.labels}")


def trace_out(state: LabeledState, labels: Sequence[str]) -> LabeledState:
    """Discard the named subsystems of a labelled state."""
    discard = state.label_indices(labels)
    keep = [k for k in range(len(state.dims)) if k not in discard]
    reduced = la.partial_trace(state.matrix, state.dims, discard)
    return LabeledState(
        reduced,
        tuple(state.dims[k] for k in keep),
        tuple(state.labels[k] for k in keep),
    )


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure-state amplitude vector with explicit factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)
        la._check_dims(dims, amps.size)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"ket norm is {norm}, expected 1")


def basis_ket(dims: Sequence[int], occupations: Sequence[int]) -> Ket:
    """Computational basis ket |occupations[0], occupations[1], ...>."""
    dims = tuple(int(d) for d in dims)
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    index = 0
    for d, k in zip(dims, occupations, strict=True):
        index = index * d + int(k)
    amps[index] = 1.0
    return Ket(amps, dims)


@dataclass(frozen=True)
class SchmidtPair:
    """Schmidt coefficients (a, b) of the two-qubit family a|00> + b|11>.

    The canonical family has 0 < a <= 1/sqrt(2) <= b, but the boundary
    values a = 0 and a = 1 (product states) are admitted so the separable
    limits can be evaluated exactly.
    """

    a: float
    b: float | None = None  # derived from a when omitted

    def __post_init__(self):
        a = float(self.a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"Schmidt coefficient a = {a} outside [0, 1]")
        b = math.sqrt(max(0.0, 1.0 - a * a)) if self.b is None else float(self.b)
        if b < 0.0:
            raise ValueError(f"Schmidt coefficient b = {b} is negative")
        if not abs(a * a + b * b - 1.0) <= 1e-12:
            raise ValueError(f"a^2 + b^2 = {a * a + b * b}, expected 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt form of a bipartite pure state across a chosen cut.

    ``coefficients`` are the nonzero singular values in descending order;
    their count is the Schmidt rank.  ``left_basis``/``right_basis`` are
    the matching orthonormal kets on each side of the cut.
    """

    coefficients: np.ndarray
    left_basis: tuple[Ket, ...]
    right_basis: tuple[Ket, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def schmidt_ket(pair: SchmidtPair) -> Ket:
    """The two-qubit ket a|00> + b|11> on factors (A, B)."""
    return Ket(np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex), (2, 2))


def dm_from_ket(ket: Ket, labels: Sequence[str] | None = None) -> LabeledState:
    """Rank-1 projector |k><k| as a labelled state (labels default q0, q1, ...)."""
    if float(np.linalg.norm(ket.amplitudes)) < 1e-15:
        raise ValueError("zero-norm ket has no density matrix")
    if labels is None:
        labels = tuple(f"q{k}" for k in range(len(ket.dims)))
    matrix = np.outer(ket.amplitudes, ket.amplitudes.conj())
    return LabeledState(matrix, ket.dims, tuple(labels))


def _cut_matrix(ket: Ket, cut):
    """Amplitudes regrouped into a (left, right) matrix along the cut;
    returns (matrix, left_factors, right_factors)."""
    left, right = (tuple(int(i) for i in side) for side in cut)
    if sorted(left + right) != list(range(len(ket.dims))):
        raise ValueError(f"cut {cut} is not a bipartition of {len(ket.dims)} factors")
    tensor = ket.amplitudes.reshape(ket.dims)
    d_left = int(np.prod([ket.dims[i] for i in left])) if left else 1
    d_right = ket.amplitudes.size // d_left
    return tensor.transpose(left + right).reshape(d_left, d_right), left, right


def schmidt_decompose(ket: Ket, cut=((0,), (1,))) -> SchmidtDecomposition:
    """Schmidt decomposition across ``cut = (left_factors, right_factors)``.

    The singular values are obtained from the Hermitian eigendecomposition
    of the left marginal; coefficients below 1e-10 are dropped, so the
    number returned is the Schmidt rank.
    """
    mat, left, right = _cut_matrix(ket, cut)
    rho_left = mat @ mat.conj().T
    values, vectors = la.hermitian_eig(rho_left)
    order = np.argsort(values)[::-1]
    left_dims = tuple(ket.dims[i] for i in left)
    right_dims = tuple(ket.dims[i] for i in right)
    coeffs, lefts, rights = [], [], []
    for idx in order:
        s = math.sqrt(max(0.0, float(values[idx])))
        if s <= SCHMIDT_RANK_TOL:
            continue
        u = vectors[:, idx]
        v = (mat.T @ u.conj()) / s
        coeffs.append(s)
        lefts.append(Ket(u, left_dims))
        rights.append(Ket(v, right_dims))
    return SchmidtDecomposition(np.array(coeffs), tuple(lefts), tuple(rights))


def _entropy_from_eigenvalues(values: np.ndarray) -> float:
    on = values > la.SUPPORT_TOL
    if not np.any(on):
        return 0.0
    return float(-(values[on] * np.log2(values[on])).sum())


def von_neumann_entropy(state: LabeledState) -> float:
    """S(rho) = -tr(rho log2 rho), in bits."""
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(state.matrix))


def relative_entropy(rho: LabeledState, sigma: LabeledState) -> float:
    """S(rho|sigma) = tr(rho log2 rho - rho log2 sigma), in bits.

    Returns ``math.inf`` when the support of rho leaks outside the support
    of sigma (tr((I - P_sigma) rho) >= 1e-10).
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    log_sigma, projector = la.matrix_log2_on_support(sigma.matrix)
    leak = float(np.trace(rho.matrix - projector @ rho.matrix).real)
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    log_rho, _ = la.matrix_log2_on_support(rho.matrix)
    return float(np.trace(rho.matrix @ (log_rho - log_sigma)).real)


def entropy_of_entanglement(ket: Ket, cut=((0,), (1,))) -> float:
    """Entanglement of a bipartite pure state: the entropy of either
    marginal (the two agree within 1e-10 by construction)."""
    mat, _, _ = _cut_matrix(ket, cut)
    s_left = _entropy_from_eigenvalues(np.linalg.eigvalsh(mat @ mat.conj().T))
    s_right = _entropy_from_eigenvalues(np.linalg.eigvalsh(mat.conj().T @ mat))
    if abs(s_left - s_right) > 1e-10:
        raise RuntimeError(f"marginal entropies disagree: {s_left} vs {s_right}")
    return s_left


def rel_ent_entanglement_pure(ket: Ket, cut=((0,), (1,))) -> float:
    """Relative entropy of entanglement of a pure bipartite state, which
    coincides with its entropy of entanglement.

    Mixed states are rejected: there is no closed form for them here.
    """
    if not isinstance(ket, Ket):
        raise TypeError("pure kets only; the mixed-state measure has no closed form")
    return entropy_of_entanglement(ket, cut)
