"""The universal symmetric qubit cloner, the two-party local cloning
pipeline built from it, and the resulting entanglement-of-cloning bounds.

The cloner is an isometry from one qubit into (clone1, clone2, environment);
run locally by both parties on a shared pure state a|00> + b|11> it yields a
closed-form two-qubit copy whose relative-entropy distance to the input is
the cloning-side upper bound.  The other upper bound is the relative entropy
of entanglement of the input itself; the reported bound is their minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import linalg as la
from .qstate import (
    LabeledState,
    SchmidtPair,
    dm_from_ket,
    rel_ent_entanglement_pure,
    relative_entropy,
    schmidt_ket,
    trace_out,
)

CLONE_LABELS = ("A", "A'", "Ae", "B", "B'", "Be")


@dataclass(frozen=True, eq=False)
class CloneIsometry:
    """8x2 isometry taking one qubit to clone1 (x) clone2 (x) environment."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (8, 2):
            raise ValueError(f"clone isometry must be 8x2, got {matrix.shape}")
        gram = matrix.conj().T @ matrix
        if not np.max(np.abs(gram - np.eye(2))) <= 1e-12:
            raise ValueError("clone isometry columns are not orthonormal")


def universal_clone_isometry() -> CloneIsometry:
    """The input-independent symmetric 1->2 qubit cloner.

    |0> maps to sqrt(2/3)|00>|e> + sqrt(1/6)(|01> + |10>)|e_perp> and
    |1> to the bit-flipped image, with |e> = |0>, |e_perp> = |1> as the
    environment basis.  Each clone of a basis input carries the marginal
    diag(5/6, 1/6).
    """
    root23 = math.sqrt(2.0 / 3.0)
    root16 = math.sqrt(1.0 / 6.0)
    v = np.zeros((8, 2), dtype=complex)
    # basis index = clone1*4 + clone2*2 + environment
    v[0b000, 0] = root23
    v[0b011, 0] = root16
    v[0b101, 0] = root16
    v[0b111, 1] = root23
    v[0b010, 1] = root16
    v[0b100, 1] = root16
    return CloneIsometry(v)


def local_clone_pipeline(pair: SchmidtPair):
    """Run the cloner locally on both halves of a|00> + b|11>.

    Each party feeds its qubit plus a |0> blank and a |0> environment to the
    cloner, Alice swaps her two clone registers, and the environments plus
    the opposite clone pair are traced away.  Returns ``(eta, copy1, copy2)``
    where ``eta`` is the six-qubit post-swap state over (A, A', Ae, B, B',
    Be), ``copy1`` the (A, B) marginal and ``copy2`` the (A', B') marginal.
    Both copies equal :func:`rho_clone_closed_form` to machine precision.
    """
    v = universal_clone_isometry().matrix
    psi = schmidt_ket(pair)
    out = la.kron(v, v) @ psi.amplitudes  # factors (A, A', Ae, B, B', Be)
    dims = (2,) * 6
    out = la.permute_ket(out, dims, (1, 0, 2, 3, 4, 5))  # Alice swaps A <-> A'
    eta = LabeledState(np.outer(out, out.conj()), dims, CLONE_LABELS)
    copy1 = trace_out(eta, ("A'", "Ae", "B'", "Be"))
    copy2 = trace_out(eta, ("A", "Ae", "B", "Be"))
    return eta, copy1, copy2


def rho_clone_closed_form(pair: SchmidtPair) -> LabeledState:
    """Closed form of either copy produced by the local cloning pipeline.

    Diagonal ((24a^2+1)/36, 5/36, 5/36, (24b^2+1)/36) with coherence 4ab/9
    between |00> and |11>; the trace is identically 1.
    """
    a, b = pair.a, pair.b
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (24.0 * a * a + 1.0) / 36.0
    m[3, 3] = (24.0 * b * b + 1.0) / 36.0
    m[1, 1] = m[2, 2] = 5.0 / 36.0
    m[0, 3] = m[3, 0] = 4.0 * a * b / 9.0
    return LabeledState(m, (2, 2), ("A", "B"))


def clone_bound(pair: SchmidtPair) -> float:
    """Cloning-side upper bound: S(|psi><psi| | rho_clone), in bits.

    Always finite; the copy has full rank on the block containing psi.
    """
    psi = dm_from_ket(schmidt_ket(pair))
    return relative_entropy(psi, rho_clone_closed_form(pair))


@dataclass(frozen=True)
class CloneBoundRecord:
    """Both upper bounds at one Schmidt coefficient and their minimum."""

    a: float
    e_r: float
    s_clone: float
    combined: float


def clone_bound_combined(pair: SchmidtPair) -> CloneBoundRecord:
    """min(E_R, S_clone): the tighter of the two upper bounds.

    E_R wins for weakly entangled states, the cloner bound for strongly
    entangled ones; the branches cross near a = 0.428.
    """
    e_r = rel_ent_entanglement_pure(schmidt_ket(pair))
    s_clone = clone_bound(pair)
    return CloneBoundRecord(pair.a, e_r, s_clone, min(e_r, s_clone))


def crossover(bracket=(0.3, 0.55)) -> float:
    """Root of E_R(a) - S_clone(a) by Brent's method, to within 1e-7 in a.

    The default bracket has E_R smaller at the left end and larger at the
    right end; raises ``ValueError`` if the supplied bracket does not change
    sign.
    """

    def gap(a: float) -> float:
        record = clone_bound_combined(SchmidtPair(a))
        return record.e_r - record.s_clone

    lo, hi = float(bracket[0]), float(bracket[1])
    ends = {lo: gap(lo), hi: gap(hi)}
    if ends[lo] * ends[hi] > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: gap = {ends[lo]:.4g}, {ends[hi]:.4g}")
    # brentq opens by evaluating both ends, which the sign check already did
    return brentq(lambda a: ends[a] if a in ends else gap(a), lo, hi, xtol=1e-7)
