"""The universal symmetric qubit cloner, the two-party local cloning
pipeline built from it, and the resulting entanglement-of-cloning bounds.

The cloner is an isometry from one qubit into (clone1, clone2, environment).
Its image lies in Sym^2(C^2) (x) C^2_env, so it is defined once, as two
columns in the basis of the fixed isometry S onto that subspace; the 8x2
isometry and the cloning search's seed are both read off those columns.
Run locally by both parties on a shared pure state a|00> + b|11> it yields
a closed-form two-qubit copy whose relative-entropy distance to the input
is the cloning-side upper bound.  The other upper bound is the relative
entropy of entanglement of the input itself; the reported bound is their
minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .qstate import (
    LabeledState,
    SchmidtPair,
    _pair_entropy,
    relative_entropy,
    schmidt_ket,
    trace_out,
)

CLONE_LABELS = ("A", "A'", "Ae", "B", "B'", "Be")


@dataclass(frozen=True, eq=False)
class CloneIsometry:
    """8x2 isometry taking one qubit to clone1 (x) clone2 (x) environment:
    the local machine each party runs in the local cloning process.  The
    stored matrix is read-only and shares no memory with the argument."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = la._frozen(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (8, 2):
            raise ValueError(f"clone isometry must be 8x2, got {matrix.shape}")
        defect = la.isometry_defect(matrix)
        if not defect <= la.ISOMETRY_TOL:
            raise ValueError(f"clone isometry columns are not orthonormal: defect {defect:.3e}")


# S, the 8x6 isometry onto Sym^2(C^2) (x) C^2_env (basis index clone1*4 +
# clone2*2 + env), with columns |00>|0>, |11>|0>, |00>|1>, |11>|1>, |Psi+>|0>
# and |Psi+>|1>: it takes the first two columns of the identity to the basis
# copier |x> -> |xx>|0>
_SYMMETRIC = np.zeros((8, 6))
_SYMMETRIC[[0, 6, 1, 7], [0, 1, 2, 3]] = 1.0
_SYMMETRIC[[2, 4, 3, 5], [4, 4, 5, 5]] = math.sqrt(0.5)
# the universal cloner in S's basis: |0> -> sqrt(2/3)|00>|0> + sqrt(1/3)|Psi+>|1>
# and its bit flip |1> -> sqrt(2/3)|11>|1> + sqrt(1/3)|Psi+>|0>
_CLONER = np.zeros((6, 2), dtype=complex)
_CLONER[[0, 3], [0, 1]] = math.sqrt(2.0 / 3.0)
_CLONER[[5, 4], [0, 1]] = math.sqrt(1.0 / 3.0)
_SYMMETRIC, _CLONER = la._frozen(_SYMMETRIC), la._frozen(_CLONER)
# the cloner, validated once, and its real columns, which the pipeline runs
_UNIVERSAL = CloneIsometry(_SYMMETRIC @ _CLONER)
_UNIVERSAL_REAL = la._frozen(_UNIVERSAL.matrix.real)


def universal_clone_isometry() -> CloneIsometry:
    """The input-independent symmetric 1->2 qubit cloner, S times its two
    columns in S's basis: one read-only instance, validated at import.

    |0> maps to sqrt(2/3)|00>|e> + sqrt(1/6)(|01> + |10>)|e_perp> and
    |1> to the bit-flipped image, with |e> = |0>, |e_perp> = |1> as the
    environment basis.  Each clone of a basis input carries the marginal
    diag(5/6, 1/6).  Both parties run it in :func:`local_clone_pipeline`,
    and its copy gives the cloner bound S_clone.
    """
    return _UNIVERSAL


def local_clone_pipeline(pair: SchmidtPair):
    """Run the cloner locally on both halves of a|00> + b|11>.

    Each party feeds its qubit plus a |0> blank and a |0> environment to the
    cloner, and the environments plus the opposite clone pair are traced
    away.  Returns ``(eta, copy1, copy2)`` where ``eta`` is the six-qubit
    output over (A, A', Ae, B, B', Be), and ``copy1`` and ``copy2`` are one
    state, the (A, B) marginal, traced and validated once, labelled (A, B)
    and equal to :func:`rho_clone_closed_form` to machine precision.

    The cloner is symmetric, its image lying in Sym^2(C^2) (x) C^2_env, so
    exchanging A with A' and B with B' leaves ``eta`` unchanged, bit for bit,
    and the (A', B') marginal is the same state.  For the same reason no
    register swap is applied.
    """
    v = _UNIVERSAL_REAL
    # V diag(a, b) V^T: rows Alice's (A, A', Ae), columns Bob's (B, B', Be)
    out = ((v * (pair.a, pair.b)) @ v.T).ravel()
    eta = LabeledState(np.outer(out, out), (2,) * 6, CLONE_LABELS)
    copy = trace_out(eta, ("A'", "Ae", "B'", "Be"))
    return eta, copy, copy


def rho_clone_closed_form(pair: SchmidtPair) -> LabeledState:
    """Closed form of either copy produced by the local cloning pipeline.

    Diagonal ((24a^2+1)/36, 5/36, 5/36, (24b^2+1)/36) with coherence 4ab/9
    between |00> and |11>; the trace is identically 1.
    """
    a, b = pair.a, pair.b
    coherence = 4.0 * a * b / 9.0
    m = np.array(
        [
            [(24.0 * a * a + 1.0) / 36.0, 0.0, 0.0, coherence],
            [0.0, 5.0 / 36.0, 0.0, 0.0],
            [0.0, 0.0, 5.0 / 36.0, 0.0],
            [coherence, 0.0, 0.0, (24.0 * b * b + 1.0) / 36.0],
        ]
    )
    return LabeledState(m, (2, 2), ("A", "B"))


def clone_bound(pair: SchmidtPair) -> float:
    """Cloning-side upper bound: S(|psi><psi| | rho_clone), in bits.

    Always finite; the copy has full rank on the block containing psi.
    The pure input is scored as its ket, -<psi|log2 rho_clone|psi>, so the
    copy is the one state checked.
    """
    return relative_entropy(schmidt_ket(pair), rho_clone_closed_form(pair))


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
    entangled ones; the branches cross near a = 0.428.  For the pure input
    E_R equals the entropy of entanglement, read from the Schmidt coefficients.
    """
    e_r = _pair_entropy(pair)
    s_clone = clone_bound(pair)
    return CloneBoundRecord(pair.a, e_r, s_clone, min(e_r, s_clone))


def crossover() -> float:
    """Root of E_R(a) - S_clone(a) by bisection, to within 1e-7 in a.

    The gap rises through its one sign change on the bracket [0.3, 0.55]:
    E_R is smaller at the left end and larger at the right end.  Each end is
    evaluated once, and ``ValueError`` is raised if the gap does not change
    sign there.  Halving until the bracket is at most 1e-7 wide takes 22
    steps, so the gap is evaluated 24 times.
    """

    def gap(a: float) -> float:
        record = clone_bound_combined(SchmidtPair(a))
        return record.e_r - record.s_clone

    lo, hi = 0.3, 0.55
    if not gap(lo) < 0 < gap(hi):
        raise ValueError(f"E_R - S_clone does not change sign from - to + on [{lo}, {hi}]")
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
