"""The swap-based local deleting machine and its closed-form bound, the
global deleting construction, and the Schmidt-rank obstruction to local
deleting.

Deleting works on two copies of a|00> + b|11> held as (A, B) and (A', B');
the only closed local operations are local unitaries U_AA' (x) U_BB', run
through the same circuit kernel as the local-unitary search.  The quality of
one deleting machine is the mean of two relative-entropy terms: kept copy
against the input, and the best admissible separable target against the
deleted copy.  For pure inputs the admissible targets are the pure product
states, and :func:`min_over_product_pure` finds the best one for one deleted
copy at a time.  One scorer computes both terms, with validated output
states, for the swap machine (swap A with A' at Alice's side) and for the
public deleting objective of any machine.  The deleting search never calls
it: it scores the deleted copy against the fixed product target |11> and
reports that score.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg as la
from .qstate import (
    SUPPORT_LEAK_TOL,
    Ket,
    LabeledState,
    SchmidtPair,
    _pure_rel_entropy,
    basis_ket,
    entropy_of_entanglement,
    schmidt_decompose,
    schmidt_ket,
)

# the convention b >= a, stated on a alone: a <= 1/sqrt(2), with slack for
# decimal roundings of 1/sqrt(2) such as 0.7071067812
A_MAX = 1.0 / math.sqrt(2.0) + 1e-9
# surrogate weight steering the product search back onto the support
_OFF_SUPPORT_WEIGHT = 1e6
_PRODUCT_RESTARTS = 20
_PRODUCT_ITERATIONS = 30


@dataclass(frozen=True, eq=False)
class DeleteOutcome:
    """Outputs and quality terms of one run of one deleting machine.

    ``objective`` is the arithmetic mean of ``term_keep`` (kept copy vs the
    input) and ``term_separable`` (best pure product target vs the deleted
    copy), both in bits.
    """

    out_ab: LabeledState
    out_apbp: LabeledState
    term_keep: float
    term_separable: float
    objective: float


def two_copy_ket(pair: SchmidtPair) -> Ket:
    """psi (x) psi on registers (A, B, A', B')."""
    psi = schmidt_ket(pair)
    return Ket(np.kron(psi.amplitudes, psi.amplitudes), (2, 2, 2, 2))


def swap_gate() -> np.ndarray:
    """The two-qubit swap |ij> -> |ji> as a 4x4 matrix."""
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[2 * j + i, 2 * i + j] = 1.0
    return s


def _psi_vec(pair: SchmidtPair) -> np.ndarray:
    return np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)


@functools.lru_cache(maxsize=8)
def _delete_constants(pair: SchmidtPair) -> tuple[np.ndarray, np.ndarray]:
    """Read-only targets psi, |11> and weights diag(psi (x) psi) of the deleting score."""
    targets = np.stack([_psi_vec(pair), [0.0, 0.0, 0.0, 1.0]])
    weights = np.array([pair.a * pair.a, pair.a * pair.b, pair.a * pair.b, pair.b * pair.b])
    targets.flags.writeable = weights.flags.writeable = False
    return targets, weights


def _delete_terms(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """Marginals of (U_AA' (x) U_BB') applied to psi (x) psi, for each pair
    of unitaries in the (..., 4, 4) stacks ``u_alice`` and ``u_bob``.

    Arranged as a matrix M over (AA', BB'), psi (x) psi is diag(a^2, ab,
    ab, b^2), and the local unitaries map it to U_A M U_B^T.  Returns psi,
    the stacked (A, B) and (A', B') marginals, and the stacked output K
    with rows (A, B) and columns (A', B'): out_AB = K K^dag and out_A'B' =
    K^T K^*.
    """
    targets, weights = _delete_constants(pair)
    out = (u_alice * weights) @ u_bob.swapaxes(-1, -2)
    t = out.reshape(out.shape[:-2] + (2, 2, 2, 2))  # (A, A', B, B')
    kept = t.swapaxes(-3, -2).reshape(out.shape)  # rows (A, B), columns (A', B')
    out_ab = kept @ kept.conj().swapaxes(-1, -2)
    out_apbp = kept.swapaxes(-1, -2) @ kept.conj()
    return targets[0], out_ab, out_apbp, kept


def _delete_outcome(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> DeleteOutcome:
    """Run the deleting machine U_AA' (x) U_BB', given as (1, 4, 4) stacks
    ``u_alice`` and ``u_bob``, and score both of its outputs."""
    psi, ab, apbp, _ = _delete_terms(pair, u_alice, u_bob)
    out_ab = LabeledState(ab[0], (2, 2), ("A", "B"))
    out_apbp = LabeledState(apbp[0], (2, 2), ("A'", "B'"))
    term_keep = float(_pure_rel_entropy(psi, ab)[0])
    term_separable, _ = min_over_product_pure(out_apbp)
    return DeleteOutcome(
        out_ab=out_ab,
        out_apbp=out_apbp,
        term_keep=term_keep,
        term_separable=term_separable,
        objective=0.5 * (term_keep + term_separable),
    )


def local_delete_swap(pair: SchmidtPair) -> DeleteOutcome:
    """Apply the swap deleter to two copies of a|00> + b|11>.

    The machine (swap on AA', identity on BB') leaves diag(a^4, a^2 b^2,
    a^2 b^2, b^4) at both (A, B) and (A', B'); the inner minimisation over
    pure product targets is attained at |11> (for b >= a), giving the
    closed-form objective E(psi) - 2 log2(b).
    """
    return _delete_outcome(pair, swap_gate()[None], np.eye(4)[None])


def delete_bound(pair: SchmidtPair) -> float:
    """Closed-form deleting bound E(psi) - 2 log2(b), in bits.

    Requires the convention b >= a, that is a <= ``A_MAX``; equals the swap
    deleter's objective.
    """
    if not pair.a <= A_MAX:
        raise ValueError(f"convention b >= a violated: a = {pair.a}, b = {pair.b}")
    return entropy_of_entanglement(schmidt_ket(pair)) - 2.0 * math.log2(pair.b)


# Row 4 mu + nu maps a row-major flattened 4x4 G to Tr(G sigma_mu (x) sigma_nu) / 4
# (Pauli order I, X, Y, Z), so <xy|G|xy> = (1, n_x) . C . (1, n_y) for the Bloch
# vectors n_x and n_y of |x> and |y>.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_COEFFS = np.einsum("mab,ncd->mnbdac", _PAULIS, _PAULIS).reshape(16, 16) / 4


def _bloch_of_kets(kets: np.ndarray) -> np.ndarray:
    """Bloch vectors of the unit qubit kets in the rows of ``kets``."""
    cross = kets[:, 0].conj() * kets[:, 1]
    pop = np.abs(kets) ** 2
    return np.stack([2 * cross.real, 2 * cross.imag, pop[:, 0] - pop[:, 1]], axis=1)


def _ket_of_bloch(n: np.ndarray) -> np.ndarray:
    """A unit ket with Bloch vector ``n``, built from its larger amplitude:
    the smaller one, sqrt((1 -+ n_z)/2), cancels near the poles."""
    if n[2] >= 0:
        big = math.sqrt(0.5 * (1.0 + n[2]))
        ket = np.array([big, complex(n[0], n[1]) / (2 * big)])
    else:
        big = math.sqrt(0.5 * (1.0 - n[2]))
        ket = np.array([complex(n[0], -n[1]) / (2 * big), big])
    return ket / np.linalg.norm(ket)


def _product_starts() -> np.ndarray:
    """Rows (1, n_y) for the y half of each start: the computational corners
    |0>, |1> (the x half never matters, as every sweep opens with the x best
    response), then ``_PRODUCT_RESTARTS`` seeded random kets."""
    raw = np.random.default_rng(0).standard_normal((2, _PRODUCT_RESTARTS, 2, 2))[1]
    kets = np.concatenate([np.eye(2, dtype=complex), raw[..., 0] + 1j * raw[..., 1]])
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    starts = np.concatenate([np.ones((len(kets), 1)), _bloch_of_kets(kets)], axis=1)
    starts.flags.writeable = False
    return starts


_PRODUCT_STARTS = _product_starts()


def _unit_rows(v: np.ndarray, out: np.ndarray) -> None:
    """Write each row of ``v`` scaled to unit length into ``out``: the Bloch
    vector of the top eigenvector of the 2x2 matrix whose Pauli part is that
    row.  A (near-)zero row leaves the eigenvector undetermined and gives |0>."""
    norm = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    if np.minimum.reduce(norm) < 1e-14:
        small = norm < 1e-14
        v[small] = (0.0, 0.0, 1.0)
        norm[small] = 1.0
    np.divide(v, norm[:, None], out=out)


def _min_product_pure_matrix(matrix: np.ndarray):
    """Array-level core of :func:`min_over_product_pure` for a 4x4 matrix.

    Maximises <xy|G|xy> with G = log2(rho)|_support - W (I - P_support) by
    alternating exact best responses on the two Bloch spheres, from the
    computational corners plus seeded random starts, until no start moves by
    1e-13 from the third sweep on, or for ``_PRODUCT_ITERATIONS`` sweeps.
    Every swap output on a 50-point grid of a stops after 3, but the cap
    ends most random rank-3 and rank-4 states (30 and 15-20 of 30).  Returns
    ``(value, n_x, n_y)``: the minimum and the Bloch vectors of the best
    pair, with value = +inf when no product state lies in the support.
    """
    log_rho, projector = la.matrix_log2_on_support(matrix)
    complement = np.eye(4) - projector
    # one Pauli map per operator
    coeffs = (np.stack([log_rho.ravel(), complement.ravel()]) @ _PAULI_COEFFS.T).real
    c_log, c_leak = coeffs.reshape(2, 4, 4)
    c = c_log  # the surrogate term only off full rank
    if not np.max(np.abs(complement)) < 1e-12:
        c = c_log - _OFF_SUPPORT_WEIGHT * c_leak
    # rows (1, n_y) @ to_x give the x best-response directions C[1:, :] . (1, n_y)
    to_x = np.ascontiguousarray(c[1:, :].T)
    to_y = np.ascontiguousarray(c[:, 1:])

    my = _PRODUCT_STARTS.copy()
    my_next = np.ones_like(my)
    mx = np.ones_like(my)
    for iteration in range(_PRODUCT_ITERATIONS):
        _unit_rows(np.dot(my, to_x), mx[:, 1:])
        _unit_rows(np.dot(mx, to_y), my_next[:, 1:])
        my, my_next = my_next, my
        if iteration >= 2 and np.maximum.reduce(np.abs(my - my_next), axis=None) < 1e-13:
            break

    values = -np.einsum("ri,ij,rj->r", mx, c_log, my)
    leaks = np.einsum("ri,ij,rj->r", mx, c_leak, my)
    valid = leaks <= SUPPORT_LEAK_TOL
    values = np.where(valid, values, math.inf)
    # with no start inside the support, report the least leaky one
    best = values.argmin() if valid.any() else leaks.argmin()
    # relative entropies are nonnegative: clamp round-off below zero (and
    # -0.0) to 0.0, after the argmin, so that the chosen pair does not move
    return np.maximum(values[best], 0.0), mx[best, 1:], my[best, 1:]


def min_over_product_pure(state: LabeledState):
    """Minimise S(|xy><xy| | rho) over pure product kets |x>(x)|y>.

    For a pure target the relative entropy reduces to -<xy| log2 rho |xy>,
    infinite when |xy> leaves the support of rho.  Returns ``(value,
    argmin_ket)``; the value is ``math.inf`` when every product direction
    meets a zero eigenvalue.
    """
    if state.dims != (2, 2):
        raise ValueError(f"two-qubit state required, got dims {state.dims}")
    value, nx, ny = _min_product_pure_matrix(state.matrix)
    return float(value), Ket(np.kron(_ket_of_bloch(nx), _ket_of_bloch(ny)), (2, 2))


def global_delete(rho_ab: LabeledState, rho_apbp: LabeledState) -> LabeledState:
    """Delete the second of two equal copies with a global (closed) map.

    The (A, B) factor is untouched; each eigenvector of the deleted copy is
    sent to a computational product basis vector, eigenvalues assigned in
    descending order to |00>, |01>, |10>, |11> (row-major).  The output
    (A', B') marginal is therefore product-basis diagonal -- separable --
    with the spectrum of the input copy.
    """
    if rho_ab.dims != rho_apbp.dims:
        raise ValueError(f"dimension mismatch: {rho_ab.dims} vs {rho_apbp.dims}")
    if len(rho_apbp.dims) != 2:
        raise ValueError("the deleted copy must be bipartite")
    gap = float(np.max(np.abs(rho_ab.matrix - rho_apbp.matrix)))
    if gap > 1e-10:
        raise ValueError(f"equal copies required: max elementwise gap {gap:.3e}")
    values = np.linalg.eigvalsh(rho_apbp.matrix)
    spectrum = np.clip(values[::-1], 0.0, None)
    deleted = np.diag(spectrum.astype(complex))
    return LabeledState(
        np.kron(rho_ab.matrix, deleted),
        rho_ab.dims + rho_apbp.dims,
        rho_ab.labels + rho_apbp.labels,
    )


class SchmidtRankCheck(NamedTuple):
    rank_input: int
    rank_target: int
    deletable: bool


def schmidt_rank_nogo_check(pair: SchmidtPair) -> SchmidtRankCheck:
    """Compare Schmidt ranks across AA':BB' before and after ideal deleting.

    Two copies of an entangled a|00> + b|11> have rank 4 across the cut,
    while the deleted target psi (x) |0'> (x) |0''> has rank 2; local
    unitaries preserve the rank, so deleting is impossible whenever the
    ranks differ.  In the product limit both ranks are 1.
    """
    cut = ((0, 2), (1, 3))
    rank_input = schmidt_decompose(two_copy_ket(pair), cut).rank
    psi = schmidt_ket(pair)
    blank = basis_ket((2, 2), (0, 0))
    target = Ket(np.kron(psi.amplitudes, blank.amplitudes), (2, 2, 2, 2))
    rank_target = schmidt_decompose(target, cut).rank
    return SchmidtRankCheck(rank_input, rank_target, rank_input == rank_target)
