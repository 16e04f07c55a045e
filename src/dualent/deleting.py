"""The swap-based local deleting machine and its closed-form bound, the
global deleting construction, and the Schmidt-rank obstruction to local
deleting.

Deleting works on two copies of a|00> + b|11> held as (A, B) and (A', B');
the only closed local operations are local unitaries U_AA' (x) U_BB', run
through :func:`~dualent.qstate._local_output`, the circuit the cloning
search shares.  The quality of one deleting machine is the mean of two
relative-entropy terms: kept copy against the input, and the best admissible
separable target against the deleted copy.  For pure inputs the admissible
targets are the pure product states, and :func:`min_over_product_pure` finds
the best one for one deleted copy at a time, over the product kets inside
its support, in the form the support's rank allows.  One scorer computes
both terms, with validated output states, for the swap machine (swap A with
A' at Alice's side) and for the public deleting objective of any machine.
The deleting search never calls it: it scores the deleted copy against the
fixed product target |11> and reports that score.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg as la
from .qstate import (
    SCHMIDT_RANK_TOL,
    Ket,
    LabeledState,
    SchmidtPair,
    _local_output,
    _pair_entropy,
    _pure_rel_entropy_on,
    schmidt_decompose,
    schmidt_ket,
)

# two copies are equal when no entry of the two matrices differs by more than this
_EQUAL_COPIES_TOL = 1e-10


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


# amplitude order of a two-qubit ket with its parties exchanged
_EXCHANGE = [0, 2, 1, 3]


# the swap deleter's machines as real stacks of one: the swap |ij> -> |ji> on
# AA', the identity with rows |01> and |10> exchanged, and the identity on BB'
_SWAP_MACHINE = la._frozen(np.eye(4)[None, _EXCHANGE])
_IDENTITY_MACHINE = la._frozen(np.eye(4)[None])


@functools.lru_cache(maxsize=8)
def _delete_constants(pair: SchmidtPair) -> tuple[np.ndarray, np.ndarray]:
    """Read-only targets psi, |11> and weights diag(psi (x) psi) of the deleting
    score; psi, validated once per pair, is the input both search kernels read.
    The targets are complex, as the kernels' machines are."""
    targets = np.array([schmidt_ket(pair).amplitudes, [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    weights = [pair.a * pair.a, pair.a * pair.b, pair.a * pair.b, pair.b * pair.b]
    return la._frozen(targets), la._frozen(weights)


def _delete_terms(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """Marginals of (U_AA' (x) U_BB') applied to psi (x) psi, for each pair of
    unitaries in the (..., 4, 4) stacks ``u_alice`` and ``u_bob``, from the output
    K of :func:`~dualent.qstate._local_output` on the weights diag(psi (x) psi) =
    (a^2, ab, ab, b^2) over (AA', BB'): ``(out_AB, out_A'B', K)``, with K's rows
    (A, B) and columns (A', B'), out_AB = K K^dag and out_A'B' = K^T K^*."""
    kept = _local_output(_delete_constants(pair)[1], u_alice, u_bob)
    return kept @ kept.conj().swapaxes(-1, -2), kept.swapaxes(-1, -2) @ kept.conj(), kept


def _delete_outcome(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> DeleteOutcome:
    """Run the deleting machine U_AA' (x) U_BB', given as (1, 4, 4) stacks
    ``u_alice`` and ``u_bob``, and score both of its outputs."""
    ab, apbp, _ = _delete_terms(pair, u_alice, u_bob)
    out_ab = LabeledState(ab[0], (2, 2), ("A", "B"))
    out_apbp = LabeledState(apbp[0], (2, 2), ("A'", "B'"))
    psi = _delete_constants(pair)[0][0]
    term_keep = float(_pure_rel_entropy_on(psi, *np.linalg.eigh(ab))[0][0])
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
    pure product targets is attained at the corner of the larger coefficient,
    |11> for b >= a and |00> for a > b, giving the closed-form objective
    E(psi) - 2 log2 max(a, b).
    """
    return _delete_outcome(pair, _SWAP_MACHINE, _IDENTITY_MACHINE)


def delete_bound(pair: SchmidtPair) -> float:
    """Closed-form deleting bound E(psi) - 2 log2 max(a, b), in bits, for any a
    in [0, 1]; equals the swap deleter's objective.

    X (x) X maps a|00> + b|11> to b|00> + a|11>, and the bound, like E, is
    invariant under local unitaries, so it is symmetric in a <-> b.
    """
    return _pair_entropy(pair) - 2.0 * math.log2(max(pair.a, pair.b))


# the sphere search's starts: qubit kets on a 13 x 24 polar x azimuthal grid
_HALF_POLAR, _PHASES = np.linspace(0.0, math.pi / 2, 13), np.exp(1j * np.pi / 12 * np.arange(24))
_GRID = np.stack([np.cos(_HALF_POLAR).repeat(24), np.outer(np.sin(_HALF_POLAR), _PHASES).flat], 1)
# its 3 x 3 stencil of chart offsets u = p + i q, in units of _STEP, and the
# least-squares fit of f0 + g.(p, q) + (p, q).H.(p, q) / 2 to values on it
_STEP = 1e-5
_STENCIL = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
_P, _Q = _STENCIL.real, _STENCIL.imag
_FIT = np.linalg.pinv(np.stack([np.ones(9), _P, _Q, _P * _P / 2, _Q * _Q / 2, _P * _Q], 1))


def _top_eigvec(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unit top eigenvectors of the 2x2 matrices h = A diag(d) A^dag, for a
    (..., 2, n) stack A: (lambda - h_11, conj h_01) or (h_01, lambda - h_00),
    whichever has no cancellation, and |0> where h is scalar."""
    diagonal = (a.real**2 + a.imag**2) @ d
    half, b = 0.5 * (diagonal[..., 0] - diagonal[..., 1]), (a[..., 0, :] * a[..., 1, :].conj()) @ d
    big = np.abs(half) + np.hypot(half, np.abs(b)) + (half == 0) * (b == 0)
    v = np.stack([np.where(half < 0, b, big), np.where(half < 0, big, b.conj())], -1)
    return v / np.sqrt(big * big + np.abs(b) ** 2)[..., None]


def _sphere_search(values: np.ndarray, vectors: np.ndarray, rank: int) -> np.ndarray:
    """The product kets x (x) y(x) that a search over x ends on, for rank 3
    or 4 and both orders of the parties: from the two best grid kets x0 of
    each order, trust-region Newton steps in the chart (x0 + u x0_perp) /
    sqrt(1 + |u|^2), with g and H fitted to the stencil's scores."""
    # y(x) is the top eigenvector of <x|K|x>, K = sum_m d_m |e_m><e_m|: log2 rho at
    # rank 4, and -|w><w| for the null vector w at rank 3, which puts x (x) y in the support
    d = np.log2(values) if rank == 4 else [-1.0, 0.0, 0.0, 0.0]
    v = np.stack([vectors, vectors[_EXCHANGE]]).reshape(2, 1, 1, 2, 8)  # as given, exchanged

    def score(x):
        a = (x.conj()[..., None, :] @ v).reshape(x.shape[:-1] + (2, 4))  # (<x| (x) I) e_m
        kets = (x[..., :, None] * _top_eigvec(a, d)[..., None, :]).reshape(x.shape[:-1] + (4,))
        kets[1] = kets[1][..., _EXCHANGE]
        return _pure_rel_entropy_on(kets, values, vectors)[0], kets

    x0 = _GRID[np.argsort(score(np.broadcast_to(_GRID, (2, 1) + _GRID.shape))[0][:, 0])[:, :2]]
    perp = np.stack([-x0[..., 1].conj(), x0[..., 0].conj()], -1)[..., None, :]

    def chart(u):
        return (x0[..., None, :] + u[..., None] * perp) / np.sqrt(1 + np.abs(u[..., None]) ** 2)

    u, radius = np.zeros(x0.shape[:-1], complex), np.full(x0.shape[:-1], 0.25)
    f = score(chart(_STEP * _STENCIL))[0]
    for _ in range(50):  # a backstop: 1 200 random states took at most 16 steps
        g1, g2, a, c, b = np.moveaxis(f @ _FIT[1:].T, -1, 0)  # H = [[a, b], [b, c]]
        with np.errstate(all="ignore"):
            # the Newton step -H^-1 g where H is positive definite, else a descent step
            newton = -_STEP * (c * g1 - b * g2 + 1j * (a * g2 - b * g1)) / (a * c - b * b)
            descent = -(g1 + 1j * g2) * radius / np.hypot(g1, g2)
            step = np.where((a * c > b * b) & (a > 0), newton, descent)
            step = step * np.minimum(1.0, radius / np.abs(step))
            step = np.where(np.isfinite(step), step, 0.0)
        f_trial = score(chart((u + step)[..., None] + _STEP * _STENCIL))[0]
        better = f_trial[..., 0] < f[..., 0]
        u, f = np.where(better, u + step, u), np.where(better[..., None], f_trial, f)
        radius = np.where(better, radius, 0.25 * np.abs(step))
        if not np.max(np.abs(step)) > 1e-6:
            break
    return score(chart(u[..., None]))[1].reshape(-1, 4)


def _min_product_pure_matrix(matrix: np.ndarray):
    """Array-level core of :func:`min_over_product_pure` for a 4x4 matrix:
    ``(value, x, y)`` for the best product ket x (x) y of a state whose
    eigenvalues are at least -``PSD_TOL``, as :class:`LabeledState` checks.
    That check covers Hermiticity too, so the decomposition is unchecked."""
    values, vectors = np.linalg.eigh(matrix)
    kets = vectors[:, la.support_mask(values)].T  # the support's eigenvectors, top last
    if len(kets) == 2:
        # det(t M1 + M2) = t^2 det M1 + t (det(M1 + M2) - det M1 - det M2) + det M2
        d1, d12, d2 = np.linalg.det(np.reshape([kets[1], kets.sum(0), kets[0]], (3, 2, 2)))
        kets = np.r_[kets, np.roots([d1, d12 - d1 - d2, d2])[:, None] * kets[1] + kets[0]]
    elif len(kets) > 2:
        u, s, vh = np.linalg.svd(kets[-1:].reshape(1, 2, 2))  # the top eigenvector, factored
        if not s[0, 1] > SCHMIDT_RANK_TOL:  # it is product, so the minimiser (Jensen)
            return _best_product(u, vh, values, vectors)
        kets = np.r_[kets, _sphere_search(values, vectors, len(kets))]
    u, _, vh = np.linalg.svd(kets.reshape(-1, 2, 2))  # x (x) y: each ket's top singular pair
    return _best_product(u, vh, values, vectors)


def _best_product(u: np.ndarray, vh: np.ndarray, values: np.ndarray, vectors: np.ndarray):
    """``(value, x, y)`` for the best of the candidates x (x) y, each the top
    singular pair of a ket's SVD factors ``u``, ``vh`` (stacks of 2x2), scored
    on rho's eigendecomposition."""
    scores = _pure_rel_entropy_on((u[..., :1] * vh[..., :1, :]).reshape(-1, 4), values, vectors)[0]
    best = scores.argmin()
    return scores[best], u[best, :, 0], vh[best, 0]


def min_over_product_pure(state: LabeledState):
    """Minimise S(|xy><xy| | rho) over pure product kets |x>(x)|y> inside
    the support of rho, as :func:`~dualent.linalg.support_mask` decides it.

    For a pure target the relative entropy is -<xy| log2 rho |xy>.  Every
    candidate, the product ket x (x) y of some ket's top singular pair, is
    scored by the searches' kernel on one checked eigendecomposition of rho;
    a ket leaking more than ``SUPPORT_LEAK_TOL`` off the support scores +inf.
    Product kets that leak less, which the kernel scores finite, are not
    candidates, so a searched machine's |11> score and this minimum agree.  By
    Jensen, -<v|log2 rho|v> >= -log2 lambda_max, so a product top
    eigenvector is the minimiser.  Otherwise the support's rank r decides:
    at r <= 2 the candidates are its eigenvectors and the kets t e1 + e2
    with det(t M1 + M2) = 0, for e1, e2 as 2x2 matrices M1, M2, which are
    all the product kets inside it; at r = 3 and 4 a search over x on one
    Bloch sphere adds x (x) y(x), with y(x) in closed form, from a grid on
    both parties' spheres.  Returns ``(value, argmin_ket)``; the value is
    ``math.inf`` when no product ket lies in the support.
    """
    if state.dims != (2, 2):
        raise ValueError(f"two-qubit state required, got dims {state.dims}")
    value, x, y = _min_product_pure_matrix(state.matrix)
    return float(value), Ket(np.outer(x, y).ravel(), (2, 2))


def global_delete(rho_ab: LabeledState, rho_apbp: LabeledState) -> LabeledState:
    """Delete the second of two equal copies with a global (closed) map.

    Known copies can be deleted globally; this is the contrast to the local
    deleting no-go of :func:`schmidt_rank_nogo_check`.  The copies are equal
    when no entry differs by more than ``_EQUAL_COPIES_TOL``.

    The (A, B) factor is untouched; each eigenvector of the deleted copy is
    sent to a computational product basis vector, eigenvalues assigned in
    descending order to |00>, |01>, |10>, |11> (row-major).  The output
    (A', B') marginal is therefore product-basis diagonal -- separable --
    with the spectrum of the input copy, its eigenvalues outside the support
    (:func:`~dualent.linalg.support_mask`) read as 0.  Its factors are named
    after the kept copy's, primed (A -> A'), so the second copy's labels are
    not read.
    """
    if rho_ab.dims != rho_apbp.dims:
        raise ValueError(f"dimension mismatch: {rho_ab.dims} vs {rho_apbp.dims}")
    if len(rho_apbp.dims) != 2:
        raise ValueError("the deleted copy must be bipartite")
    gap = float(np.max(np.abs(rho_ab.matrix - rho_apbp.matrix)))
    if not gap <= _EQUAL_COPIES_TOL:
        raise ValueError(f"equal copies required: max elementwise gap {gap:.3e}")
    values = np.linalg.eigvalsh(rho_apbp.matrix)
    spectrum = np.where(la.support_mask(values), values, 0.0)[::-1]
    deleted = np.diag(spectrum)
    return LabeledState(
        np.kron(rho_ab.matrix, deleted),
        rho_ab.dims + rho_apbp.dims,
        rho_ab.labels + tuple(f"{label}'" for label in rho_ab.labels),
    )


class SchmidtRankCheck(NamedTuple):
    rank_input: int
    rank_target: int
    deletable: bool


def schmidt_rank_nogo_check(pair: SchmidtPair) -> SchmidtRankCheck:
    """Compare Schmidt ranks across AA':BB' before and after ideal deleting.

    Both ranks come from psi's rank r across A:B.  Schmidt ranks multiply
    under tensor products, so the two copies psi (x) psi have rank r^2 across
    the cut, while the deleted target psi (x) |0'> (x) |0''> keeps rank r.
    Local unitaries preserve the rank, so deleting is impossible whenever the
    ranks differ: (4, 2) for an entangled psi, (1, 1) in the product limit.
    """
    r = len(schmidt_decompose(schmidt_ket(pair)))
    return SchmidtRankCheck(r * r, r, r * r == r)
