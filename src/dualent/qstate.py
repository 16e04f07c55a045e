"""Quantum-state primitives: labelled density matrices, kets, Schmidt
coefficients, and the entropic quantities built from them.

All entropies and relative entropies are in bits (base-2 logarithms).  An
infinite relative entropy (support mismatch) is a legitimate result and is
returned as ``math.inf`` rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg as la

TRACE_TOL = 1e-10
NORM_TOL = 1e-12
# support(rho) lies inside support(sigma) when tr((I - P_sigma) rho) <= this
SUPPORT_LEAK_TOL = 1e-10
# singular values below this do not count toward the Schmidt rank
SCHMIDT_RANK_TOL = 1e-10
# types float() reads as a real number though they are none
_NOT_REAL = frozenset(
    (str, bytes, bytearray, np.str_, np.bytes_)  # "0.5" and b"0.5"
    + (bool, np.bool_)
    + (np.complex64, np.complex128, np.clongdouble)  # the imaginary part dropped
)


def _real_valued(array) -> np.ndarray:
    """The one dtype rule for states and kets: float64 when the values are real
    (real-typed, or complex with no nonzero imaginary part; a NaN is nonzero),
    read from the real part; else complex128.  The caller makes the stored copy."""
    array = np.asarray(array)
    if array.dtype.kind == "c":
        if np.count_nonzero(array.imag):
            return array.astype(complex, copy=False)
        array = array.real
    return array.astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class LabeledState:
    """Density matrix plus an ordered list of labelled subsystems.

    ``dims[k]`` is the dimension of the factor named ``labels[k]``; labels
    make the six-register partial traces of the cloning/deleting pipelines
    explicit instead of positional.

    Construction checks trace one within ``TRACE_TOL``, Hermiticity within
    ``HERMITICITY_TOL`` and no eigenvalue below -``PSD_TOL``.  The PSD rule is
    decided by a Cholesky factorisation of rho + ``PSD_TOL`` I (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10), which succeeds
    exactly when the rule holds, up to round-off; where it fails,
    ``eigvalsh`` decides and a rejection names the smallest eigenvalue.

    A real-valued matrix is stored as float64: real-typed input, integer and
    float32 widened, and complex input whose imaginary parts are all zero as
    its real part.  Every other matrix is stored as complex128.  Single
    precision is widened before the float64-tolerance checks.  The stored
    matrix is read-only and shares no memory with the argument.  The checks
    run on one working copy of the stored matrix, so a real-valued state is
    checked, and later diagonalised and traced, in real arithmetic.  For a
    real matrix the real and the complex defect are the same number, so the
    messages do not depend on how the matrix was passed.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        matrix = la._frozen(_real_valued(la.as_matrix(self.matrix)))
        dims = la._check_dims(self.dims, matrix.shape[0])
        labels = _label_tuple(self.labels)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        if len(dims) != len(labels):
            raise ValueError(f"{len(dims)} dims but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        work = matrix.copy()
        diagonal = work.reshape(-1)[:: len(work) + 1]
        trace = diagonal.sum().item()  # a float for a real-valued state
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"state trace is {trace}, expected 1")
        defect = la.hermiticity_defect(work)
        if not defect <= la.HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian: defect {defect:.3e}")
        diagonal += la.PSD_TOL  # rho + PSD_TOL I
        try:
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(matrix)[0])
            if not smallest >= -la.PSD_TOL:
                raise ValueError(f"state is not PSD: smallest eigenvalue {smallest:.3e}") from None


def _label_tuple(labels: str | Sequence[str]) -> tuple[str, ...]:
    """``labels`` as a tuple of strings; a bare string is one label, not its characters."""
    return (labels,) if isinstance(labels, str) else tuple(map(str, labels))


def trace_out(state: LabeledState, labels: str | Sequence[str]) -> LabeledState:
    """Discard the named subsystems of a labelled state: one label, or a sequence of them."""
    labels = _label_tuple(labels)
    try:
        discard = tuple(state.labels.index(s) for s in labels)
    except ValueError:
        raise ValueError(f"unknown label in {tuple(labels)}; state has {state.labels}") from None
    keep = [k for k in range(len(state.dims)) if k not in discard]
    reduced = la.partial_trace(state.matrix, state.dims, discard)
    return LabeledState(
        reduced,
        tuple(state.dims[k] for k in keep),
        tuple(state.labels[k] for k in keep),
    )


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure-state amplitude vector with explicit factor dimensions.

    Real-valued amplitudes are stored as float64, by the rule of
    :class:`LabeledState`; any others as complex128.  They are read-only
    and share no memory with the argument.  Single precision is widened before
    the check: float32 [0.6, 0.8] is refused, with norm 1.000000023841858.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = la._frozen(_real_valued(np.asarray(self.amplitudes).ravel()))
        dims = la._check_dims(self.dims, amps.size)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"ket norm is {norm}, expected 1")


@dataclass(frozen=True)
class SchmidtPair:
    """Schmidt coefficients (a, b) of the two-qubit family a|00> + b|11>,
    given by a alone: b = sqrt(1 - a^2) is computed, never passed.

    Any a in [0, 1] is admitted, the product states a = 0 and a = 1
    included.  X (x) X maps the pair to its mirror (b, a), and every measure
    here is invariant under local unitaries, so a and sqrt(1 - a^2) give the
    same values; a <= 1/sqrt(2) covers the family once.  A string, bytes, a
    bool, a complex or anything else ``float()`` refuses raises ``ValueError``.
    """

    a: float
    b: float = field(init=False)

    def __post_init__(self):
        try:
            if type(self.a) in _NOT_REAL:  # not isinstance: every bound builds a pair
                raise TypeError
            a = float(self.a)
        except TypeError:
            raise ValueError(f"Schmidt coefficient must be a real number, got {self.a!r}") from None
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"Schmidt coefficient a = {a} outside [0, 1]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", math.sqrt(max(0.0, 1.0 - a * a)))


def schmidt_ket(pair: SchmidtPair) -> Ket:
    """The two-qubit ket a|00> + b|11> on factors (A, B)."""
    return Ket(np.array([pair.a, 0.0, 0.0, pair.b]), (2, 2))


def schmidt_decompose(ket: Ket, cut=((0,), (1,))) -> np.ndarray:
    """Schmidt coefficients across ``cut = (left_factors, right_factors)``.

    The coefficients are the singular values of the cut matrix, descending,
    as a float64 array.  Singular values at or below ``SCHMIDT_RANK_TOL`` are
    dropped, so the array's length is the Schmidt rank.  The SVD keeps a
    round-off zero near 1e-16; the square root of a Gram eigenvalue would
    lift it to ~1e-8, above the cutoff.
    """
    sides = tuple(la._integers(side, "cut indices") for side in cut)
    if len(sides) != 2 or sorted(sum(sides, ())) != list(range(len(ket.dims))):
        raise ValueError(f"cut {cut} is not a bipartition of {len(ket.dims)} factors")
    left, right = sides
    d_left = math.prod(ket.dims[i] for i in left)
    mat = ket.amplitudes.reshape(ket.dims).transpose(left + right).reshape(d_left, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return s[s > SCHMIDT_RANK_TOL]


def von_neumann_entropy(state: LabeledState) -> float:
    """S(rho) = -tr(rho log2 rho), in bits, over the eigenvalues in the
    support, as :func:`~dualent.linalg.support_mask` decides it."""
    values = np.linalg.eigvalsh(state.matrix)
    kept = values[la.support_mask(values)]
    # entropies are nonnegative; the clamp also turns a pure state's -0.0 into 0.0
    return max(0.0, float(-(kept * np.log2(kept)).sum()))


def relative_entropy(rho: LabeledState | Ket, sigma: LabeledState) -> float:
    """S(rho|sigma) = tr(rho log2 rho - rho log2 sigma), in bits.

    The first term is -S(rho), read from rho's spectrum with the same
    support rule as :func:`von_neumann_entropy`; only sigma gets a
    matrix logarithm.  Returns ``math.inf`` when the support of rho leaks
    outside the support of sigma, tr((I - P_sigma) rho) above
    ``SUPPORT_LEAK_TOL``.  Both traces are read as one ``vdot`` each:
    tr(M rho) = sum conj(M_ij) rho_ij for the Hermitian P_sigma and log2 sigma.

    A pure rho may be passed as its :class:`Ket` psi.  Then S(rho) = 0 needs
    no spectrum, the value is -<psi|log2 sigma|psi> and the leak is
    ||psi||^2 - <psi|P_sigma|psi>, under the same rule.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    log_sigma, projector = la.matrix_log2_on_support(sigma.matrix)
    if isinstance(rho, Ket):
        psi = rho.amplitudes
        leak = float((np.vdot(psi, psi) - np.vdot(psi, projector @ psi)).real)
        if leak > SUPPORT_LEAK_TOL:
            return math.inf
        return -float(np.vdot(psi, log_sigma @ psi).real)
    leak = float((rho.matrix.trace() - np.vdot(projector, rho.matrix)).real)
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    return -von_neumann_entropy(rho) - float(np.vdot(log_sigma, rho.matrix).real)


def _pure_rel_entropy_on(vec: np.ndarray, values: np.ndarray, vectors: np.ndarray):
    """S(|v><v| | rho) for each rho of a (..., n, n) stack, given by its
    eigendecomposition ``(values, vectors)``, and the unit vectors v of
    ``vec`` (..., n), broadcast against it; ``inf`` where |v> leaks off the
    support of rho.  Also returns the overlaps <e_l|v> and the support mask."""
    overlaps = (vectors.conj().swapaxes(-1, -2) @ vec[..., None])[..., 0]
    weights = np.abs(overlaps) ** 2
    on_support = la.support_mask(values)
    leak = np.add.reduce(weights, axis=-1, where=~on_support)
    logs = np.log2(values, out=np.zeros_like(values), where=on_support)
    # relative entropies are nonnegative; the clamp also turns -0.0 into 0.0
    value = np.maximum(-np.add.reduce(weights * logs, axis=-1), 0.0)
    return np.where(leak > SUPPORT_LEAK_TOL, math.inf, value), overlaps, on_support


def _pure_rel_entropy_grad(vec: np.ndarray, rho: np.ndarray):
    """:func:`_pure_rel_entropy_on` of ``eigh(rho)`` and its gradient G,
    dS = tr(G d rho) for Hermitian d rho, for each rho of a (..., n, n) stack.

    S = -<v|g(rho)|v> with g = log2 on the support and 0 off it, as the value
    is computed; Daleckii-Krein gives G = -W (L o W^dag |v><v| W) W^dag with
    L the divided differences of g on the eigenvalues (Bhatia, Matrix
    Analysis, ch. V).  Eigenvalues on the support are all above n eps
    lambda_max > 0, so L is finite; G is meaningless where the value is ``inf``.
    """
    values, vectors = np.linalg.eigh(rho)
    value, overlaps, on_support = _pure_rel_entropy_on(vec, values, vectors)
    low = np.minimum(values[..., :, None], values[..., None, :])
    high = np.maximum(values[..., :, None], values[..., None, :])
    gap, row, col = high - low, on_support[..., :, None], on_support[..., None, :]
    # computed everywhere, then selected: both on the support, log1p(gap /
    # low) / gap, the limit 1 / low at gap 0; one on the support, the larger
    # eigenvalue's log / gap (gap > 0 there); neither, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.where(row & col, np.log1p(gap / low), np.log(high))
        diff = np.where(row | col, np.where(gap > 0, top / gap, 1 / low), 0.0)
    inner = (diff / math.log(2.0)) * (overlaps[..., :, None] * overlaps[..., None, :].conj())
    return value, -(vectors @ inner @ vectors.conj().swapaxes(-1, -2))


def _local_output(weights, v_alice: np.ndarray, v_bob: np.ndarray) -> np.ndarray:
    """The output K of local machines run on sum_i w_i |i>|i>, for k ``weights``
    and (..., 2m, k) stacks of isometries from k levels into the party's qubit (A
    or B) and m others: V_A diag(w) V_B^T as rows (A, B) and columns (Alice's m
    others, Bob's m others), so the (A, B) marginal is K K^dag, the others' K^T K^*."""
    out = (v_alice * weights) @ v_bob.swapaxes(-1, -2)
    t = out.reshape(out.shape[:-2] + (2, -1, 2, out.shape[-1] // 2))  # (A, others, B, others)
    return t.swapaxes(-3, -2).reshape(out.shape[:-2] + (4, -1))


def _local_output_adjoint(grad: np.ndarray, v_alice: np.ndarray, v_bob: np.ndarray):
    """The adjoint of :func:`_local_output` before its weights: for the gradient G
    in K, dS = Re tr(G^dag dK), and G_out, G regrouped over (Alice, Bob), the (...,
    2, 2m, k) stack G_out V_B^*, G_out^T V_A^*, which times diag(w) are the gradients
    in V_A and V_B.  Each caller applies diag(w) itself, which fixes its rounding."""
    g = grad.reshape(grad.shape[:-2] + (2, 2, v_alice.shape[-2] // 2, -1)).swapaxes(-3, -2)
    g = g.reshape(grad.shape[:-2] + (v_alice.shape[-2], -1))
    grads = np.empty(grad.shape[:-2] + (2,) + v_alice.shape[-2:], dtype=complex)
    np.matmul(g, v_bob.conj(), out=grads[..., 0, :, :])
    np.matmul(g.swapaxes(-1, -2), v_alice.conj(), out=grads[..., 1, :, :])
    return grads


def _pair_entropy(pair: SchmidtPair) -> float:
    """Entanglement of a|00> + b|11>, the binary entropy h(w) in bits of w,
    the smaller of a^2 and b^2, with no ket and no SVD.

    It is 0 when the smaller coefficient is at most ``SCHMIDT_RANK_TOL``, the
    rule of :func:`schmidt_decompose`, so E > 0 exactly at Schmidt rank 2.  The
    larger weight's term takes log1p(-w): log2 of the rounded 1 - w loses the
    term's relative accuracy as w falls, and all of it below w ~ 1e-16.
    """
    smaller = min(pair.a, pair.b)
    if smaller <= SCHMIDT_RANK_TOL:
        return 0.0
    w = smaller * smaller
    return -(w * math.log2(w) + (1.0 - w) * math.log1p(-w) / math.log(2.0))
