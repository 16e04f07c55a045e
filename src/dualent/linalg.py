"""Dense complex linear algebra for small multipartite operators.

Operators are plain ``numpy.ndarray`` of complex128.  Subsystem structure is
never implicit: every operation that cares about tensor factors takes the
factor dimensions as an explicit list, so six-register reorderings stay
readable at the call site.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# Hermiticity is enforced elementwise; support truncation separates genuine
# zero eigenvalues from round-off (physical eigenvalues here are >= ~1e-2).
HERMITICITY_TOL = 1e-12
SUPPORT_TOL = 1e-12


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors, so ``vectors @ diag(values) @
    vectors.conj().T`` reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex matrix."""
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def hermiticity_defect(matrix) -> float:
    """Max elementwise |M - M^dag|."""
    m = as_matrix(matrix)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eig(matrix) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``ValueError`` if the input is not Hermitian within
    ``HERMITICITY_TOL`` and ``RuntimeError`` if the underlying solver fails
    to converge.
    """
    values, vectors = _checked_eigh(as_matrix(matrix)[None])
    return EigenSystem(values[0], vectors[0])


def _checked_eigh(stack: np.ndarray):
    """:func:`hermitian_eig` of every matrix in a (k, n, n) stack; raises if
    any one of them fails the check."""
    defect = np.maximum.reduce(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=None, initial=0.0)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        n = stack.shape[-1]
        raise RuntimeError(f"eigendecomposition did not converge on a {n}x{n} matrix") from exc


def matrix_log2_on_support(matrix):
    """Base-2 matrix logarithm of a PSD matrix, restricted to its support.

    Returns ``(log, projector)`` where ``log = sum_{l > SUPPORT_TOL} log2(l)
    v v^dag`` and ``projector`` projects onto the span of the kept
    eigenvectors.  Eigenvalues in [-1e-12, SUPPORT_TOL] are treated as zero;
    anything more negative is rejected as not positive semidefinite.
    """
    log, projector = _log2_on_support(as_matrix(matrix)[None])
    return log[0], projector[0]


def _log2_on_support(stack: np.ndarray):
    """:func:`matrix_log2_on_support` of every matrix in a (k, n, n) stack,
    each checked on its own; returns the stacked logs and projectors."""
    values, vectors = _checked_eigh(stack)
    smallest = np.minimum.reduce(values[:, 0])
    if not smallest >= -1e-12:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {smallest:.3e}")
    kept = np.add.reduce(values > SUPPORT_TOL, axis=1)
    ranks = set(kept.tolist())
    if len(ranks) == 1:
        return _log2_of_top(values, vectors, ranks.pop())
    log, projector = np.empty_like(vectors), np.empty_like(vectors)
    for rank in ranks:
        rows = kept == rank
        log[rows], projector[rows] = _log2_of_top(values[rows], vectors[rows], rank)
    return log, projector


def _log2_of_top(values: np.ndarray, vectors: np.ndarray, rank: int):
    """Log and projector of a stack whose kept eigenvalues are the top
    ``rank`` of every matrix (eigenvalues ascend).  Summing over the kept
    columns alone, as for a single matrix, keeps the results bit-identical
    to a one-matrix call."""
    cols = vectors[:, :, vectors.shape[-1] - rank :]
    weights = np.log2(values[:, None, values.shape[-1] - rank :])
    return (cols * weights) @ cols.conj().swapaxes(1, 2), cols @ cols.conj().swapaxes(1, 2)


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two operators."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _check_dims(dims: Sequence[int], total: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    return dims


def permute_subsystems(matrix, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of an operator.

    ``perm[k]`` is the input factor that lands at output position ``k``;
    applying ``perm`` and then its inverse is the identity.
    """
    m = as_matrix(matrix)
    dims = _check_dims(dims, m.shape[0])
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of {len(dims)} factors")
    n = len(dims)
    axes = perm + tuple(p + n for p in perm)
    tensor = m.reshape(dims + dims).transpose(axes)
    return tensor.reshape(m.shape)


def permute_ket(amplitudes, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a state vector (same convention as
    :func:`permute_subsystems`)."""
    vec = np.asarray(amplitudes, dtype=complex).ravel()
    dims = _check_dims(dims, vec.size)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of {len(dims)} factors")
    return vec.reshape(dims).transpose(perm).ravel()


def partial_trace(matrix, dims: Sequence[int], discard) -> np.ndarray:
    """Trace out the factors listed in ``discard`` (indices into ``dims``).

    Discarding every factor yields the 1x1 matrix holding the trace.
    """
    m = as_matrix(matrix)
    dims = _check_dims(dims, m.shape[0])
    discard = sorted({int(i) for i in discard})
    if discard and (discard[0] < 0 or discard[-1] >= len(dims)):
        raise ValueError(f"discard indices {discard} out of range for {len(dims)} factors")
    tensor = m.reshape(dims + dims)
    remaining = list(dims)
    for idx in reversed(discard):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    size = int(np.prod(remaining)) if remaining else 1
    return tensor.reshape(size, size)


def trace_norm(matrix):
    """Trace norm of a Hermitian matrix (sum of |eigenvalues|); of each
    matrix, for a (k, n, n) stack."""
    return np.add.reduce(np.abs(np.linalg.eigvalsh(matrix)), axis=-1)
