"""Dense complex linear algebra for small multipartite operators.

Operators are plain ``numpy.ndarray`` of complex128.  Subsystem structure is
never implicit: every operation that cares about tensor factors takes the
factor dimensions as an explicit list, so six-register partial traces stay
readable at the call site.

Each function takes one matrix and checks it.  The search kernels score Gram
matrices they build themselves, so they call ``numpy.linalg.eigh`` on their
stacks directly, unchecked; so does ``deleting._min_product_pure_matrix`` on
the state that ``qstate.LabeledState`` has already checked.

The zero rules: each is one rule, applied by the functions listed.

- Hermiticity, max |M - M^dag| <= ``HERMITICITY_TOL``, by :func:`hermiticity_defect`:
  :func:`hermitian_eig` and ``qstate.LabeledState``.
- PSD, no eigenvalue below -``PSD_TOL``: ``qstate.LabeledState``, through a Cholesky
  factorisation of rho + ``PSD_TOL`` I, in real arithmetic when rho is real-valued, with
  ``eigvalsh`` deciding the matrices it fails on, and :func:`matrix_log2_on_support`,
  through its eigenvalues.
- Support, eigenvalues above n eps lambda_max, by :func:`support_mask`:
  :func:`matrix_log2_on_support`, qstate's von Neumann entropy and pure-state kernel
  ``_pure_rel_entropy_on``, the support rank in ``deleting.min_over_product_pure``, and
  the deleted copy's spectrum in ``deleting.global_delete``, which reads the rest as 0.
- Leak, at most ``qstate.SUPPORT_LEAK_TOL`` weight off the support, else +inf:
  ``qstate.relative_entropy`` and ``_pure_rel_entropy_on``.
- Schmidt rank, singular values above ``qstate.SCHMIDT_RANK_TOL``: ``schmidt_decompose``
  (so ``deleting.schmidt_rank_nogo_check`` and the ``nogo schmidt`` verdict), the
  entanglement E (``_pair_entropy`` on a Schmidt pair's (a, b), so E_R, ``delete_bound``
  and the ``nogo distill`` verdict), and the product minimum's test that a top eigenvector
  is product.
- Isometry, max |V^dag V - I| <= ``ISOMETRY_TOL``, by :func:`isometry_defect`:
  ``variational.LocalUnitary`` and ``cloning.CloneIsometry``.
- Equal copies, no entry differing by more than ``deleting._EQUAL_COPIES_TOL``:
  ``deleting.global_delete``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
_EPS = np.finfo(float).eps
PSD_TOL = 1e-10
ISOMETRY_TOL = 1e-12


def as_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex matrix."""
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max elementwise |M - M^dag| of a square matrix, in its own dtype, so a
    float64 matrix is checked in real arithmetic."""
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def isometry_defect(matrix: np.ndarray) -> float:
    """Max elementwise |V^dag V - I| of a complex matrix; NaN or inf, without a
    warning, where an entry is not finite, so ``not defect <= ISOMETRY_TOL``
    rejects it."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[1]))))


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, vectors)`` of a Hermitian matrix.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors, so ``vectors @ diag(values) @
    vectors.conj().T`` reconstructs the input.

    Raises ``ValueError`` if the input is not Hermitian within
    ``HERMITICITY_TOL`` and ``RuntimeError`` if the underlying solver fails
    to converge.
    """
    m = as_matrix(matrix)
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        n = m.shape[0]
        raise RuntimeError(f"eigendecomposition did not converge on a {n}x{n} matrix") from exc


def support_mask(values: np.ndarray) -> np.ndarray:
    """The support of ascending spectra in the last axis: the eigenvalues above n eps lambda_max.
    A backward-stable ``eigh`` is exact for a matrix within about n eps ||rho||_2 of rho, so by
    Weyl's inequality a computed eigenvalue below that level says nothing (Golub & Van Loan,
    Matrix Computations, 4th ed., section 8.1)."""
    return values > values.shape[-1] * _EPS * values[..., -1:]


def matrix_log2_on_support(matrix):
    """Base-2 matrix logarithm of a PSD matrix, restricted to its support.

    Returns ``(log, projector)`` where ``log = sum log2(l) v v^dag`` over the
    eigenvalues l that :func:`support_mask` keeps, and ``projector`` projects
    onto the span of the kept eigenvectors.  The other eigenvalues, down to
    -PSD_TOL, are treated as zero; anything more negative is rejected as not
    positive semidefinite.
    """
    values, vectors = hermitian_eig(matrix)
    if not values[0] >= -PSD_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {values[0]:.3e}")
    # eigenvalues ascend, so the kept ones are the top ``rank``
    rank = np.count_nonzero(support_mask(values))
    cols = vectors[:, len(values) - rank :]
    weights = np.log2(values[len(values) - rank :])
    return (cols * weights) @ cols.conj().T, cols @ cols.conj().T


def _check_dims(dims: Sequence[int], total: int) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if min(dims, default=1) < 1:
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    return dims


def partial_trace(matrix, dims: Sequence[int], discard) -> np.ndarray:
    """Trace out the factors listed in ``discard`` (indices into ``dims``).

    Discarding every factor yields the 1x1 matrix holding the trace.
    """
    m = as_matrix(matrix)
    dims = _check_dims(dims, m.shape[0])
    discard = sorted({int(i) for i in discard})
    if discard and (discard[0] < 0 or discard[-1] >= len(dims)):
        raise ValueError(f"discard indices {discard} out of range for {len(dims)} factors")
    n = len(dims)
    keep = [k for k in range(n) if k not in discard]
    # rows take subscripts 0..n-1 and columns n..2n-1, except that a discarded
    # factor's column repeats its row's subscript, so the one einsum traces it
    columns = [k if k in discard else n + k for k in range(n)]
    size = math.prod(dims[k] for k in keep)
    reduced = np.einsum(m.reshape(dims + dims), [*range(n), *columns], keep + [n + k for k in keep])
    return reduced.reshape(size, size)
