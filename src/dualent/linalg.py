"""Dense linear algebra for small multipartite operators.

Operators are plain ``numpy.ndarray`` as the ``qstate`` constructors stored
them, float64 or complex128, from arrays that :func:`_numbers` admits, so a
real operator is factored, diagonalised and traced in real arithmetic.
Subsystem structure is never implicit: every operation that cares about
tensor factors takes the factor dimensions as an explicit list, so
six-register partial traces stay readable at the call site.

A state's values are checked once, when ``qstate.LabeledState`` is built, and
its stored matrix is read-only, so the eigensolve and the matrix logarithm
here trust it.  The search kernels score Gram matrices they build themselves,
so they call ``numpy.linalg.eigh`` on their stacks directly; so does
``deleting._min_product_pure_matrix`` on a checked state.

The zero rules: each is one rule, applied by the functions listed.

- Hermiticity, max |M - M^dag| <= ``HERMITICITY_TOL``, by :func:`hermiticity_defect`:
  ``qstate.LabeledState``.
- PSD, no eigenvalue below -``PSD_TOL``: ``qstate.LabeledState``, through a Cholesky
  factorisation of rho + ``PSD_TOL`` I, in real arithmetic when rho is real-valued, with
  ``eigvalsh`` deciding the matrices it fails on.
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
import operator
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
_EPS = np.finfo(float).eps
PSD_TOL = 1e-10
ISOMETRY_TOL = 1e-12


def as_matrix(matrix) -> np.ndarray:
    """``matrix`` as an array, checked to be square; its dtype is left as it is."""
    out = np.asarray(matrix)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def _numbers(array) -> np.ndarray:
    """``array`` as an array, checked to hold numbers: its dtype's kind is
    integer, unsigned, float or complex.  A bool, string, bytes or object
    array raises ``ValueError``, where a conversion would read "1" or True as 1."""
    out = np.asarray(array)
    if out.dtype.kind not in "iufc":
        raise ValueError(f"expected an array of numbers, got dtype {out.dtype}")
    return out


def _frozen(array) -> np.ndarray:
    """A read-only C-ordered copy of ``array``: the one array a checked object
    or a module constant keeps, so no write to the argument undoes a check."""
    out = np.array(array, order="C")
    out.setflags(write=False)
    return out


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max elementwise |M - M^dag| of a nonempty square matrix, in its own
    dtype, so a float64 matrix is checked in real arithmetic."""
    return float(np.abs(matrix - matrix.conj().T).max())


def isometry_defect(matrix: np.ndarray) -> float:
    """Max elementwise |V^dag V - I| of a complex matrix; NaN or inf, without a
    warning, where an entry is not finite, so ``not defect <= ISOMETRY_TOL``
    rejects it."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[1]))))


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, vectors)`` of a Hermitian matrix that the
    caller has checked: :func:`matrix_log2_on_support`, its one caller, is
    passed a ``qstate.LabeledState``'s.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors, so ``vectors @ diag(values) @
    vectors.conj().T`` reconstructs the input.  Raises ``RuntimeError`` if
    the solver fails to converge.
    """
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        n = matrix.shape[0]
        raise RuntimeError(f"eigendecomposition did not converge on a {n}x{n} matrix") from exc


def support_mask(values: np.ndarray) -> np.ndarray:
    """The support of ascending spectra in the last axis: the eigenvalues above n eps lambda_max.
    A backward-stable ``eigh`` is exact for a matrix within about n eps ||rho||_2 of rho, so by
    Weyl's inequality a computed eigenvalue below that level says nothing (Golub & Van Loan,
    Matrix Computations, 4th ed., section 8.1)."""
    return values > values.shape[-1] * _EPS * values[..., -1:]


def matrix_log2_on_support(matrix: np.ndarray):
    """Base-2 matrix logarithm of a PSD matrix, restricted to its support; the
    caller has checked the matrix: its one caller, ``qstate.relative_entropy``,
    passes a ``qstate.LabeledState``'s.

    Returns ``(log, projector)`` where ``log = sum log2(l) v v^dag`` over the
    eigenvalues l that :func:`support_mask` keeps, and ``projector`` projects
    onto the span of the kept eigenvectors.  The other eigenvalues, round-off
    negatives included, are treated as zero.
    """
    values, vectors = hermitian_eig(matrix)
    # eigenvalues ascend, so the kept ones are the top ``rank``
    rank = np.count_nonzero(support_mask(values))
    cols = vectors[:, len(values) - rank :]
    weights = np.log2(values[len(values) - rank :])
    return (cols * weights) @ cols.conj().T, cols @ cols.conj().T


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, read with ``operator.index``: integers of
    any integer type but bool pass; a bool, float, string or bare int is refused."""
    try:
        values = tuple(values)
        if bool in map(type, values):  # operator.index reads True as 1
            raise TypeError
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values}") from None


def _check_dims(dims: Sequence[int], total: int) -> tuple[int, ...]:
    dims = _integers(dims, "factor dimensions")
    if min(dims, default=1) < 1:
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != total:
        raise ValueError(f"factor dimensions {dims} do not multiply to {total}")
    return dims


def partial_trace(matrix: np.ndarray, dims: tuple[int, ...], discard: Sequence[int]) -> np.ndarray:
    """Trace out the factors listed in ``discard`` (indices into ``dims``).

    Discarding every factor yields the 1x1 matrix holding the trace.  The
    arguments are taken as checked, as ``qstate.trace_out`` passes them: a
    ``LabeledState``'s matrix and dims, and indices in range, where one listed
    twice counts once.
    """
    n = len(dims)
    keep = [k for k in range(n) if k not in discard]
    # rows take subscripts 0..n-1 and columns n..2n-1, except that a discarded
    # factor's column repeats its row's subscript, so the one einsum traces it
    columns = [k if k in discard else n + k for k in range(n)]
    size = math.prod(dims[k] for k in keep)
    tensor = matrix.reshape(dims * 2)
    reduced = np.einsum(tensor, [*range(n), *columns], keep + [n + k for k in keep])
    return reduced.reshape(size, size)
