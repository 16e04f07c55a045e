"""Numerical witnesses for the impossibility arguments.

Two demonstrations: (1) measuring a qubit and forgetting the outcome leaves a
full copy of the local state in the environment, so it is not a closed
operation; (2) a perfect local clone of a pure entangled state would double
its distillable entanglement across the AA':BB' cut, which no LOCC map can
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg as la
from .qstate import Ket, LabeledState, SchmidtPair, entropy_of_entanglement, schmidt_ket

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operators A_i of a channel rho -> sum_i A_i rho A_i^dag.

    Completeness sum_i A_i^dag A_i = I is enforced at construction.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(la.as_matrix(op) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        dim = ops[0].shape[0]
        if any(op.shape != (dim, dim) for op in ops):
            raise ValueError("all Kraus operators must share one dimension")
        total = sum(op.conj().T @ op for op in ops)
        defect = float(np.linalg.norm(total - np.eye(dim)))
        if not defect <= COMPLETENESS_TOL:
            raise ValueError(
                f"incomplete Kraus set: ||sum A^dag A - I|| = {defect:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def stinespring_isometry(kraus: KrausSet) -> np.ndarray:
    """Dilate a Kraus set to the isometry V|a>_s = sum_i (A_i|a>)_s |i>_e.

    The environment register is the trailing tensor factor, so with m
    operators on dimension d the result is (d*m) x d with V[s*m + i, t] =
    A_i[s, t], and tracing the environment out of V rho V^dag reproduces the
    Kraus map.
    """
    ops = kraus.operators
    d, m = kraus.dim, len(ops)
    return np.stack(ops, axis=0).transpose(1, 0, 2).reshape(d * m, d)


def apply_kraus(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Direct termwise application sum_i A_i rho A_i^dag."""
    rho = la.as_matrix(rho)
    return sum(op @ rho @ op.conj().T for op in kraus.operators)


def measure_forget_channel(alpha: Ket, basis: np.ndarray | None = None):
    """Measure a qubit and forget the outcome, keeping the environment.

    Dilates the projective measurement {|0><0|, |1><1|} (conjugated into
    ``basis`` when given) and returns ``(system_out, env_out)``.  Both equal
    diag(|a|^2, |b|^2) in the measurement basis: the environment retains the
    local state, so the operation leaks and is not closed.
    """
    if alpha.amplitudes.size != 2:
        raise ValueError(f"qubit ket required, got dimension {alpha.amplitudes.size}")
    if basis is None:
        basis = np.eye(2, dtype=complex)
    else:
        basis = la.as_matrix(basis)
        if not np.max(np.abs(basis.conj().T @ basis - np.eye(2))) <= 1e-10:
            raise ValueError("measurement basis must be unitary")
    projectors = tuple(
        np.outer(basis[:, k], basis[:, k].conj()) for k in range(2)
    )
    isometry = stinespring_isometry(KrausSet(projectors))
    rho = np.outer(alpha.amplitudes, alpha.amplitudes.conj())
    full = isometry @ rho @ isometry.conj().T
    system_out = la.partial_trace(full, (2, 2), (1,))
    env_out = la.partial_trace(full, (2, 2), (0,))
    return (
        LabeledState(system_out, (2,), ("s",)),
        LabeledState(env_out, (2,), ("e",)),
    )


class CloningCertificate(NamedTuple):
    ed_input: float
    ed_required: float
    contradiction: bool


def no_local_cloning_certificate(pair: SchmidtPair) -> CloningCertificate:
    """Distillable-entanglement arithmetic ruling out perfect local cloning.

    Across AA':BB' the input psi (x) separable blank carries E(psi) ebits,
    while a perfect two-copy output would carry at least 2 E(psi); the
    requirement exceeds the supply exactly when psi is entangled.
    """
    e = entropy_of_entanglement(schmidt_ket(pair))
    return CloningCertificate(e, 2.0 * e, 2.0 * e > e)
