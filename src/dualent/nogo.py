"""Numerical witnesses for the impossibility arguments.

Two demonstrations: (1) measuring a qubit and forgetting the outcome is the
fixed copy isometry |t> -> |t>_s |t>_e, whose two marginals are read from
its output ket; the environment's is a full copy of the local state, so the
operation is not closed; (2) a perfect local clone of a pure entangled state
would double its distillable entanglement across the AA':BB' cut, which no
LOCC map can do.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg as la
from .qstate import Ket, LabeledState, SchmidtPair, _pair_entropy

# |t> -> |t>_s |t>_e, the environment the trailing factor
_MEASURE_FORGET = la._frozen(np.eye(4)[:, [0, 3]])


def measure_forget_channel(alpha: Ket):
    """Measure a qubit and forget the outcome, keeping the environment.

    Runs the projective measurement {|0><0|, |1><1|} as its dilation, the
    fixed read-only copy isometry |t> -> |t>_s |t>_e, and returns
    ``(system_out, env_out)``, read from the output ket V|alpha> as the 2x2
    matrix K with rows s and columns e: K K^dag and K^T K^*, the convention
    of ``qstate._local_output``.  Both equal diag(|a|^2, |b|^2): the
    environment retains the local state, so the operation leaks and is not
    closed.  Any other measurement basis is a local unitary on the input
    away from this one.
    """
    if alpha.amplitudes.size != 2:
        raise ValueError(f"qubit ket required, got dimension {alpha.amplitudes.size}")
    out = (_MEASURE_FORGET @ alpha.amplitudes).reshape(2, 2)
    system_out = out @ out.conj().T
    env_out = out.T @ out.conj()
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
    e = _pair_entropy(pair)
    return CloningCertificate(e, 2.0 * e, 2.0 * e > e)
