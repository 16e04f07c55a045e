import math

import numpy as np

from dualent.qstate import Ket, LabeledState


def haar_unitary(rng, n):
    """A Haar-random n x n unitary: QR of a complex Ginibre matrix, with
    the phases of R's diagonal moved into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector(ket: Ket, labels=None) -> LabeledState:
    """The rank-1 state |k><k| of a ket, its factors labelled q0, q1, ...
    unless ``labels`` names them."""
    if labels is None:
        labels = tuple(f"q{k}" for k in range(len(ket.dims)))
    return LabeledState(np.outer(ket.amplitudes, ket.amplitudes.conj()), ket.dims, tuple(labels))
