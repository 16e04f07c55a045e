import math

import numpy as np


def haar_unitary(rng, n):
    """A Haar-random n x n unitary: QR of a complex Ginibre matrix, with
    the phases of R's diagonal moved into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
