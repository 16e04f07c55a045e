"""The closed-form bounds against 50-digit references computed with mpmath.

Each reference takes the float a as exact and computes b = sqrt(1 - a^2),
the entropies and the relative entropy to the clone copy in 50-digit
arithmetic, so the tolerances below measure the library's own round-off.
"""

import math

import numpy as np
from mpmath import mp

from dualent.cloning import clone_bound, clone_bound_combined, crossover
from dualent.deleting import delete_bound
from dualent.qstate import SchmidtPair

GRID_50 = np.linspace(0.01, 1 / math.sqrt(2), 50)  # the acceptance suite's grid
ROUND_OFF = 2e-15  # a few ulps of values up to 2 bits


def reference(a: float):
    """(E, S_clone, D) at a, to 50 digits.

    E = h(a^2).  S_clone = -<psi| log2 rho_clone |psi>: psi lies in the
    {|00>, |11>} block of the copy, [[24a^2 + 1, 16ab], [16ab, 24b^2 + 1]] / 36,
    whose eigendecomposition mpmath computes.  D = E - log2(b^2).
    """
    with mp.workdps(50):
        a = mp.mpf(a)
        w, v = a * a, 1 - a * a
        b = mp.sqrt(v)
        e = -(w * mp.log(w) + v * mp.log(v)) / mp.log(2)
        block = mp.matrix([[24 * w + 1, 16 * a * b], [16 * a * b, 24 * v + 1]]) / 36
        values, vectors = mp.eigsy(block)
        s_clone = -mp.fsum(
            (vectors[0, k] * a + vectors[1, k] * b) ** 2 * mp.log(values[k]) for k in range(2)
        ) / mp.log(2)
        return e, s_clone, e - mp.log(v) / mp.log(2)


def test_closed_forms_match_fifty_digits_on_the_grid():
    for a in GRID_50:
        pair = SchmidtPair(float(a))
        e, s_clone, d = reference(pair.a)
        assert abs(clone_bound_combined(pair).e_r - e) <= ROUND_OFF, a
        assert abs(clone_bound(pair) - s_clone) <= ROUND_OFF, a
        assert abs(delete_bound(pair) - d) <= ROUND_OFF, a


def test_clone_bound_at_the_symmetric_point_is_log2_12_over_7():
    with mp.workdps(50):
        exact = mp.log(mp.mpf(12) / 7) / mp.log(2)
        assert mp.nstr(exact, 25).startswith("0.777607578663552074")
        assert abs(clone_bound(SchmidtPair(1 / math.sqrt(2))) - exact) <= ROUND_OFF


def test_crossover_within_its_bracket_of_the_fifty_digit_root():
    with mp.workdps(50):
        root = mp.findroot(lambda a: mp.fsub(*reference(a)[:2]), (0.3, 0.55), solver="anderson")
    assert abs(crossover() - root) <= 1e-7
