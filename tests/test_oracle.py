"""The closed-form bounds and the searches' bests against 50-digit references
computed with mpmath.

Each reference takes the float a as exact and computes b = sqrt(1 - a^2),
the entropies and the relative entropy to the clone copy in 50-digit
arithmetic, so the tolerances below measure the library's own round-off.
A search's best must also be at least the 50-digit score of its own
machine, made exact on the columns its input reaches, less
``SEARCH_SLACK``: a printed best is then a genuine upper bound on the
measure.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from dualent.cloning import clone_bound, clone_bound_combined, crossover
from dualent.deleting import delete_bound
from dualent.qstate import SchmidtPair
from dualent.variational import optimize_clone, optimize_delete

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


# the searches' bests against 50-digit scores of their own machines

GRID_20 = np.linspace(0.01, 1 / math.sqrt(2), 20)  # the variational suite's grid
SEARCH_SLACK = 1e-12  # about 20 times the cloning bests' largest gap, 5.1e-14
SUPPORT_HARVEST = pytest.mark.xfail(
    strict=True,
    reason="the deleting search harvests the kernel's SUPPORT_TOL cutoff: it parks the copies' "
    "two small eigenvalues just under 1e-12, where psi and |11> leak up to SUPPORT_LEAK_TOL "
    "uncounted, so its best reads up to 1.0e-9 below its own machine's 50-digit score",
)


def _polar(u: np.ndarray):
    """The polar factor U (U^dag U)^(-1/2) of a float isometry, in 50 digits:
    the machine the float one stands for, exactly isometric."""
    u = mp.matrix(u.tolist())
    values, vectors = mp.eighe(u.H * u)
    return u * vectors * mp.diag([1 / mp.sqrt(x) for x in values]) * vectors.H


def _output(weights, v_a, v_b):
    """V_A diag(w) V_B^T with rows (A, B) and columns (Alice's m others,
    Bob's m others), entry by entry."""
    out = v_a * mp.diag(weights) * v_b.T
    m = out.rows // 2
    k = mp.matrix(4, m * m)
    for i in range(out.rows):
        for j in range(out.cols):
            k[2 * (i // m) + j // m, (i % m) * m + j % m] = out[i, j]
    return k


def _pure_score(v, rho):
    """-<v| log2 rho |v> on the full spectrum of rho: no cutoff, no leak rule."""
    values, vectors = mp.eighe(rho)
    overlaps = vectors.H * v
    terms = (abs(overlaps[k]) ** 2 * mp.log(values[k]) for k in range(rho.rows))
    return -mp.fsum(terms) / mp.log(2)


def machine_score(kind: str, pair: SchmidtPair, machines) -> float:
    """The search's own score of the exactly isometric machines behind
    ``machines``, to 50 digits: psi against the copy for cloning, the mean of
    psi against the kept copy and |11> against the deleted copy for
    deleting.  Any machine with any product target bounds the measure, so
    this is a genuine upper bound whatever the library's rules.  Only the
    columns the input reaches are made exact: two of each 6x6 cloning
    unitary, all four of each deleting one."""
    columns = 2 if kind == "clone" else 4
    with mp.workdps(50):
        a = mp.mpf(pair.a)
        b = mp.sqrt(1 - a * a)
        psi = mp.matrix([a, 0, 0, b])
        u_a, u_b = (_polar(machine.matrix[:, :columns]) for machine in machines)
        if kind == "clone":
            s = mp.matrix(8, 6)  # cloning._SYMMETRIC, exactly
            for row, col in zip([0, 6, 1, 7], [0, 1, 2, 3]):
                s[row, col] = 1
            for row, col in zip([2, 4, 3, 5], [4, 4, 5, 5]):
                s[row, col] = mp.sqrt(mp.mpf(1) / 2)
            k = _output([a, b], s * u_a, s * u_b)
            return float(_pure_score(psi, k * k.H))
        k = _output([a * a, a * b, a * b, b * b], u_a, u_b)
        kept = _pure_score(psi, k * k.H)
        deleted = _pure_score(mp.matrix([0, 0, 0, 1]), k.T * k.conjugate())
        return float((kept + deleted) / 2)


def _worst_gap(kind: str, points, seeds) -> float:
    """The lowest best_objective - machine_score over the seeded searches."""
    search = {"clone": optimize_clone, "delete": optimize_delete}[kind]
    gaps = []
    for seed in seeds:
        for a in points:
            pair = SchmidtPair(float(a))
            report = search(pair, restarts=5, seed=seed)
            gaps.append(report.best_objective - machine_score(kind, pair, report.best_params))
    return min(gaps)


@pytest.mark.parametrize("a", [0.3, 0.5, 1 / math.sqrt(2)])
def test_clone_best_bounds_its_own_machine(a):
    # measured at seed 1: -1.5e-14, -1.3e-14 and -6.0e-15
    assert _worst_gap("clone", [a], [1]) >= -SEARCH_SLACK


@SUPPORT_HARVEST
def test_delete_best_bounds_its_own_machine():
    # measured at seed 1: -3.2e-10
    assert _worst_gap("delete", [1 / math.sqrt(2)], [1]) >= -SEARCH_SLACK


@pytest.mark.slow
def test_clone_bests_bound_their_machines_on_the_grid():
    # measured: at worst -5.1e-14 over the 40 searches
    assert _worst_gap("clone", GRID_20, [1, 11]) >= -SEARCH_SLACK


@pytest.mark.slow
@SUPPORT_HARVEST
def test_delete_bests_bound_their_machines_on_the_grid():
    # measured: at worst -1.0e-9 (seed 11, a = 0.6704); below -1e-12 at 35 of 40 searches
    assert _worst_gap("delete", GRID_20, [1, 11]) >= -SEARCH_SLACK
