"""Acceptance suite: one test per numbered criterion, each printed as a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

The variational criterion runs both searches on a 20-point grid until each
restart converges or stalls, in about 2 seconds; every other criterion
takes at most about 1 second.
"""

import math
import time

import numpy as np
import pytest

from dualent.cli import main, sweep_rows
from dualent.cloning import (
    clone_bound,
    crossover,
    local_clone_pipeline,
    rho_clone_closed_form,
)
from dualent.deleting import (
    delete_bound,
    global_delete,
    local_delete_swap,
    schmidt_rank_nogo_check,
)
from dualent.nogo import measure_forget_channel
from dualent.qstate import Ket, LabeledState, SchmidtPair
from dualent.variational import optimize_clone, optimize_delete

SYM = 1.0 / math.sqrt(2.0)
GRID_50 = np.linspace(0.01, SYM, 50)
GRID_20 = np.linspace(0.01, SYM, 20)
# best objectives of the budget-capped Nelder-Mead searches that the
# gradient searches replaced (restarts=5, seed=1), per GRID_20 point, to 12
# decimals: no search may end above them
SIMPLEX_BESTS = {
    "delete": (
        0.000494636384, 0.005101432609, 0.012269454955, 0.023745226726, 0.037211064334,
        0.057477402196, 0.079805492670, 0.107896472101, 0.140918543126, 0.179320368738,
        0.222915351550, 0.273266898524, 0.331151112599, 0.393474825146, 0.459320948861,
        0.523983589437, 0.593780229815, 0.663200639850, 0.733918819421, 0.811278131979,
    ),
    "clone": (
        0.001165313815, 0.016019176461, 0.039545120370, 0.068694522774, 0.105328137069,
        0.135732785514, 0.177823829549, 0.221647895184, 0.270150396475, 0.318012984930,
        0.375593461879, 0.434553709314, 0.494462576535, 0.553809045902, 0.610809063199,
        0.663404772699, 0.709132187671, 0.745287851825, 0.769057134269, 0.777607578664,
    ),
}
# best objectives of the 10-pair L-BFGS searches in centred charts that
# dense BFGS replaced (restarts=5, seed=1), per GRID_20 point, to 12
# decimals: no search may end more than 1e-10 above them
LBFGS_BESTS = {
    "delete": (
        0.000144276836, 0.003148422004, 0.010064885217, 0.020950258998, 0.035894905444,
        0.055025505885, 0.078508752980, 0.106556419715, 0.139432143932, 0.177460413304,
        0.221038445900, 0.270644886424, 0.325186003033, 0.383526695010, 0.445618469279,
        0.511423097151, 0.580910939318, 0.654059537047, 0.730852424042, 0.811278124457,
    ),
    "clone": (
        0.000562457072, 0.009632501813, 0.027496082225, 0.052740925282, 0.084467654282,
        0.121974610414, 0.164652437827, 0.211927860265, 0.263222340683, 0.317912578290,
        0.375285516728, 0.434482930688, 0.494433686468, 0.553778284997, 0.610801777155,
        0.663403471547, 0.709131828958, 0.745287741791, 0.769057090871, 0.777607578664,
    ),
}


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_maximally_entangled_cloning_bound():
    start = time.perf_counter()
    value = clone_bound(SchmidtPair(SYM))
    elapsed = time.perf_counter() - start
    gap = abs(value - math.log2(12 / 7))
    report(1, gap < 1e-9 and elapsed < 0.1, f"|S - log2(12/7)| = {gap:.2e}, {elapsed:.3f} s")


def test_criterion_2_crossover(capsys):
    start = time.perf_counter()
    code = main(["crossover"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    value = float(out.strip().split("=", 1)[1])
    with capsys.disabled():
        report(
            2,
            code == 0 and abs(value - 0.4282) < 1e-3 and elapsed < 1.0,
            f"crossover = {value:.6f}, {elapsed:.3f} s",
        )


def test_criterion_3_maximally_entangled_deleting_bound():
    start = time.perf_counter()
    value = delete_bound(SchmidtPair(SYM))
    elapsed = time.perf_counter() - start
    gap = abs(value - 2.0)
    report(3, gap < 1e-9 and elapsed < 0.1, f"|D - 2| = {gap:.2e}, {elapsed:.3f} s")


def test_criterion_4_pipeline_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for a in GRID_50:
        pair = SchmidtPair(float(a))
        _, copy1, _ = local_clone_pipeline(pair)
        expected = rho_clone_closed_form(pair).matrix
        worst = max(worst, float(np.max(np.abs(copy1.matrix - expected))))
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-12 and elapsed < 5.0, f"max gap = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_5_swap_deleter_closed_form():
    worst_gap = 0.0
    worst_attainment = 0.0
    for a in GRID_50:
        pair = SchmidtPair(float(a))
        outcome = local_delete_swap(pair)
        worst_gap = max(worst_gap, abs(outcome.objective - delete_bound(pair)))
        # the inner minimum is attained at |11>: the |11> value equals it
        value_at_11 = -4.0 * math.log2(pair.b)
        worst_attainment = max(worst_attainment, abs(outcome.term_separable - value_at_11))
    ok = worst_gap < 1e-10 and worst_attainment < 1e-9
    report(5, ok, f"closed-form gap = {worst_gap:.2e}, |11> attainment gap = {worst_attainment:.2e}")


def test_criterion_6_figure_ordering_and_single_branch_switch():
    rows = sweep_rows(101)
    dominated = all(row.d_bound >= row.c_bound for row in rows)
    on_er_branch = [row.e_r <= row.s_clone for row in rows]
    switches = [
        k for k in range(len(rows) - 1) if on_er_branch[k] != on_er_branch[k + 1]
    ]
    root = crossover()
    single = len(switches) == 1
    at_root = single and rows[switches[0]].a <= root <= rows[switches[0] + 1].a
    report(
        6,
        dominated and single and at_root,
        f"D >= C on {len(rows)} rows, {len(switches)} switch(es) around a = {root:.4f}",
    )


def test_criterion_7_schmidt_rank_nogo():
    entangled_ok = all(
        schmidt_rank_nogo_check(SchmidtPair(float(a))) == (4, 2, False) for a in GRID_20
    )
    product_ok = schmidt_rank_nogo_check(SchmidtPair(0.0)) == (1, 1, True)
    report(7, entangled_ok and product_ok, "(4, 2) entangled grid, (1, 1) at a = 0")


def test_criterion_8_measure_and_forget_witness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ket = Ket(raw / np.linalg.norm(raw), (2,))
        system_out, env_out = measure_forget_channel(ket)
        worst = max(worst, float(np.max(np.abs(system_out.matrix - env_out.matrix))))
    report(8, worst < 1e-12, f"max residual over 200 kets = {worst:.2e}")


@pytest.mark.slow
def test_criterion_9_variational_sanity():
    worst_excess = worst_regress = worst_rise = -math.inf
    for k, a in enumerate(GRID_20):
        pair = SchmidtPair(float(a))
        for kind, search in (("delete", optimize_delete), ("clone", optimize_clone)):
            rep = search(pair, restarts=5, seed=1)
            worst_excess = max(worst_excess, rep.best_objective - rep.reference_bound)
            worst_regress = max(worst_regress, rep.best_objective - SIMPLEX_BESTS[kind][k])
            worst_rise = max(worst_rise, rep.best_objective - LBFGS_BESTS[kind][k])
    bounded = worst_excess <= 1e-6 and worst_regress <= 1e-9 and worst_rise <= 1e-10
    probe = SchmidtPair(float(GRID_20[7]))
    deterministic = True
    for search in (optimize_delete, optimize_clone):
        first = search(probe, restarts=5, seed=1)
        second = search(probe, restarts=5, seed=1)
        deterministic &= first.best_objective == second.best_objective
        deterministic &= all(
            p.matrix.tobytes() == q.matrix.tobytes()
            for p, q in zip(first.best_params, second.best_params)
        )
    report(
        9,
        bounded and deterministic,
        f"worst best-minus-reference = {worst_excess:.2e}, worst best-minus-simplex = "
        f"{worst_regress:.2e}, worst best-minus-L-BFGS = {worst_rise:.2e}, "
        f"deterministic = {deterministic}",
    )


def test_criterion_10_global_deleting():
    from dualent.qstate import trace_out

    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    worst_offdiag = 0.0
    worst_spectrum = 0.0
    for weight in (1.0, 0.7, 0.3):
        matrix = weight * np.outer(bell, bell.conj()) + (1 - weight) * np.eye(4) / 4
        rho_ab = LabeledState(matrix, (2, 2), ("A", "B"))
        rho_apbp = LabeledState(matrix, (2, 2), ("A'", "B'"))
        out = global_delete(rho_ab, rho_apbp)
        marginal = trace_out(out, ("A", "B"))
        offdiag = marginal.matrix - np.diag(np.diag(marginal.matrix))
        worst_offdiag = max(worst_offdiag, float(np.max(np.abs(offdiag))))
        got = np.sort(np.linalg.eigvalsh(marginal.matrix))
        want = np.sort(np.linalg.eigvalsh(matrix))
        worst_spectrum = max(worst_spectrum, float(np.max(np.abs(got - want))))
    report(
        10,
        worst_offdiag < 1e-12 and worst_spectrum < 1e-10,
        f"off-diagonal = {worst_offdiag:.2e}, spectrum gap = {worst_spectrum:.2e}",
    )
