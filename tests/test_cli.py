import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualent.cli import main, render_sweep_csv, sweep_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(line):
    return dict(item.split("=", 1) for item in line.split())


class TestCloneBoundCommand:
    def test_symmetric_point(self, capsys):
        code, out, _ = run_cli(capsys, "clone-bound", "--a", "0.7071067812")
        assert code == 0
        report = parse_report(out.strip())
        assert report["combined"] == "0.777607579"  # log2(12/7) to 9 digits
        assert abs(float(report["E_R"]) - 1.0) < 1e-8

    def test_low_entanglement_point(self, capsys):
        code, out, _ = run_cli(capsys, "clone-bound", "--a", "0.3")
        report = parse_report(out.strip())
        assert code == 0
        assert abs(float(report["combined"]) - 0.436469817) < 1e-9

    def test_separable_limit(self, capsys):
        code, out, _ = run_cli(capsys, "clone-bound", "--a", "0.0001")
        assert code == 0
        assert float(parse_report(out.strip())["combined"]) < 1e-3

    def test_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["clone-bound", "--a", "0.8"])
        assert exc.value.code != 0

    def test_product_end_is_admitted(self, capsys):
        code, out, _ = run_cli(capsys, "clone-bound", "--a", "0")
        assert code == 0
        assert parse_report(out.strip())["combined"] == "0.000000000"


class TestDeleteBoundCommand:
    def test_symmetric_point(self, capsys):
        code, out, _ = run_cli(capsys, "delete-bound", "--a", "0.7071067812")
        assert code == 0
        assert parse_report(out.strip())["D_bound"] == "2.000000000"

    def test_every_admitted_a_is_accepted(self, capsys):
        # 8.1e-10 above 1/sqrt(2), so a - b = 1.6e-9: inside the CLI's slack
        code, out, err = run_cli(capsys, "delete-bound", "--a", "0.707106782")
        assert (code, err) == (0, "")
        assert abs(float(parse_report(out.strip())["D_bound"]) - 2.0) < 1e-8

    def test_rounding_from_above_reads_as_the_symmetric_point(self, capsys):
        # a 8.1e-10 above 1/sqrt(2) is read as 1/sqrt(2), so the bound is 2
        code, out, _ = run_cli(capsys, "delete-bound", "--a", "0.707106782")
        assert code == 0
        report = parse_report(out.strip())
        assert (report["a"], report["D_bound"]) == ("0.707106781", "2.000000000")

    def test_product_end_is_admitted(self, capsys):
        code, out, _ = run_cli(capsys, "delete-bound", "--a", "0")
        assert code == 0
        assert parse_report(out.strip())["D_bound"] == "0.000000000"


class TestSweepCommand:
    def test_two_point_sweep(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--points", "2", "--out", str(path))
        assert code == 0
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "a,E_R,S_clone,C_bound,D_bound"
        assert len(lines) == 3
        assert text.endswith("\n")
        assert lines[-1].split(",")[4] == "2.000000000"

    def test_rows_ordered_and_dominated(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--points", "40", "--out", str(path))
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 40
        for row in rows:
            a, e_r, s_clone, c_bound, d_bound = map(float, row)
            assert d_bound >= c_bound
            assert abs(c_bound - min(e_r, s_clone)) < 1e-9

    def test_byte_determinism(self, capsys, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        run_cli(capsys, "sweep", "--points", "25", "--out", str(first))
        run_cli(capsys, "sweep", "--points", "25", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_csv_roundtrips_to_nine_digits(self, capsys, tmp_path):
        rows = sweep_rows(10)
        text = render_sweep_csv(10)
        for row, line in zip(rows, text.splitlines()[1:]):
            values = list(map(float, line.split(",")))
            assert abs(values[1] - row.e_r) < 5e-10
            assert abs(values[4] - row.d_bound) < 5e-10

    def test_unwritable_path_fails(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--points", "2", "--out", "/nonexistent/dir/x.csv")
        assert code != 0
        assert "cannot write" in err

    def test_too_few_points_fails(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--points", "1", "--out", "/tmp/x.csv")
        assert code != 0


class TestCrossoverCommand:
    def test_value_and_determinism(self, capsys):
        code, out, _ = run_cli(capsys, "crossover")
        assert code == 0
        value = float(parse_report(out.strip())["crossover"])
        assert 0.4272 <= value <= 0.4292
        _, again, _ = run_cli(capsys, "crossover")
        assert again == out

    def test_six_fraction_digits(self, capsys):
        _, out, _ = run_cli(capsys, "crossover")
        printed = parse_report(out.strip())["crossover"]
        assert len(printed.split(".")[1]) == 6


class TestNogoCommand:
    def test_schmidt_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "nogo", "schmidt", "--a", "0.6")
        assert code == 0
        report = parse_report(out.strip())
        assert report["rank_input"] == "4"
        assert report["rank_target"] == "2"
        assert report["note"] == "FAIL-to-delete"
        assert report["verdict"] == "PASS"

    # up to a = 1e-10 psi has Schmidt rank 1, so it is product and deletable
    @pytest.mark.parametrize("a", ["0", "1e-11", "1e-10"])
    def test_schmidt_product(self, capsys, a):
        code, out, _ = run_cli(capsys, "nogo", "schmidt", "--a", a)
        assert code == 0
        report = parse_report(out.strip())
        assert report["deletable"] == "true"
        assert report["verdict"] == "PASS"

    def test_measure_forget(self, capsys):
        code, out, _ = run_cli(capsys, "nogo", "measure-forget")
        assert code == 0
        report = parse_report(out.strip())
        assert float(report["max_residual"]) < 1e-12
        assert report["verdict"] == "PASS"

    def test_distill_separable(self, capsys):
        code, out, _ = run_cli(capsys, "nogo", "distill", "--a", "0")
        assert code == 0
        report = parse_report(out.strip())
        assert report["contradiction"] == "false"
        assert report["verdict"] == "PASS"

    # at a = 1e-8 ... 8.2e-7, 0 < E(psi) <= 1e-12: entangled, though ed_input prints as 0
    @pytest.mark.parametrize("a", ["0.6", "1e-8", "1e-7", "8.2e-7"])
    def test_distill_entangled(self, capsys, a):
        code, out, _ = run_cli(capsys, "nogo", "distill", "--a", a)
        assert code == 0
        report = parse_report(out.strip())
        assert report["contradiction"] == "true"
        assert report["verdict"] == "PASS"
        assert abs(float(report["ed_required"]) - 2 * float(report["ed_input"])) < 1e-8

    def test_verdicts_pass_across_the_product_limit(self, capsys):
        for a in np.logspace(-14, 0, 57):
            for which in ("schmidt", "distill"):
                code, out, _ = run_cli(capsys, "nogo", which, "--a", str(float(a)))
                assert (code, parse_report(out.strip())["verdict"]) == (0, "PASS"), (which, a)

    def test_unknown_selector_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nogo", "everything"])
        assert exc.value.code != 0


class TestVariationalCommand:
    def test_delete_product_input(self, capsys):
        # both families reach exactly 0 on the product input, printed
        # without the sign that round-off below zero would give
        for kind in ("delete", "clone"):
            code, out, _ = run_cli(
                capsys, "variational", kind, "--a", "0", "--restarts", "2", "--seed", "1"
            )
            assert code == 0
            report = parse_report(out.strip())
            assert report["best_objective"] == "0.000000000000"
            assert report["verdict"] == "PASS"

    def test_same_seed_same_bytes(self, capsys):
        argv = ["variational", "delete", "--a", "0.5", "--restarts", "2", "--seed", "3"]
        code_one, first, _ = run_cli(capsys, *argv)
        code_two, second, _ = run_cli(capsys, *argv)
        assert code_one == code_two == 0
        assert first == second

    @pytest.mark.parametrize("kind", ["clone", "delete"])
    def test_report_keys_in_order(self, capsys, kind):
        code, out, _ = run_cli(
            capsys, "variational", kind, "--a", "0.6", "--restarts", "1", "--seed", "1"
        )
        assert code == 0
        assert [item.partition("=")[0] for item in out.split()] == [
            "kind", "a", "best_objective", "reference_bound", "restarts_used", "seed", "verdict"
        ]

    def test_delete_accepts_the_rounded_symmetric_point(self, capsys):
        code, out, err = run_cli(
            capsys, "variational", "delete", "--a", "0.707106782", "--restarts", "1", "--seed", "1"
        )
        assert (code, err) == (0, "")
        assert parse_report(out.strip())["verdict"] == "PASS"

    def test_delete_reads_the_rounded_symmetric_point_as_it(self, capsys):
        # above 1/sqrt(2) the swap's best product target would be |00>, not
        # the |11> the search scores, and its score would exceed 2
        code, out, _ = run_cli(
            capsys, "variational", "delete", "--a", "0.707106782", "--restarts", "1", "--seed", "1"
        )
        assert code == 0
        assert parse_report(out.strip())["best_objective"] == "2.000000000000"

    @pytest.mark.parametrize("kind", ["clone", "delete"])
    def test_a_above_the_family_range_is_usage_error(self, kind):
        # the bound commands reject this a too: the family has b >= a
        with pytest.raises(SystemExit) as exc:
            main(["variational", kind, "--a", "0.8", "--restarts", "1", "--seed", "1"])
        assert exc.value.code != 0

    def test_invalid_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["variational", "teleport", "--a", "0.5", "--restarts", "1", "--seed", "0"])
        assert exc.value.code != 0


# A None entry in sys.modules makes every scipy (and mpmath, which only the
# oracle tests use) import raise ImportError.  The script runs every CLI
# subcommand and checks the bounds' entropies, the seeds' objectives and the
# product minimum's rank forms; the sweep writes to the path given as its
# argument.  CI's "Runtime without scipy" step runs this test with scipy
# uninstalled.
WITHOUT_SCIPY = """
import math
import sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
import numpy as np
from dualent import (
    Ket, LabeledState, LocalUnitary, SchmidtPair, clone_bound, clone_bound_combined,
    clone_objective, crossover, delete_bound, delete_objective, local_clone_pipeline,
    local_delete_swap, measure_forget_channel, min_over_product_pure,
    no_local_cloning_certificate, optimize_clone, optimize_delete, rho_clone_closed_form,
    schmidt_decompose, schmidt_rank_nogo_check,
)
from dualent.cli import main
from dualent.deleting import swap_gate
from dualent.variational import cloner_seed_params
assert abs(crossover() - 0.4282653373032336) < 1e-7
for argv in [
    ["crossover"],
    ["clone-bound", "--a", "0.3"],
    ["delete-bound", "--a", "0.6"],
    ["sweep", "--points", "5", "--out", sys.argv[1]],
    ["nogo", "schmidt"],
    ["nogo", "measure-forget"],
    ["nogo", "distill"],
    ["variational", "delete", "--a", "0.6", "--restarts", "5", "--seed", "1"],
    ["variational", "clone", "--a", "0.6", "--restarts", "5", "--seed", "1"],
    ["variational", "delete", "--a", "0.707106782", "--restarts", "1", "--seed", "1"],
]:
    assert main(argv) == 0, argv
pair, cloner = SchmidtPair(0.6), cloner_seed_params()
# the bounds' entropies, read from the Schmidt weights, against h(a^2) and h(a^2) - 2 log2 b
def h(w):
    return -(w * math.log2(w) + (1 - w) * math.log2(1 - w))
assert abs(clone_bound_combined(SchmidtPair(0.3)).e_r - h(0.09)) <= 1e-12
assert abs(delete_bound(pair) - (h(0.36) - 2 * math.log2(0.8))) <= 1e-12
cert = no_local_cloning_certificate(pair)
assert abs(cert.ed_input - h(0.36)) <= 1e-12 and cert.contradiction
swap = delete_objective(pair, LocalUnitary(swap_gate()), LocalUnitary(np.eye(4)))
assert abs(swap - delete_bound(pair)) <= 1e-12
assert abs(clone_objective(pair, cloner, cloner) - clone_bound(pair)) <= 1e-12
for search in (optimize_delete, optimize_clone):
    report = search(SchmidtPair(0.6), restarts=1, seed=1, max_evals=60)
    assert report.best_objective < float("inf")
# the product minimum's rank forms: a double root at rank 2, a product null
# vector at rank 3
a, b = np.zeros((4, 4)), np.zeros((4, 4))
a[np.ix_([0, 3], [0, 3])] = 0.375
a[1, 1] = 0.25
b[np.ix_([1, 2], [1, 2])] = 0.3
b[1, 1] += 0.1
b[3, 3] = 0.3
values = [min_over_product_pure(LabeledState(m, (2, 2), ("A", "B")))[0] for m in (a, b)]
assert abs(values[0] - 2.0) <= 1e-12 and abs(values[1] - 1.7369655941662063) <= 1e-12
# the four pipelines, and one decomposition's bases read
_, copy1, copy2 = local_clone_pipeline(pair)
for copy in (copy1, copy2):
    assert abs(copy.matrix - rho_clone_closed_form(pair).matrix).max() <= 1e-12
assert abs(local_delete_swap(pair).objective - delete_bound(pair)) <= 1e-10
assert tuple(schmidt_rank_nogo_check(pair)) == (4, 2, False)
system_out, env_out = measure_forget_channel(Ket(np.array([0.6, 0.8]), (2,)))
assert abs(system_out.matrix - env_out.matrix).max() <= 1e-12
dec = schmidt_decompose(Ket(np.array([0.6, 0, 0, 0.8]), (2, 2)))
assert len(dec.left_basis) == len(dec.right_basis) == dec.rank == 2
"""


def test_library_runs_without_scipy(tmp_path):
    import dualent

    env = dict(os.environ, PYTHONPATH=str(Path(dualent.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path / "s.csv")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("crossover=0.428265\n")
    assert "combined=" in done.stdout
    assert "kind=delete a=0.707106781 best_objective=2.000000000000 " in done.stdout
    assert (tmp_path / "s.csv").read_text().count("\n") == 6
