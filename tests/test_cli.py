import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualent import cli
from dualent.cli import main, render_sweep_csv, sweep_rows
from dualent.deleting import SchmidtRankCheck
from dualent.qstate import SchmidtPair, _pair_entropy, schmidt_decompose, schmidt_ket


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
            main(["clone-bound", "--a", "-0.1"])
        assert exc.value.code == 2

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
        # 8.1e-10 above 1/sqrt(2), so a - b = 1.6e-9
        code, out, err = run_cli(capsys, "delete-bound", "--a", "0.707106782")
        assert (code, err) == (0, "")
        assert abs(float(parse_report(out.strip())["D_bound"]) - 2.0) < 1e-8

    def test_rounding_from_above_reads_as_typed(self, capsys):
        # a 8.1e-10 above 1/sqrt(2) is its own point, 2 - 2 log2(a sqrt(2)) +
        # O(1e-18) = 2 - 3.3e-9, just past the peak of the bound
        code, out, _ = run_cli(capsys, "delete-bound", "--a", "0.707106782")
        assert code == 0
        report = parse_report(out.strip())
        assert (report["a"], report["D_bound"]) == ("0.707106782", "1.999999997")

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

    @pytest.mark.parametrize("points", [2.5, True])
    def test_non_integral_points_rejected(self, points):
        # a float is refused, not a numpy TypeError, and True is not read as 1
        message = f"points must be integers, got ({points},)"
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_rows(points)


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
        # one ket, a|0> + b|1>, in place of the seeded draws
        code, out, _ = run_cli(capsys, "nogo", "measure-forget", "--a", "0.6")
        assert (code, out) == (0, "a=0.600000000 max_residual=0.000e+00 verdict=PASS\n")

    def test_distill_separable(self, capsys):
        code, out, _ = run_cli(capsys, "nogo", "distill", "--a", "0")
        assert code == 0
        report = parse_report(out.strip())
        assert report["contradiction"] == "false"
        assert report["verdict"] == "PASS"

    # at a = 1e-8 ... 8.2e-7, 0 < E(psi) < 3e-11: entangled, though ed_input prints as 0
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

    def test_entangled_exactly_at_schmidt_rank_two(self, capsys):
        # one rule decides psi: E > 0 exactly where the Schmidt rank is 2, in
        # the library and in both verdicts, also just above the rank's cutoff,
        # at a = 1e-10 and the next float
        points = np.r_[np.logspace(-14, 0, 57), 1e-10, np.nextafter(1e-10, 1.0)]
        for a in map(float, points):
            pair = SchmidtPair(a)
            rank = len(schmidt_decompose(schmidt_ket(pair)))
            assert (_pair_entropy(pair) > 0) == (rank == 2), a
            _, out, _ = run_cli(capsys, "nogo", "distill", "--a", repr(a))
            contradiction = parse_report(out.strip())["contradiction"] == "true"
            _, out, _ = run_cli(capsys, "nogo", "schmidt", "--a", repr(a))
            assert contradiction == (parse_report(out.strip())["rank_target"] == "2"), a

    def test_verdicts_check_the_other_rule(self, capsys, monkeypatch):
        # schmidt's verdict reads E, distill's the Schmidt rank, so a rule that
        # disagrees with the witness fails the verdict
        monkeypatch.setattr(cli, "_pair_entropy", lambda pair: 0.0)
        code, out, _ = run_cli(capsys, "nogo", "schmidt", "--a", "0.6")
        assert (code, parse_report(out.strip())["verdict"]) == (1, "FAIL")
        product = SchmidtRankCheck(rank_input=1, rank_target=1, deletable=True)
        monkeypatch.setattr(cli, "schmidt_rank_nogo_check", lambda pair: product)
        code, out, _ = run_cli(capsys, "nogo", "distill", "--a", "0.6")
        assert (code, parse_report(out.strip())["verdict"]) == (1, "FAIL")

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

    def test_delete_reads_the_rounded_symmetric_point_as_typed(self, capsys):
        # searched as its mirror, the swap seed scores the a given: the
        # bound's 2 - 3.3e-9, not the 2 of 1/sqrt(2)
        code, out, _ = run_cli(
            capsys, "variational", "delete", "--a", "0.707106782", "--restarts", "1", "--seed", "1"
        )
        assert code == 0
        report = parse_report(out.strip())
        assert report["best_objective"] == "1.999999996681"
        assert report["reference_bound"] == "1.999999996681"

    @pytest.mark.parametrize("kind", ["clone", "delete"])
    @pytest.mark.parametrize("restarts, seed", [("1", "-1"), ("3", "-1"), ("3", "-3")])
    def test_negative_seed_exits_2(self, capsys, kind, restarts, seed):
        argv = ["variational", kind, "--a", "0.5", "--restarts", restarts, "--seed", seed]
        assert run_cli(capsys, *argv) == (2, "", f"error: seed must be >= 0, got {seed}\n")

    def test_invalid_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["variational", "teleport", "--a", "0.5", "--restarts", "1", "--seed", "0"])
        assert exc.value.code != 0


FAMILY_COMMANDS = [
    ["clone-bound"],
    ["delete-bound"],
    ["variational", "delete", "--restarts", "1", "--seed", "1"],
    ["variational", "clone", "--restarts", "1", "--seed", "1"],
]


class TestFamilyRange:
    """Every command takes a in [0, 1]: past 1/sqrt(2) the family continues
    as the mirror of a <= 1/sqrt(2), and an a that ``SchmidtPair`` refuses is
    a usage error with the library's own message."""

    @pytest.mark.parametrize("argv", FAMILY_COMMANDS, ids=" ".join)
    def test_a_past_the_symmetric_point_is_answered(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--a", "0.8")
        assert (code, err) == (0, "")
        assert parse_report(out.strip())["a"] == "0.800000000"

    @pytest.mark.parametrize("argv", FAMILY_COMMANDS, ids=" ".join)
    def test_a_above_one_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--a", "1.5"])
        assert exc.value.code == 2
        message = "argument --a: Schmidt coefficient a = 1.5 outside [0, 1]\n"
        assert capsys.readouterr().err.endswith(message)


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
    Ket, LabeledState, SchmidtPair, clone_bound, clone_bound_combined,
    clone_objective, crossover, delete_bound, delete_objective, local_clone_pipeline,
    local_delete_swap, measure_forget_channel, min_over_product_pure,
    no_local_cloning_certificate, optimize_clone, optimize_delete, rho_clone_closed_form,
    schmidt_decompose, schmidt_rank_nogo_check,
)
from dualent.cli import main
from dualent.variational import cloner_seed_params, swap_delete_seed
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
    ["delete-bound", "--a", "0.8"],
]:
    assert main(argv) == 0, argv
pair, cloner = SchmidtPair(0.6), cloner_seed_params()
# the bounds' entropies, read from the Schmidt weights, against h(a^2) and h(a^2) - 2 log2 b
def h(w):
    return -(w * math.log2(w) + (1 - w) * math.log2(1 - w))
assert abs(clone_bound_combined(SchmidtPair(0.3)).e_r - h(0.09)) <= 1e-12
assert abs(delete_bound(pair) - (h(0.36) - 2 * math.log2(0.8))) <= 1e-12
assert abs(delete_bound(SchmidtPair(0.8)) - delete_bound(pair)) <= 1e-14
cert = no_local_cloning_certificate(pair)
assert abs(cert.ed_input - h(0.36)) <= 1e-12 and cert.contradiction
swap = delete_objective(pair, *swap_delete_seed())
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
# the four pipelines, and one decomposition's rank
_, copy1, copy2 = local_clone_pipeline(pair)
for copy in (copy1, copy2):
    assert abs(copy.matrix - rho_clone_closed_form(pair).matrix).max() <= 1e-12
assert abs(local_delete_swap(pair).objective - delete_bound(pair)) <= 1e-10
assert tuple(schmidt_rank_nogo_check(pair)) == (4, 2, False)
system_out, env_out = measure_forget_channel(Ket(np.array([0.6, 0.8]), (2,)))
assert abs(system_out.matrix - env_out.matrix).max() <= 1e-12
coefficients = schmidt_decompose(Ket(np.array([0.6, 0, 0, 0.8]), (2, 2)))
assert coefficients.dtype == np.float64 and len(coefficients) == 2
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
    assert "kind=delete a=0.707106782 best_objective=1.999999996681 " in done.stdout
    assert "a=0.800000000 E=0.942683189 D_bound=1.586539379\n" in done.stdout
    assert (tmp_path / "s.csv").read_text().count("\n") == 6


def test_import_loads_no_test_or_reference_library():
    # a guarded "try: import scipy" would pass the test above yet slow every
    # import of the library
    import dualent

    script = "import sys, dualent, dualent.cli\nprint(*{m.split('.')[0] for m in sys.modules})"
    env = dict(os.environ, PYTHONPATH=str(Path(dualent.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "dualent" in loaded
    assert loaded.isdisjoint({"scipy", "mpmath", "hypothesis", "pytest"})


# runs the README's python block statement by statement, keeping the value of
# each bare expression, then checks what the block's comments state
QUICKSTART = """
import ast
import math
import sys
namespace, shown = {}, []
for node in ast.parse(sys.argv[1]).body:
    if isinstance(node, ast.Expr):
        shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
    else:
        exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
clone, delete, combined, cross, ranks, bounded = shown
assert abs(clone - math.log2(12 / 7)) <= 1e-15 and abs(clone - 0.77760757866355) <= 1e-14
assert abs(delete - 2.0) <= 1e-15
assert combined.combined == combined.e_r < combined.s_clone
assert abs(combined.e_r - 0.43646981706410) <= 1e-14
assert f"{cross:.6f}" == "0.428265"
eta, copy1, copy2 = namespace["eta"], namespace["copy1"], namespace["copy2"]
assert eta.dims == (2,) * 6 and copy1.dims == copy2.dims == (2, 2)
assert f"{namespace['outcome'].objective:.4f}" == "1.5865"
assert tuple(ranks) == (4, 2, False)
assert bounded is True
assert "scipy" not in sys.modules
"""


def test_readme_quickstart_runs():
    import dualent

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(dualent.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", QUICKSTART, blocks[0]], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def readme_cli_examples():
    """``(argv, shown)`` for each ``dualent`` line of the README's sh blocks
    whose comment, on the line or the next, is a full ``key=value`` report."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = []
    for line, after in zip(lines, lines[1:]):
        command, _, comment = line.partition("#")
        if not command.startswith("dualent "):
            continue
        for shown in (comment.strip(), after.removeprefix("# ") * after.startswith("# ")):
            if re.fullmatch(r"\w+=\S+( \w+=\S+)*", shown):
                examples.append((command.split()[1:], shown))
    return examples


def test_readme_cli_examples(capsys):
    examples = readme_cli_examples()
    assert [argv[0] for argv, _ in examples] == [
        "clone-bound", "delete-bound", "delete-bound", "crossover", "nogo", "nogo", "nogo",
        "variational",
    ]
    for argv, shown in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, shown + "\n", ""), argv


PUBLIC_NAMES = [
    "CloneBoundRecord",
    "CloneIsometry",
    "CloningCertificate",
    "DeleteOutcome",
    "Ket",
    "LabeledState",
    "LocalUnitary",
    "SchmidtPair",
    "SchmidtRankCheck",
    "SearchReport",
    "clone_bound",
    "clone_bound_combined",
    "clone_objective",
    "crossover",
    "delete_bound",
    "delete_objective",
    "global_delete",
    "local_clone_pipeline",
    "local_delete_swap",
    "measure_forget_channel",
    "min_over_product_pure",
    "no_local_cloning_certificate",
    "optimize_clone",
    "optimize_delete",
    "param_to_unitary",
    "relative_entropy",
    "rho_clone_closed_form",
    "schmidt_decompose",
    "schmidt_ket",
    "schmidt_rank_nogo_check",
    "trace_out",
    "universal_clone_isometry",
    "von_neumann_entropy",
]
# names that versions 0.2.0 and 0.5.0 removed, by the module that defined them
REMOVED = {
    "nogo": ["KrausSet", "stinespring_isometry", "apply_kraus", "COMPLETENESS_TOL"],
    "qstate": [
        "entropy_of_entanglement",
        "rel_ent_entanglement_pure",
        "basis_ket",
        "dm_from_ket",
        "SchmidtDecomposition",
        "_pure_rel_entropy",
    ],
}


def test_public_surface():
    import dualent

    assert sorted(dualent.__all__) == PUBLIC_NAMES
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(dualent, name), name
            assert not hasattr(getattr(dualent, module), name), (module, name)
    assert not hasattr(dualent.LabeledState, "label_indices")
    # version 0.5.0 returns the Schmidt coefficients themselves, descending
    coefficients = dualent.schmidt_decompose(dualent.schmidt_ket(dualent.SchmidtPair(0.6)))
    assert coefficients.dtype == np.float64 and coefficients.tolist() == [0.8, 0.6]
    # version 0.4.0 stores a real-valued state or ket as float64, where 0.3.0 stored complex128
    ket = dualent.Ket(np.array([0.6, 0.8], dtype=complex), (2,))
    state = dualent.LabeledState(np.outer(ket.amplitudes, ket.amplitudes), (2,), ("A",))
    assert ket.amplitudes.dtype == state.matrix.dtype == np.float64
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert dualent.__version__ == "0.5.0"
    assert dualent.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)
