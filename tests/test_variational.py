import math
import re

import numpy as np
import pytest
from conftest import haar_unitary, projector

from dualent.cloning import _clone_inputs, clone_bound, clone_bound_combined, rho_clone_closed_form
from dualent.deleting import _delete_inputs, delete_bound, local_delete_swap
from dualent.qstate import Ket, SchmidtPair, relative_entropy, trace_out
from dualent.variational import (
    _SYMMETRIC,
    LocalUnitary,
    _exp_i,
    _generator_map,
    _hermitian,
    clone_objective,
    cloner_seed_params,
    delete_objective,
    optimize_clone,
    optimize_delete,
    param_to_unitary,
    swap_delete_seed,
)

SYM = 1 / math.sqrt(2)
GRID_20 = np.linspace(0.01, SYM, 20)
# unit tests keep the search budget small; the spec-level budget is
# exercised by the acceptance suite
FAST_EVALS = 250


def _unitaries(x, n):
    """exp(iH(x)) for each row x (..., n^2) of generator coordinates on the
    whole map: the diagonal, then (re, im) of the upper triangle row by row."""
    return _exp_i(_hermitian(x, _generator_map(n, n), n))


class TestParameterisation:
    """exp(iH(x)), as the searches build their starts and steps."""

    def test_zero_gives_identity(self):
        for n in (2, 4, 8):
            u = _unitaries(np.zeros(n * n), n)
            assert np.max(np.abs(u - np.eye(n))) < 1e-12

    def test_random_params_give_unitary(self):
        rng = np.random.default_rng(79)
        for n in (2, 4, 8):
            u = _unitaries(rng.uniform(-math.pi, math.pi, n * n), n)
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10

    def test_generator_layout_matches_loop_reference(self):
        # diagonal first, then (re, im) of the upper triangle row by row
        rng = np.random.default_rng(89)
        for n in (2, 4, 8):
            thetas = rng.standard_normal(n * n)
            expected = np.diag(thetas[:n]).astype(complex)
            k = n
            for i in range(n):
                for j in range(i + 1, n):
                    expected[i, j] = thetas[k] + 1j * thetas[k + 1]
                    expected[j, i] = thetas[k] - 1j * thetas[k + 1]
                    k += 2
            assert np.array_equal(_hermitian(thetas, _generator_map(n, n), n), expected)

    def test_non_square_length_rejected(self):
        with pytest.raises(ValueError, match="square"):
            LocalUnitary(np.zeros(5))

    def test_swap_seed_reproduces_swap(self):
        # the seed is the analytic machine itself, byte for byte
        alice, bob = swap_delete_seed()
        assert param_to_unitary(alice).tobytes() == np.eye(4, dtype=complex)[[0, 2, 1, 3]].tobytes()
        assert param_to_unitary(bob).tobytes() == np.eye(4, dtype=complex).tobytes()


def _elementwise_read_off(k, n):
    """Re tr(K^dag dH) at each parameter's dH, entry by entry: the diagonal,
    then (re, im) of the upper triangle row by row."""
    rows, cols = np.triu_indices(n, 1)
    upper, lower = k[..., rows, cols], k[..., cols, rows]
    grad = np.empty(k.shape[:-2] + (n * n,))
    grad[..., :n] = np.diagonal(k, axis1=-2, axis2=-1).real
    grad[..., n::2] = (upper + lower).real
    grad[..., n + 1 :: 2] = (upper - lower).imag
    return grad


class TestGeneratorMap:
    """The chart that assembles generators from parameter rows and reads
    gradients back, against the entry-by-entry layout, bit for bit."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_read_off_matches_elementwise_reference(self, n):
        rng = np.random.default_rng(139)
        k = rng.standard_normal((10, n, n)) + 1j * rng.standard_normal((10, n, n))
        got = k.reshape(10, n * n).view(float) @ _generator_map(n, n).T
        assert got.tobytes() == _elementwise_read_off(k, n).tobytes()

    # the chart of rows i < k holds the full map's rows free: the diagonal
    # entries 0, ..., k - 1 and the upper-triangle pairs of rows 0, ..., k - 1
    @pytest.mark.parametrize(
        "n, free", [(4, np.r_[:4, 4:16]), (4, np.r_[:2, 4:14]), (6, np.r_[:2, 6:24])]
    )
    def test_free_rows_match_the_full_map(self, n, free):
        # so a start assembled from its free coordinates alone is the
        # generator of the same coordinates scattered into zeros, bit for bit
        rng = np.random.default_rng(149)
        full, rows = _generator_map(n, n), _generator_map(n, np.count_nonzero(free < n))
        assert rows.tobytes() == full[free].tobytes() and not rows.flags.writeable
        columns = np.concatenate([free, n * n + free])  # the (A, B) pair's parameters
        k = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        read_full = (k.reshape(6, n * n).view(float) @ full.T).reshape(3, -1)
        read_free = (k.reshape(6, n * n).view(float) @ rows.T).reshape(3, -1)
        assert read_free.tobytes() == np.ascontiguousarray(read_full[:, columns]).tobytes()
        xs = rng.standard_normal((3, 2 * free.size))
        thetas = np.zeros((3, 2 * n * n))
        thetas[:, columns] = xs
        assembled = _hermitian(xs.reshape(6, -1), rows, n)
        scattered = _hermitian(thetas.reshape(6, n * n), full, n)
        assert assembled.tobytes() == scattered.tobytes()


class TestLocalUnitary:
    """The public machine record: one n x n unitary, to 1e-12 in each entry
    of U^dag U - I, as each search's final machines are (their drift is
    about 3e-14 on the acceptance grid)."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_holds_the_unitary_it_is_given(self, n):
        u = _random_unitary(np.random.default_rng(151), n)
        record = LocalUnitary(u)
        assert record.dim == n and record.matrix.tobytes() == u.tobytes()
        assert param_to_unitary(record) is record.matrix

    def test_rejects_what_is_not_a_unitary(self):
        rng = np.random.default_rng(157)
        u = _random_unitary(rng, 4)
        nan, inf = u.copy(), u.copy()
        nan[1, 2], inf[3, 0] = np.nan, np.inf
        bad = {
            "non-square": u[:, :3],
            "nan": nan,
            "inf": inf,
            "twice the identity": 2.0 * np.eye(4),
            "perturbed by 1e-9": u + 1e-9 * rng.standard_normal((4, 4)),
        }
        for matrix in bad.values():
            with pytest.raises(ValueError):
                LocalUnitary(matrix)


class TestSeeds:
    def test_cloner_seed_reaches_the_cloner(self):
        # S maps the seed's first two columns back onto the cloner, and the
        # completed seed is unitary, both to round-off
        from dualent.cloning import universal_clone_isometry

        u = param_to_unitary(cloner_seed_params())
        assert u.shape == (6, 6)
        assert np.max(np.abs(_SYMMETRIC @ u[:, :2] - universal_clone_isometry().matrix)) <= 1e-15
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-15

    def test_cloner_seed_objective_matches_bound(self):
        pair = SchmidtPair(0.6)
        seed = cloner_seed_params()
        assert abs(clone_objective(pair, seed, seed) - clone_bound(pair)) < 1e-12

    def test_copier_seed_realises_entropy_branch(self):
        # the identity, which S turns into |x> -> |xx>|0>
        pair = SchmidtPair(0.6)
        seed = LocalUnitary(np.eye(6))
        h = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))
        assert abs(clone_objective(pair, seed, seed) - h) < 1e-9

    def test_swap_seed_objective_matches_swap_machine(self):
        # the seed is the matrix pair local_delete_swap runs, so the two
        # scores are equal, not merely close
        for a in np.linspace(0.01, SYM, 50):
            pair = SchmidtPair(float(a))
            assert delete_objective(pair, *swap_delete_seed()) == local_delete_swap(pair).objective
        value = delete_objective(SchmidtPair(0.6), *swap_delete_seed())
        assert abs(value - 1.5865393790302167) < 1e-6

    def test_public_seeds_are_where_the_searches_start(self, monkeypatch):
        from dualent import variational

        starts, bfgs = [], variational._bfgs

        def spy_bfgs(start, size, max_evals):
            starts.append(start)
            return bfgs(start, size, max_evals)

        monkeypatch.setattr(variational, "_bfgs", spy_bfgs)
        optimize_delete(SchmidtPair(0.6), restarts=2, seed=1, max_evals=1)
        optimize_clone(SchmidtPair(0.6), restarts=2, seed=1, max_evals=1)
        alice, bob = swap_delete_seed()
        cloner, copier = cloner_seed_params(), np.eye(6, dtype=complex)
        want = [
            (alice.matrix, bob.matrix),
            (bob.matrix, alice.matrix),
            (cloner.matrix, cloner.matrix),
            (copier, copier),
        ]
        assert [start.tobytes() for start in starts] == [np.array(w).tobytes() for w in want]

    def test_search_inputs_are_built_once(self, monkeypatch):
        # each family's chart and starts are read-only module arrays; a
        # search reads them and rebuilds neither public seed
        from dualent import variational

        families = [(variational._DELETE, 4, 16), (variational._CLONE, 6, 20)]
        for (_, chart, seeds), n, rows in families:
            assert chart.dtype == np.float64 and chart.shape == (rows, 2 * n * n)
            assert seeds.dtype == np.complex128 and seeds.shape == (2, 2, n, n)
            assert not chart.flags.writeable and not seeds.flags.writeable

        def refuse():
            raise AssertionError("a search rebuilt a seed")

        monkeypatch.setattr(variational, "swap_delete_seed", refuse)
        monkeypatch.setattr(variational, "cloner_seed_params", refuse)
        for search in (optimize_delete, optimize_clone):
            for a in (0.6, 0.8):
                search(SchmidtPair(a), restarts=3, seed=1, max_evals=2)

    def test_pair_inputs_are_built_once_per_search(self, monkeypatch):
        # each search builds its family's inputs once, at its start, and no
        # round is handed the pair itself; a > b runs as its mirror
        from dualent import variational

        built, handed = [], []
        evaluate = variational._stacked_values_and_gradients

        def spy_evaluate(inputs, *args):
            handed.append(inputs)
            return evaluate(inputs, *args)

        def counted(name):
            build = getattr(variational, name)

            def spy_build(pair):
                built.append(name)
                return build(pair)

            return spy_build

        families = {optimize_delete: "_delete_inputs", optimize_clone: "_clone_inputs"}
        monkeypatch.setattr(variational, "_stacked_values_and_gradients", spy_evaluate)
        for name in families.values():
            monkeypatch.setattr(variational, name, counted(name))
        for search, name in families.items():
            for a in (0.3, 0.8):
                built.clear()
                search(SchmidtPair(a), restarts=5, seed=1, max_evals=20)
                assert built == [name]
        assert len(handed) > 4 and not any(isinstance(x, SchmidtPair) for x in handed)

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    def test_seeds_share_no_random_start(self, monkeypatch, search):
        # restart r draws from its own stream (seed, r): with seed + r, restart
        # 4 of seed 1 was restart 2 of seed 3, the same run twice
        from dualent import variational

        starts, bfgs = [], variational._bfgs

        def spy_bfgs(start, size, max_evals):
            starts.append(start.tobytes())
            return bfgs(start, size, max_evals)

        monkeypatch.setattr(variational, "_bfgs", spy_bfgs)
        drawn = []
        for seed in (1, 3):
            starts.clear()
            search(SchmidtPair(0.5), restarts=5, seed=seed, max_evals=1)
            drawn.append(set(starts[2:]))
        assert len(drawn[0]) == len(drawn[1]) == 3 and not drawn[0] & drawn[1]

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_later_starts_are_steps(self, monkeypatch, kind):
        # restarts 2 and 4 step from the first seed, restart 3 from the
        # identity, with coordinates drawn from default_rng((seed, r)); the
        # steps move the generator rows i < 4 (deleting) or i < 2 (cloning)
        from dualent import variational

        if kind == "delete":
            search, n, k = optimize_delete, 4, 4
            first = np.array([machine.matrix for machine in swap_delete_seed()])
        else:
            search, n, k = optimize_clone, 6, 2
            first = np.array([cloner_seed_params().matrix] * 2)

        starts, bfgs = [], variational._bfgs

        def spy_bfgs(start, size, max_evals):
            starts.append(start)
            return bfgs(start, size, max_evals)

        monkeypatch.setattr(variational, "_bfgs", spy_bfgs)
        search(SchmidtPair(0.6), restarts=5, seed=4, max_evals=1)
        generators = _generator_map(n, k)
        size = 2 * len(generators)

        def step(x):
            return _exp_i(_hermitian(x.reshape(2, -1), generators, n))

        for r in (2, 4):
            xi = np.random.default_rng((4, r)).standard_normal(size)
            want = first @ step(0.2 * xi)
            assert starts[r].tobytes() == want.tobytes()
        x = np.random.default_rng((4, 3)).uniform(-math.pi, math.pi, size)
        assert starts[3].tobytes() == step(x).tobytes()


class TestDeleteObjective:
    def test_identity_machine_is_infinite_for_entangled_input(self):
        identity = LocalUnitary(np.eye(4))
        assert math.isinf(delete_objective(SchmidtPair(0.6), identity, identity))

    def test_identity_machine_on_product_input(self):
        identity = LocalUnitary(np.eye(4))
        assert abs(delete_objective(SchmidtPair(0.0), identity, identity)) < 1e-12

    def test_wrong_parameter_size_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            delete_objective(SchmidtPair(0.6), LocalUnitary(np.eye(2)), LocalUnitary(np.eye(4)))


class TestCloneObjective:
    def test_wrong_parameter_size_rejected(self):
        with pytest.raises(ValueError, match="6x6"):
            clone_objective(SchmidtPair(0.6), LocalUnitary(np.eye(8)), LocalUnitary(np.eye(6)))

    def test_random_machines_give_equal_copies(self):
        rng = np.random.default_rng(109)
        for a in (0.0, 0.3, 0.6, SYM):
            for _ in range(5):
                u_a, u_b = _random_unitary(rng, 6), _random_unitary(rng, 6)
                copy1, copy2 = _explicit_clone_copies(SchmidtPair(a), u_a, u_b)
                assert np.max(np.abs(copy1 - copy2)) <= 1e-14


class TestOptimizeDelete:
    def test_never_beats_reference_wrongly(self):
        report = optimize_delete(SchmidtPair(SYM), restarts=3, seed=2, max_evals=FAST_EVALS)
        assert report.best_objective <= 2.0 + 1e-6
        assert report.reference_bound == delete_bound(SchmidtPair(SYM))

    def test_a06_bounded_by_swap(self):
        report = optimize_delete(SchmidtPair(0.6), restarts=3, seed=5, max_evals=FAST_EVALS)
        assert report.best_objective <= 1.5865393790302167 + 1e-6

    def test_product_input_is_free(self):
        report = optimize_delete(SchmidtPair(0.0), restarts=2, seed=1, max_evals=FAST_EVALS)
        assert report.best_objective <= 1e-6

    def test_deterministic(self):
        first = optimize_delete(SchmidtPair(0.5), restarts=3, seed=11, max_evals=FAST_EVALS)
        second = optimize_delete(SchmidtPair(0.5), restarts=3, seed=11, max_evals=FAST_EVALS)
        assert first.best_objective == second.best_objective
        for p, q in zip(first.best_params, second.best_params):
            assert p.matrix.tobytes() == q.matrix.tobytes()

    def test_restart_validation(self):
        for search in (optimize_delete, optimize_clone):
            with pytest.raises(ValueError, match=r"^restarts must be >= 1, got 0$"):
                search(SchmidtPair(0.5), restarts=0, seed=1)

    def test_infinite_start_stalls_at_once(self):
        # identity machines leave psi on A'B', and the target |11> leaks off its
        # support: the first value is inf, so the run stops without a step
        from dualent.variational import RestartRecord, _delete_objectives_grad, _search

        seeds = np.array([[np.eye(4, dtype=complex)] * 2])
        chart = _generator_map(4, 4)
        inputs = _delete_inputs(SchmidtPair(0.6))
        report = _search(inputs, _delete_objectives_grad, chart, seeds, 0.0, 1, 0, 10)
        stalled = RestartRecord("seed", nfev=1, nit=0, exit="stalled", objective=math.inf)
        assert report.restart_records == (stalled,)


@pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
class TestSeedValidation:
    # restart r once drew from default_rng(seed + r), so a negative seed ran
    # or failed depending on how many restarts there were
    @pytest.mark.parametrize("restarts", [1, 5])
    def test_negative_seed_rejected(self, search, restarts):
        for a in (0.5, 0.8):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
                search(SchmidtPair(a), restarts=restarts, seed=-1, max_evals=5)

    def test_seed_zero_runs(self, search):
        report = search(SchmidtPair(0.5), restarts=5, seed=0, max_evals=5)
        assert (report.seed, report.restarts_used) == (0, 5)


@pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
class TestBudgetValidation:
    # a budget below 1 used to run, and each restart spent one evaluation over it
    @pytest.mark.parametrize("max_evals", [0, -5])
    def test_budget_below_one_rejected(self, search, max_evals):
        for a in (0.5, 0.8):
            with pytest.raises(ValueError, match=rf"^max_evals must be >= 1, got {max_evals}$"):
                search(SchmidtPair(a), restarts=3, seed=1, max_evals=max_evals)

    def test_budget_of_one_runs_one_evaluation_per_restart(self, search):
        report = search(SchmidtPair(0.5), restarts=3, seed=1, max_evals=1)
        assert [record.nfev for record in report.restart_records] == [1, 1, 1]
        # numpy integers are integers
        report = search(SchmidtPair(0.5), np.int64(3), np.int32(1), max_evals=np.int64(1))
        assert [record.nfev for record in report.restart_records] == [1, 1, 1]
        assert (report.restarts_used, report.seed) == (3, 1)

    # a fractional budget used to run and a NaN one to be ignored; a float
    # restart count failed in the restart loop, a float seed ran at
    # restarts=2 and reported itself, and restarts=True ran one restart
    @pytest.mark.parametrize(
        "counts",
        [(3, 1, 1.5), (3, 1, math.nan), (2.0, 1, 5), (2, 1.5, 5), (True, 1, 5), (1, np.True_, 2)],
    )
    def test_non_integral_counts_rejected(self, search, counts):
        message = f"restarts, seed and max_evals must be integers, got {counts}"
        for a in (0.5, 0.8):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                search(SchmidtPair(a), *counts[:2], max_evals=counts[2])


class TestOptimizeClone:
    def test_symmetric_point_bounded(self):
        report = optimize_clone(SchmidtPair(SYM), restarts=2, seed=3, max_evals=FAST_EVALS)
        assert report.best_objective <= math.log2(12 / 7) + 1e-6

    def test_product_input_exactly_clonable(self):
        report = optimize_clone(SchmidtPair(0.0), restarts=2, seed=1, max_evals=FAST_EVALS)
        assert report.best_objective <= 1e-6

    def test_a03_bounded(self):
        report = optimize_clone(SchmidtPair(0.3), restarts=2, seed=9, max_evals=FAST_EVALS)
        assert report.best_objective <= 0.619997096170148 + 1e-6

    def test_copier_seed_bounds_by_the_combined_bound(self):
        # the copier is a stationary point scoring E_R in one evaluation, so
        # with both seeds the best never ends above min(E_R, S_clone); the
        # largest excess measured on this grid was 4.4e-16
        for a in [*GRID_20, 0.0, 0.001, 0.05, 0.8, 0.99, 1.0]:
            pair = SchmidtPair(float(a))
            report = optimize_clone(pair, restarts=2, seed=1, max_evals=1)
            assert report.best_objective <= clone_bound_combined(pair).combined + 1e-12

    def test_copies_nearly_symmetric_at_optimum(self):
        report = optimize_clone(SchmidtPair(0.55), restarts=3, seed=4, max_evals=FAST_EVALS)
        u_a, u_b = (param_to_unitary(p) for p in report.best_params)
        copy1, copy2 = _explicit_clone_copies(SchmidtPair(0.55), u_a, u_b)
        assert np.max(np.abs(copy1 - copy2)) <= 1e-14

    def test_deterministic(self):
        first = optimize_clone(SchmidtPair(0.4), restarts=2, seed=8, max_evals=FAST_EVALS)
        second = optimize_clone(SchmidtPair(0.4), restarts=2, seed=8, max_evals=FAST_EVALS)
        assert first.best_objective == second.best_objective

    def test_search_never_leaves_the_chart(self, monkeypatch):
        # every generator a round builds moves only rows 0 and 1 (and their
        # conjugate columns): its (2:, 2:) block is exactly zero; the
        # reported records are the winner's final machine
        pair = SchmidtPair(0.45)
        report, sent, finals = _spied_search(monkeypatch, optimize_clone, pair, 5, 1)
        generators = np.concatenate(sent)
        assert not generators[:, 2:, 2:].any()
        assert generators[:, :2, 2:].any()
        for record, machine in zip(report.best_params, finals[report.winner]):
            assert record.matrix.tobytes() == machine.tobytes()

    @pytest.mark.parametrize("a, below", [(0.3, 0.30), (0.5, 0.60)])
    def test_finds_machines_below_the_closed_forms(self, a, below):
        # clone_bound_combined gives 0.436 at a = 0.3 and 0.723 at a = 0.5
        report = optimize_clone(SchmidtPair(a), restarts=5, seed=1)
        assert report.best_objective < below


def _random_unitary(rng, n):
    return _unitaries(rng.uniform(-math.pi, math.pi, n * n), n)


def _random_bases(rng, count, n):
    """A (count, 2, n, n) stack of random machine pairs."""
    return np.array([[_random_unitary(rng, n) for _ in range(2)] for _ in range(count)])


def _spied_search(monkeypatch, search, pair, restarts, seed, max_evals=FAST_EVALS):
    """Run ``search`` at ``max_evals``, recording the (2 m, n, n) stacks of
    generators H_A, H_B its rounds build from the steps its runs send,
    and the final (U_A, U_B) machine each restart's BFGS run returns."""
    from dualent import variational

    sent, finals = [], []
    evaluate, bfgs = variational._stacked_values_and_gradients, variational._bfgs

    def spy_evaluate(inputs, kernel, machines, steps, generators):
        n = machines.shape[-1]
        h = (steps.reshape(-1, len(generators)) @ generators).view(complex)
        sent.append(h.reshape(-1, n, n))
        return evaluate(inputs, kernel, machines, steps, generators)

    def spy_bfgs(start, size, max_evals):
        # the runs are made in restart order, and end in any order
        final = []
        finals.append(final)
        result = yield from bfgs(start, size, max_evals)
        final.extend(result[0])
        return result

    monkeypatch.setattr(variational, "_stacked_values_and_gradients", spy_evaluate)
    monkeypatch.setattr(variational, "_bfgs", spy_bfgs)
    report = search(pair, restarts=restarts, seed=seed, max_evals=max_evals)
    return report, sent, [tuple(final) for final in finals]


def _explicit_clone_copies(pair, u_a, u_b):
    """Both copies of the six-qubit output kron(S U_A[:, :2], S U_B[:, :2])
    psi, traced out register by register."""
    psi = np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)
    machine = np.kron(_SYMMETRIC @ u_a[:, :2], _SYMMETRIC @ u_b[:, :2])
    t = (machine @ psi).reshape((2,) * 6)  # (A, A', Ae, B, B', Be)
    copy1 = np.einsum("apebqf,cpedqf->abcd", t, t.conj()).reshape(4, 4)
    copy2 = np.einsum("apebqf,arebsf->pqrs", t, t.conj()).reshape(4, 4)
    return copy1, copy2


class TestMachineKernels:
    """The shared circuit against explicit V_A (x) V_B references, and its adjoint."""

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_local_output_matches_kron_reference(self, kind):
        # the input as a vector over (Alice, Bob): psi (x) psi over (AA', BB')
        # for deleting, psi for cloning, whose isometries are S U[:, :2]
        from dualent.qstate import _local_output
        from dualent.deleting import _delete_terms

        rng = np.random.default_rng({"delete": 97, "clone": 101}[kind])
        for a in (0.0, 0.3, 0.6, SYM):
            pair = SchmidtPair(a)
            psi = np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)
            targets, weights = _delete_inputs(pair)
            assert np.array_equal(targets, [psi, [0, 0, 0, 1]])
            target, clone_weights = _clone_inputs(pair)
            assert np.array_equal(target, psi) and clone_weights == (pair.a, pair.b)
            assert targets.dtype == target.dtype == np.complex128
            # (A, B, A', B') reordered to (A, A', B, B')
            two = np.kron(psi, psi).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
            for _ in range(3):
                if kind == "delete":
                    v_a, v_b = _random_unitary(rng, 4), _random_unitary(rng, 4)
                    k = _local_output(weights, v_a, v_b)
                    state = two
                else:
                    u_a, u_b = _random_unitary(rng, 6), _random_unitary(rng, 6)
                    v_a, v_b = _SYMMETRIC @ u_a[:, :2], _SYMMETRIC @ u_b[:, :2]
                    k = _local_output(clone_weights, v_a, v_b)
                    state = psi
                m = len(v_a) // 2
                t = (np.kron(v_a, v_b) @ state).reshape(2, m, 2, m)  # (A, others, B, others)
                want_ab = np.einsum("apbq,cpdq->abcd", t, t.conj()).reshape(4, 4)
                want_others = np.einsum("apbq,arbs->pqrs", t, t.conj()).reshape(m * m, m * m)
                assert k.shape == (4, m * m)
                assert np.max(np.abs(k @ k.conj().T - want_ab)) < 1e-12
                assert np.max(np.abs(k.T @ k.conj() - want_others)) < 1e-12
                if kind == "delete":
                    got_ab, got_apbp, kept = _delete_terms(weights, v_a, v_b)
                    assert np.array_equal(kept, k)
                    assert np.array_equal(got_ab, k @ k.conj().T)
                    assert np.array_equal(got_apbp, k.T @ k.conj())
                else:
                    # the (A', B') copy equals the (A, B) one by construction
                    want2 = _explicit_clone_copies(pair, u_a, u_b)[1]
                    assert np.max(np.abs(k @ k.conj().T - want2)) < 1e-12

    @pytest.mark.parametrize("rows, cols", [(4, 4), (8, 2)])
    def test_adjoint_identity(self, rows, cols):
        # K is bilinear in (V_A, V_B), so dK = K(dV_A, V_B) + K(V_A, dV_B)
        # exactly, and Re tr(G^dag dK) = Re tr(G_A^dag dV_A + G_B^dag dV_B)
        # with the adjoint's stack times the weights
        from dualent.qstate import _local_output, _local_output_adjoint

        rng = np.random.default_rng(103)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(5):
            weights = rng.uniform(0.0, 1.0, cols)
            v_a = np.array([haar_unitary(rng, rows)[:, :cols] for _ in range(3)])
            v_b = np.array([haar_unitary(rng, rows)[:, :cols] for _ in range(3)])
            d_a, d_b = draw(3, rows, cols), draw(3, rows, cols)
            g = draw(3, 4, (rows // 2) ** 2)
            d_k = _local_output(weights, d_a, v_b) + _local_output(weights, v_a, d_b)
            grads = _local_output_adjoint(g, v_a, v_b) * weights
            assert grads.shape == (3, 2, rows, cols)
            lhs = np.einsum("sij,sij->s", g.conj(), d_k).real
            rhs = np.einsum("stij,stij->s", grads.conj(), np.stack([d_a, d_b], axis=1)).real
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


class TestIndependentReevaluation:
    """Each search optimum, rebuilt as an explicit state from U_A (x) U_B and
    scored through the state layer, gives the search's own objective."""

    @pytest.mark.parametrize("a", [0.3, 0.5, SYM])
    def test_delete_optimum(self, a):
        from dualent.deleting import min_over_product_pure

        pair = SchmidtPair(a)
        report = optimize_delete(pair, restarts=3, seed=1, max_evals=FAST_EVALS)
        u_a, u_b = (param_to_unitary(p) for p in report.best_params)
        psi = np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)
        # (A, B, A', B') reordered to (A, A', B, B')
        two = np.kron(psi, psi).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
        out = projector(Ket(np.kron(u_a, u_b) @ two, (2,) * 4), ("A", "A'", "B", "B'"))
        target = projector(Ket(psi, (2, 2)), ("A", "B"))
        kept = relative_entropy(target, trace_out(out, ("A'", "B'")))
        deleted, _ = min_over_product_pure(trace_out(out, ("A", "B")))
        assert abs(0.5 * (kept + deleted) - report.best_objective) < 1e-10

    @pytest.mark.parametrize("a", [0.3, 0.5, SYM])
    def test_clone_optimum(self, a):
        from dualent.cloning import CLONE_LABELS

        pair = SchmidtPair(a)
        report = optimize_clone(pair, restarts=3, seed=1, max_evals=FAST_EVALS)
        u_a, u_b = (param_to_unitary(p) for p in report.best_params)
        psi = np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)
        machine = np.kron(_SYMMETRIC @ u_a[:, :2], _SYMMETRIC @ u_b[:, :2])
        out = projector(Ket(machine @ psi, (2,) * 6), CLONE_LABELS)
        copy1 = trace_out(out, ("A'", "Ae", "B'", "Be"))
        copy2 = trace_out(out, ("A", "Ae", "B", "Be"))
        assert np.max(np.abs(copy1.matrix - copy2.matrix)) < 1e-14
        value = relative_entropy(projector(Ket(psi, (2, 2)), ("A", "B")), copy1)
        assert abs(value - report.best_objective) < 1e-10


class TestReachability:
    def test_swap_is_reachable_from_its_parameters(self):
        # the swap seed is the analytic machine itself, so it reproduces
        # the closed-form bound
        pair = SchmidtPair(0.45)
        alice, bob = swap_delete_seed()
        assert abs(delete_objective(pair, alice, bob) - delete_bound(pair)) < 1e-6

    def test_completed_cloner_is_reachable(self):
        pair = SchmidtPair(0.45)
        seed = cloner_seed_params()
        assert abs(clone_objective(pair, seed, seed) - clone_bound(pair)) < 1e-6
        # the kernel's copy at the seed is exactly the closed-form copy, and
        # so is the other copy of the explicit six-qubit output
        from dualent.qstate import _local_output

        u = param_to_unitary(seed)
        ab = _local_output((pair.a, pair.b), _SYMMETRIC @ u[:, :2], _SYMMETRIC @ u[:, :2])
        expected = rho_clone_closed_form(pair).matrix
        assert np.max(np.abs(ab @ ab.conj().T - expected)) < 1e-10
        _, copy2 = _explicit_clone_copies(pair, u, u)
        assert np.max(np.abs(copy2 - expected)) < 1e-10


def _random_thetas(rng, count, n):
    return rng.uniform(-math.pi, math.pi, (count, n * n))


class TestStackedKernels:
    """A stacked kernel call gives each point the value it has alone."""

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_stack_matches_points_one_at_a_time(self, kind):
        n, (with_grads, inputs) = _FAMILIES[kind], _kernel_and_inputs(kind)

        def kernel(pair, u_a, u_b):
            return with_grads(inputs(pair), u_a, u_b)[0]

        rng = np.random.default_rng(103)
        pair = SchmidtPair(0.45)
        thetas_a, thetas_b = _random_thetas(rng, 6, n), _random_thetas(rng, 6, n)
        # the identity machine: off support for deleting an entangled input
        thetas_a[2] = thetas_b[2] = 0.0
        stacked = kernel(pair, _unitaries(thetas_a, n), _unitaries(thetas_b, n))
        alone = [
            kernel(pair, _unitaries(ta[None], n), _unitaries(tb[None], n))[0]
            for ta, tb in zip(thetas_a, thetas_b)
        ]
        assert np.array_equal(stacked, alone)
        if kind == "clone":
            # the clone kernel is the public objective
            public = [
                clone_objective(pair, LocalUnitary(u_a), LocalUnitary(u_b))
                for u_a, u_b in zip(_unitaries(thetas_a, n), _unitaries(thetas_b, n))
            ]
            assert np.array_equal(stacked, public)
        else:
            assert math.isinf(stacked[2]) and np.isfinite(np.delete(stacked, 2)).all()

        # order and company do not matter
        order = rng.permutation(6)
        shuffled = kernel(pair, _unitaries(thetas_a[order], n), _unitaries(thetas_b[order], n))
        assert np.array_equal(shuffled, stacked[order])
        pairs = kernel(pair, _unitaries(thetas_a[3:5], n), _unitaries(thetas_b[3:5], n))
        assert np.array_equal(pairs, stacked[3:5])

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_stacked_gradients_match_rows_one_at_a_time(self, kind):
        n = _FAMILIES[kind]
        evaluate = _value_and_gradient(kind)
        rng = np.random.default_rng(109)
        pair = SchmidtPair(0.45)
        thetas = rng.uniform(-math.pi, math.pi, (6, 2 * n * n))
        bases = _random_bases(rng, 6, n)
        thetas[2], bases[2] = 0.0, np.eye(n)  # the identity machine
        values, grads, trials = evaluate(pair, thetas, bases)
        for k in range(6):
            value, grad, trial = evaluate(pair, thetas[k : k + 1], bases[k : k + 1])
            assert np.array_equal(value, values[k : k + 1], equal_nan=True)
            assert np.array_equal(grad, grads[k : k + 1], equal_nan=True)
            assert np.array_equal(trial, trials[k : k + 1])
        order = rng.permutation(6)
        shuffled = evaluate(pair, thetas[order], bases[order])
        assert np.array_equal(shuffled[0], values[order], equal_nan=True)
        assert np.array_equal(shuffled[1], grads[order], equal_nan=True)
        assert np.array_equal(shuffled[2], trials[order])

    def test_rank_deficient_deleted_copies(self):
        # on the product input |11> with Bob acting on B' alone, the deleted
        # copy has rank 2 (rank 1 for the identity machine) and the kept copy
        # still holds |11>: finite objectives, with the inner minimum running
        # on the off-support surrogate weight
        from dualent.deleting import _delete_terms

        rng = np.random.default_rng(107)
        pair = SchmidtPair(0.0)
        machines = [(LocalUnitary(np.eye(4)), LocalUnitary(np.eye(4)))]
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            bob = LocalUnitary(_exp_i(np.kron(np.eye(2), h + h.conj().T)))
            machines.append((LocalUnitary(_random_unitary(rng, 4)), bob))
        u_a = np.array([alice.matrix for alice, _ in machines])
        u_b = np.array([bob.matrix for _, bob in machines])
        _, deleted, _ = _delete_terms(_delete_inputs(pair)[1], u_a, u_b)
        assert list(np.linalg.matrix_rank(deleted, tol=1e-9)) == [1, 2, 2, 2]
        values = [delete_objective(pair, alice, bob) for alice, bob in machines]
        assert np.isfinite(values).all() and abs(values[0]) < 1e-12


class TestObjectProbeCalls:
    """The calls ``object_probes`` in bench/layers.py makes, which tier-1
    would not otherwise see: the public seeds, both objectives on them and
    on a short search's records, ``param_to_unitary`` on every record and
    its ``.dim``, which the tracer reads to label spans."""

    @pytest.mark.parametrize("kind, dim", [("delete", 4), ("clone", 6)])
    def test_call_shapes(self, kind, dim):
        from dualent import variational

        alice, bob = variational.swap_delete_seed()
        cloner = variational.cloner_seed_params()
        seed = (alice, bob) if kind == "delete" else (cloner, cloner)
        search = getattr(variational, f"optimize_{kind}")
        objective = getattr(variational, f"{kind}_objective")
        pair = SchmidtPair(0.6)
        report = search(pair, restarts=1, seed=1, max_evals=20)
        best = report.best_params
        assert math.isfinite(objective(pair, *seed))
        if kind == "delete":
            # |11> is an admissible target, so the inner minimum can only
            # lower the search's score, up to round-off: 1 ulp below it here
            assert objective(pair, *best) <= report.best_objective + 1e-12
        else:
            assert objective(pair, *best) == report.best_objective
        for record in (*seed, *best):
            assert record.dim == dim
            assert variational.param_to_unitary(record).shape == (dim, dim)


def _onto_one(ket):
    """A qubit unitary taking the unit ket ``ket`` to |1>."""
    perp = np.array([-ket[1].conj(), ket[0].conj()])
    return np.outer([0, 1], ket.conj()) + np.outer([1, 0], perp.conj())


class TestFixedTargetKernel:
    """The deleting search scores |11> alone; local unitaries on A' and B'
    after the machine make that the inner minimum."""

    def test_gauge_rotation_onto_the_fixed_target(self):
        from dualent.deleting import _delete_terms, _min_product_pure_matrix
        from dualent.variational import _delete_objectives_grad

        rng = np.random.default_rng(113)
        for _ in range(120):
            pair = SchmidtPair(float(rng.uniform(0.0, SYM)))
            inputs = _delete_inputs(pair)
            alice, bob = (LocalUnitary(_random_unitary(rng, 4)) for _ in range(2))
            u_a, u_b = alice.matrix[None], bob.matrix[None]
            value = delete_objective(pair, alice, bob)
            assert _delete_objectives_grad(inputs, u_a, u_b)[0][0] >= value - 1e-12
            _, deleted, _ = _delete_terms(inputs[1], u_a, u_b)
            _, x, y = _min_product_pure_matrix(deleted[0])
            v_x, v_y = _onto_one(x), _onto_one(y)
            rotated, _ = _delete_objectives_grad(
                inputs, np.kron(np.eye(2), v_x) @ u_a, np.kron(np.eye(2), v_y) @ u_b
            )
            assert abs(rotated[0] - value) < 1e-12


class TestInvarianceOracles:
    """Exact symmetries of the objectives, checked at searched bests: they
    need no reference value."""

    @pytest.mark.parametrize("a", [0.3] + [float(GRID_20[i]) for i in range(13, 20)])
    def test_public_delete_objective_at_most_the_search_score(self, a):
        # |11> is an admissible target, so the inner minimum can only lower
        # the search's score of the same machine; measured at GRID_20[13] to
        # [19]: between 6.7e-16 below and 2.2e-16 above it
        pair = SchmidtPair(a)
        report = optimize_delete(pair, restarts=5, seed=1)
        assert delete_objective(pair, *report.best_params) <= report.best_objective + 1e-12

    @pytest.mark.parametrize("a", [0.01, 0.3, float(GRID_20[17])])
    def test_delete_objective_ignores_unitaries_on_the_deleted_copy(self, a):
        # V on A' and W on B' after the machine map product targets to
        # product targets and leave the kept copy alone; at a = 0.01, where
        # eigenvalues of 1.1e-13 and 5.3e-13 make the deleted copy rank 4, the
        # value moves by at most 1.5e-15 over these draws
        pair = SchmidtPair(a)
        alice, bob = optimize_delete(pair, restarts=5, seed=1).best_params
        value = delete_objective(pair, alice, bob)
        rng = np.random.default_rng(11)
        for _ in range(8):
            v, w = (np.kron(np.eye(2), haar_unitary(rng, 2)) for _ in range(2))
            moved = delete_objective(
                pair, LocalUnitary(v @ alice.matrix), LocalUnitary(w @ bob.matrix)
            )
            assert abs(moved - value) <= 1e-12

    @pytest.mark.parametrize("a", [0.1, 0.5, SYM])
    def test_clone_objective_ignores_unitaries_on_the_environments(self, a):
        # S^T (I_4 (x) V) S acts on a party's environment qubit alone, which
        # the (A, B) copy traces out
        def on_environment(rng):
            return _SYMMETRIC.T @ np.kron(np.eye(4), haar_unitary(rng, 2)) @ _SYMMETRIC

        pair = SchmidtPair(a)
        rng = np.random.default_rng(17)
        machines = [optimize_clone(pair, restarts=5, seed=1).best_params]
        machines.append((cloner_seed_params(),) * 2)
        for _ in range(4):
            machines.append(tuple(LocalUnitary(haar_unitary(rng, 6)) for _ in range(2)))
        for alice, bob in machines:
            value = clone_objective(pair, alice, bob)
            for _ in range(4):
                v, w = on_environment(rng), on_environment(rng)
                moved = clone_objective(
                    pair, LocalUnitary(v @ alice.matrix), LocalUnitary(w @ bob.matrix)
                )
                assert abs(moved - value) <= 1e-13


class TestSearchRecords:
    def test_one_record_per_restart(self):
        report = optimize_delete(SchmidtPair(0.5), restarts=5, seed=3, max_evals=FAST_EVALS)
        records = report.restart_records
        assert [r.start for r in records] == ["seed", "seed", "perturbed", "random", "perturbed"]
        assert all(1 <= r.nfev <= FAST_EVALS and r.nit >= 1 for r in records)
        assert all(r.exit in ("converged", "maxfev", "stalled") for r in records)
        assert records[report.winner].objective == report.best_objective
        assert report.best_objective == min(r.objective for r in records)

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    def test_short_budget_caps_every_restart(self, search):
        # a run ends on the budget unless it converged or stalled before it;
        # the clone search's random restart converges in 60 evaluations
        budget = {optimize_delete: 60, optimize_clone: 30}[search]
        report = search(SchmidtPair(0.6), restarts=3, seed=2, max_evals=budget)
        records = report.restart_records
        assert all(
            r.nfev <= budget and (r.exit == "maxfev") == (r.nfev == budget) for r in records
        )
        assert all(r.exit in ("converged", "maxfev", "stalled") for r in records)
        assert any(r.exit == "maxfev" for r in records)
        assert records[report.winner].objective == report.best_objective

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    def test_best_params_rebuild_the_winning_machine(self, monkeypatch, search):
        # the best is the search's own score of the winning machine: for
        # deleting, the fixed-target kernel on a stack of one; for cloning,
        # the kernel is the public objective
        from dualent.variational import _delete_objectives_grad

        pair = SchmidtPair(0.45)
        report, _, finals = _spied_search(monkeypatch, search, pair, 5, 3)
        for record, machine in zip(report.best_params, finals[report.winner]):
            assert record.matrix.tobytes() == machine.tobytes()
        if search is optimize_delete:
            u_a, u_b = (record.matrix[None] for record in report.best_params)
            inputs = _delete_inputs(pair)
            assert _delete_objectives_grad(inputs, u_a, u_b)[0][0] == report.best_objective
        else:
            assert clone_objective(pair, *report.best_params) == report.best_objective
        assert report.restart_records[report.winner].objective == report.best_objective

    def test_delete_search_never_runs_the_product_minimum(self, monkeypatch):
        # the near-product best at a = 0.01, whose public score runs the
        # product minimum's sphere search on a rank-3 deleted copy, comes from
        # the search alone
        from dualent import deleting

        def refuse(matrix):
            raise AssertionError("the search ran the product minimum")

        monkeypatch.setattr(deleting, "_min_product_pure_matrix", refuse)
        report = optimize_delete(SchmidtPair(0.01), restarts=5, seed=1)
        assert report.best_objective < 1.45e-4

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.55, 0.7])
    def test_a_run_does_not_depend_on_its_company(self, search, a):
        # the lock-step rounds hand each run a contiguous gradient row, so
        # its bits do not depend on how many other runs are still live
        three = search(SchmidtPair(a), restarts=3, seed=7)
        five = search(SchmidtPair(a), restarts=5, seed=7)
        assert three.restart_records == five.restart_records[:3]

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    def test_gradient_rows_are_contiguous(self, monkeypatch, search):
        # each round's gradient rows, and each row a run is sent, are
        # C-contiguous: a strided row (a .real view, say) rounds the dot
        # products differently, which the records of runs with and without
        # company need not show
        from dualent import variational

        evaluate, bfgs, seen = variational._stacked_values_and_gradients, variational._bfgs, []

        def spy_evaluate(*args):
            values, grads, trials = evaluate(*args)
            seen.append(("round", grads.flags.c_contiguous))
            return values, grads, trials

        def spy_bfgs(start, size, max_evals):
            run = bfgs(start, size, max_evals)
            point = next(run)
            while True:
                sent = yield point
                seen.append(("run", sent[1].flags.c_contiguous))
                try:
                    point = run.send(sent)
                except StopIteration as stop:
                    return stop.value

        monkeypatch.setattr(variational, "_stacked_values_and_gradients", spy_evaluate)
        monkeypatch.setattr(variational, "_bfgs", spy_bfgs)
        search(SchmidtPair(0.45), restarts=5, seed=3, max_evals=FAST_EVALS)
        assert {kind for kind, _ in seen} == {"round", "run"}
        assert all(contiguous for _, contiguous in seen)

    def test_slow_random_restart_near_the_symmetric_point(self, monkeypatch):
        # the slowest restart of the bench plans (seeds 2001-2010, 2101-2120
        # and 2201-2210), a random deleting one near 1/sqrt(2), took 256
        # evaluations: every restart of this search ends within 600, and each
        # run's machine, a product of accepted steps, stays unitary to round-off
        from dualent.variational import MAX_EVALS

        pair = SchmidtPair(0.7026699342947414)
        report, _, finals = _spied_search(
            monkeypatch, optimize_delete, pair, 5, 940690345, MAX_EVALS
        )
        assert report.restart_records[3].start == "random"
        assert max(r.nfev for r in report.restart_records) <= 600
        machines = np.array(finals)
        defect = machines.conj().swapaxes(-1, -2) @ machines - np.eye(4)
        assert np.abs(defect).max() <= 1e-12

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.6])
    def test_copier_seed_stops_at_its_start(self, a):
        # the basis copier is a stationary point: its gradient is exactly 0
        report = optimize_clone(SchmidtPair(a), restarts=2, seed=1)
        copier = report.restart_records[1]
        assert (copier.nfev, copier.nit, copier.exit) == (1, 0, "converged")
        identity = LocalUnitary(np.eye(6))
        assert copier.objective == clone_objective(SchmidtPair(a), identity, identity)

    @pytest.mark.parametrize("a, below", [(0.3, 0.1365), (0.5, 0.41)])
    def test_delete_finds_machines_below_the_simplex_values(self, a, below):
        # the budget-capped simplex search gave 0.137074 and 0.416109
        report = optimize_delete(SchmidtPair(a), restarts=5, seed=1)
        assert report.best_objective < below


def _central_differences(f, x, h=1e-6):
    """Central differences of the stacked values f(x) (m,) at x (m, d)."""
    grad = np.empty_like(x)
    for j in range(x.shape[1]):
        step = np.zeros(x.shape[1])
        step[j] = h
        grad[:, j] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


_FAMILIES = {"delete": 4, "clone": 6}


def _kernel_and_inputs(kind):
    """A family's value-and-gradient kernel and the builder of its pair's inputs."""
    from dualent.variational import _clone_objectives_grad, _delete_objectives_grad

    if kind == "delete":
        return _delete_objectives_grad, _delete_inputs
    return _clone_objectives_grad, _clone_inputs


def _value_and_gradient(kind):
    from dualent.variational import _generator_map, _stacked_values_and_gradients

    kernel, inputs = _kernel_and_inputs(kind)
    n = _FAMILIES[kind]

    def evaluate(pair, steps, bases=None):
        # identity bases by default: the trials are the machines exp(iH)
        # themselves; every generator row, so the steps are full parameters
        if bases is None:
            bases = np.broadcast_to(np.eye(n), (len(steps), 2, n, n))
        chart = _generator_map(n, n)
        return _stacked_values_and_gradients(inputs(pair), kernel, bases, steps, chart)

    return evaluate


class TestGradients:
    """The round's gradient rows against central differences of the kernel
    along T exp(i eps H(e_p)) at each trial T, and the clone values against
    the public objective."""

    def _check(self, kind, pair, steps, bases=None):
        n, (kernel, inputs) = _FAMILIES[kind], _kernel_and_inputs(kind)
        values, grad, trials = _value_and_gradient(kind)(pair, steps, bases)

        def along(x):
            moved = trials @ _unitaries(x.reshape(-1, 2, n * n), n)
            return kernel(inputs(pair), moved[:, 0], moved[:, 1])[0]

        assert np.array_equal(along(np.zeros_like(steps)), values)
        numeric = _central_differences(along, np.zeros_like(steps))
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(numeric)))
        return grad

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_random_machines(self, kind):
        n = _FAMILIES[kind]
        rng = np.random.default_rng(131)
        for a in (0.0, 0.3, 0.6, SYM):
            steps = rng.uniform(-math.pi, math.pi, (3, 2 * n * n))
            self._check(kind, SchmidtPair(a), steps)
            # the same steps from random machines
            self._check(kind, SchmidtPair(a), steps, _random_bases(rng, 3, n))

    @pytest.mark.parametrize("a", [0.3, 0.5, SYM])
    def test_seeds_with_degenerate_spectra(self, a):
        # the zero step, where each search run starts, has a generator with
        # one eigenvalue, and the swap at 1/sqrt(2) deletes into a
        # rank-deficient copy
        pair = SchmidtPair(a)
        alice, bob = swap_delete_seed()
        cloner, copier = cloner_seed_params(), LocalUnitary(np.eye(6))
        for kind, machine in [
            ("delete", (alice, bob)),
            ("delete", (bob, alice)),
            ("clone", (cloner, cloner)),
            ("clone", (copier, copier)),
        ]:
            n = _FAMILIES[kind]
            bases = np.array([[record.matrix for record in machine]])
            start = self._check(kind, pair, np.zeros((1, 2 * n * n)), bases)
            if machine[0] is copier:
                assert not start.any()

    @pytest.mark.parametrize("kind", ["clone"])
    def test_values_equal_the_value_only_kernel(self, kind):
        # deleting's public objective scores the best product target, not
        # the search's fixed |11>
        n = _FAMILIES[kind]
        rng = np.random.default_rng(137)
        pair = SchmidtPair(0.45)
        thetas = rng.uniform(-math.pi, math.pi, (6, 2 * n * n))
        bases = _random_bases(rng, 6, n)
        values, _, trials = _value_and_gradient(kind)(pair, thetas, bases)
        unitaries = bases @ _unitaries(thetas.reshape(-1, n * n), n).reshape(-1, 2, n, n)
        assert np.array_equal(trials, unitaries)
        records = [(LocalUnitary(u_a), LocalUnitary(u_b)) for u_a, u_b in trials]
        public = [clone_objective(pair, *machine) for machine in records]
        assert np.array(public).tobytes() == values.tobytes()


def _drive(run, f):
    """Run an optimiser generator on a function returning (value, gradient),
    in Euclidean space: the trial of a step from a point is point + step."""
    try:
        point, step = next(run)
        while True:
            trial = point + step
            point, step = run.send(f(trial) + (trial,))
    except StopIteration as stop:
        return stop.value


def _rosenbrock(x):
    value = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1 - x[:-1])
    grad[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return float(value), grad


class TestBfgs:
    def test_converges_on_rosenbrock(self):
        from dualent.variational import _bfgs

        x, value, nfev, nit, exit = _drive(_bfgs(np.array([-1.2, 1.0]), 2, 2000), _rosenbrock)
        assert exit == "converged" and nfev < 2000 and nit >= 1
        assert np.max(np.abs(x - 1.0)) < 1e-6 and value < 1e-12

    def test_budget_ends_the_run_at_the_last_accepted_point(self):
        from dualent.variational import _bfgs

        seen = []

        def f(x):
            seen.append(x)
            return _rosenbrock(x)

        x, value, nfev, _, exit = _drive(_bfgs(np.array([-1.2, 1.0, 0.0, 0.7]), 4, 7), f)
        assert (nfev, exit) == (7, "maxfev") and len(seen) == 7
        assert value == min(_rosenbrock(p)[0] for p in seen)
        assert any(np.array_equal(x, p) for p in seen)

    def test_infinite_trials_are_failed_steps(self):
        # a bowl centred outside the unit ball, infinite off it: the runs
        # must stay inside and end on its boundary
        from dualent.variational import _bfgs

        def f(x):
            if x @ x > 1.0:
                return math.inf, np.zeros_like(x)
            return float(np.sum((x - 2.0) ** 2)), 2.0 * (x - 2.0)

        x, value, _, _, exit = _drive(_bfgs(np.zeros(2), 2, 500), f)
        assert math.isfinite(value) and x @ x <= 1.0
        assert exit in ("converged", "stalled")
        assert np.max(np.abs(x - math.sqrt(0.5))) < 1e-3

    def test_a_stationary_start_costs_one_evaluation(self):
        from dualent.variational import _bfgs

        result = _drive(_bfgs(np.ones(4), 4, 100), _rosenbrock)
        assert result[2:] == (1, 0, "converged")

    def test_ill_conditioned_quadratic(self):
        # condition number 1e4 in 32 rotated coordinates, the size of a
        # deleting step: the dense inverse Hessian learns the whole spectrum
        from dualent.variational import _bfgs

        rng = np.random.default_rng(0)
        rotation = np.linalg.qr(rng.standard_normal((32, 32)))[0]
        hessian = (rotation * np.geomspace(1.0, 1e4, 32)) @ rotation.T

        def f(x):
            return 0.5 * float(x @ hessian @ x), hessian @ x

        x, _, _, _, exit = _drive(_bfgs(np.ones(32), 32, 400), f)
        assert exit == "converged" and np.max(np.abs(x)) <= 1e-8
