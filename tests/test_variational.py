import math

import numpy as np
import pytest

from dualent.cloning import clone_bound, rho_clone_closed_form
from dualent.deleting import delete_bound, local_delete_swap
from dualent.qstate import SchmidtPair
from dualent.variational import (
    UnitaryParams,
    basis_copy_seed_params,
    clone_objective,
    cloner_seed_params,
    copy_asymmetry,
    delete_objective,
    hermitian_from_params,
    optimize_clone,
    optimize_delete,
    param_to_unitary,
    params_from_hermitian,
    swap_delete_seed,
    swap_gate,
)

SYM = 1 / math.sqrt(2)
# unit tests keep the simplex budget small; the spec-level budget is
# exercised by the acceptance suite
FAST_EVALS = 250


class TestParameterisation:
    def test_zero_gives_identity(self):
        for n in (2, 4, 8):
            u = param_to_unitary(UnitaryParams(np.zeros(n * n)))
            assert np.max(np.abs(u - np.eye(n))) < 1e-12

    def test_random_params_give_unitary(self):
        rng = np.random.default_rng(79)
        for n in (2, 4, 8):
            u = param_to_unitary(UnitaryParams(rng.uniform(-math.pi, math.pi, n * n)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10

    def test_roundtrip_through_generator(self):
        rng = np.random.default_rng(83)
        for n in (2, 4, 8):
            params = UnitaryParams(rng.standard_normal(n * n))
            back = params_from_hermitian(hermitian_from_params(params))
            assert np.max(np.abs(back.thetas - params.thetas)) < 1e-14

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
            assert np.array_equal(hermitian_from_params(UnitaryParams(thetas)), expected)

    def test_non_square_length_rejected(self):
        with pytest.raises(ValueError, match="square"):
            UnitaryParams(np.zeros(5))

    def test_swap_seed_reproduces_swap(self):
        alice, bob = swap_delete_seed()
        assert np.max(np.abs(param_to_unitary(alice) - swap_gate())) < 1e-12
        assert np.max(np.abs(param_to_unitary(bob) - np.eye(4))) < 1e-12


class TestSeeds:
    def test_cloner_seed_reaches_the_cloner(self):
        from dualent.cloning import universal_clone_isometry

        u = param_to_unitary(cloner_seed_params())
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
        v = universal_clone_isometry().matrix
        assert np.max(np.abs(u[:, 0] - v[:, 0])) < 1e-10
        assert np.max(np.abs(u[:, 4] - v[:, 1])) < 1e-10
        # the seed is a reflection: Hermitian and its own inverse
        assert np.max(np.abs(u - u.conj().T)) < 1e-12
        assert np.max(np.abs(u @ u - np.eye(8))) < 1e-12

    def test_cloner_seed_objective_matches_bound(self):
        pair = SchmidtPair(0.6)
        seed = cloner_seed_params()
        assert abs(clone_objective(pair, seed, seed) - clone_bound(pair)) < 1e-6

    def test_copier_seed_realises_entropy_branch(self):
        pair = SchmidtPair(0.6)
        seed = basis_copy_seed_params()
        h = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))
        assert abs(clone_objective(pair, seed, seed) - h) < 1e-9

    def test_swap_seed_objective_matches_swap_machine(self):
        pair = SchmidtPair(0.6)
        alice, bob = swap_delete_seed()
        value = delete_objective(pair, alice, bob)
        assert abs(value - local_delete_swap(pair).objective) < 1e-6
        assert abs(value - 1.5865393790302167) < 1e-6


class TestDeleteObjective:
    def test_identity_machine_is_infinite_for_entangled_input(self):
        identity = UnitaryParams(np.zeros(16))
        assert math.isinf(delete_objective(SchmidtPair(0.6), identity, identity))

    def test_identity_machine_on_product_input(self):
        identity = UnitaryParams(np.zeros(16))
        assert abs(delete_objective(SchmidtPair(0.0), identity, identity)) < 1e-12

    def test_wrong_parameter_size_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            delete_objective(SchmidtPair(0.6), UnitaryParams(np.zeros(4)), UnitaryParams(np.zeros(16)))


class TestCloneObjective:
    def test_wrong_parameter_size_rejected(self):
        with pytest.raises(ValueError, match="8x8"):
            clone_objective(SchmidtPair(0.6), UnitaryParams(np.zeros(16)), UnitaryParams(np.zeros(16)))

    def test_penalty_sees_asymmetry(self):
        # a one-sided basis copier produces unequal copies
        pair = SchmidtPair(0.6)
        copier = basis_copy_seed_params()
        identity = UnitaryParams(np.zeros(64))
        assert copy_asymmetry(pair, copier, identity) > 1e-3
        assert copy_asymmetry(pair, copier, copier) < 1e-12


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
        assert np.array_equal(first.best_params[0].thetas, second.best_params[0].thetas)

    def test_restart_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            optimize_delete(SchmidtPair(0.5), restarts=0, seed=1)


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

    def test_copies_nearly_symmetric_at_optimum(self):
        report = optimize_clone(SchmidtPair(0.55), restarts=3, seed=4, max_evals=FAST_EVALS)
        assert copy_asymmetry(SchmidtPair(0.55), *report.best_params) < 1e-4

    def test_deterministic(self):
        first = optimize_clone(SchmidtPair(0.4), restarts=2, seed=8, max_evals=FAST_EVALS)
        second = optimize_clone(SchmidtPair(0.4), restarts=2, seed=8, max_evals=FAST_EVALS)
        assert first.best_objective == second.best_objective


def _random_unitary(rng, n):
    return param_to_unitary(UnitaryParams(rng.uniform(-math.pi, math.pi, n * n)))


class TestMachineKernels:
    """The circuit kernels against explicit U_A (x) U_B references."""

    def test_delete_terms_match_kron_reference(self):
        from dualent.variational import _delete_terms

        rng = np.random.default_rng(97)
        for a in (0.0, 0.3, 0.6, SYM):
            pair = SchmidtPair(a)
            psi = np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)
            # (A, B, A', B') reordered to (A, A', B, B')
            two = np.kron(psi, psi).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
            for _ in range(3):
                u_a, u_b = _random_unitary(rng, 4), _random_unitary(rng, 4)
                t = (np.kron(u_a, u_b) @ two).reshape(2, 2, 2, 2)
                want_ab = np.einsum("apbq,cpdq->abcd", t, t.conj()).reshape(4, 4)
                want_apbp = np.einsum("apbq,arbs->pqrs", t, t.conj()).reshape(4, 4)
                got_psi, got_ab, got_apbp = _delete_terms(pair, u_a, u_b)
                assert np.max(np.abs(got_psi - psi)) < 1e-15
                assert np.max(np.abs(got_ab - want_ab)) < 1e-12
                assert np.max(np.abs(got_apbp - want_apbp)) < 1e-12

    def test_clone_copies_match_kron_reference(self):
        from dualent.variational import _clone_copies

        rng = np.random.default_rng(101)
        for a in (0.0, 0.3, 0.6, SYM):
            pair = SchmidtPair(a)
            start = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)  # (A, A', Ae, B, B', Be)
            start[0, 0, 0, 0, 0, 0] = pair.a
            start[1, 0, 0, 1, 0, 0] = pair.b
            for _ in range(3):
                u_a, u_b = _random_unitary(rng, 8), _random_unitary(rng, 8)
                t = (np.kron(u_a, u_b) @ start.ravel()).reshape((2,) * 6)
                want1 = np.einsum("apebqf,cpedqf->abcd", t, t.conj()).reshape(4, 4)
                want2 = np.einsum("apebqf,arebsf->pqrs", t, t.conj()).reshape(4, 4)
                copy1, copy2 = _clone_copies(pair, u_a, u_b)
                assert np.max(np.abs(copy1 - want1)) < 1e-12
                assert np.max(np.abs(copy2 - want2)) < 1e-12


class TestReachability:
    def test_swap_is_reachable_from_its_parameters(self):
        # seeding at the Hermitian logarithm of the swap reproduces the
        # analytic machine's objective
        pair = SchmidtPair(0.45)
        alice, bob = swap_delete_seed()
        assert abs(delete_objective(pair, alice, bob) - delete_bound(pair)) < 1e-6

    def test_completed_cloner_is_reachable(self):
        pair = SchmidtPair(0.45)
        seed = cloner_seed_params()
        assert abs(clone_objective(pair, seed, seed) - clone_bound(pair)) < 1e-6
        # the pipeline output at the seed is exactly the closed-form copy
        from dualent.variational import _clone_copies, _unitary_from_thetas

        u = _unitary_from_thetas(seed.thetas, 8)
        copy1, copy2 = _clone_copies(pair, u, u)
        expected = rho_clone_closed_form(pair).matrix
        assert np.max(np.abs(copy1 - expected)) < 1e-10
        assert np.max(np.abs(copy1 - copy2)) < 1e-10


def _drive(run, f):
    """Run a simplex generator on a scalar objective, one point at a time."""
    try:
        x = next(run)
        while True:
            x = run.send(f(x))
    except StopIteration as stop:
        return stop.value


def _scipy_nelder_mead(f, x0, max_evals):
    from scipy.optimize import minimize

    from dualent.variational import SIMPLEX_FTOL, SIMPLEX_TOL

    options = {"maxfev": max_evals, "xatol": SIMPLEX_TOL, "fatol": SIMPLEX_FTOL, "adaptive": True}
    return minimize(f, x0, method="Nelder-Mead", options=options)


def _weighted_bowl(x):
    return float(np.sum((np.arange(1, len(x) + 1) * (x - 0.5)) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def _staircase(x):
    # flat steps: inside contractions tie with the worst vertex, so the
    # simplex shrinks
    return float(np.sum(np.floor(8 * np.abs(x - 0.3))))


class TestNelderMeadPort:
    """The lock-step simplex generator repeats scipy's adaptive Nelder-Mead
    bit for bit."""

    def _compare(self, f, x0, max_evals):
        from dualent.variational import _nelder_mead

        x0 = np.array(x0, dtype=float)
        x, fun, nfev, nit = _drive(_nelder_mead(x0, max_evals), f)
        want = _scipy_nelder_mead(f, x0, max_evals)
        assert np.array_equal(x, want.x)
        assert fun == want.fun
        assert (nfev, nit) == (want.nfev, want.nit)
        return want

    def test_converges_on_tolerances_before_the_budget(self):
        result = self._compare(_weighted_bowl, [0.0, 1.0, -2.0], 5000)
        assert result.status == 0 and result.nfev < 5000

    def test_budget_ends_inside_an_iteration(self):
        x0 = [-1.2, 1.0, 0.0, 0.7]
        result = self._compare(_rosenbrock, x0, 58)
        one_less = self._compare(_rosenbrock, x0, 57)
        # the 58th value belonged to an iteration that never finished: it
        # is discarded and the iteration count does not move
        assert result.status == 1 and result.nfev == 58
        assert result.nit == one_less.nit
        assert np.array_equal(result.x, one_less.x)

    def test_budget_ends_inside_the_initial_simplex(self):
        result = self._compare(_rosenbrock, [-1.2, 1.0, 0.0, 0.7], 3)
        assert result.nfev == 3

    def test_shrink_steps(self):
        x0 = [1.0, -1.0, 2.0]
        result = self._compare(_staircase, x0, 3000)
        # without shrinks an iteration costs at most two evaluations
        assert result.nfev > len(x0) + 1 + 2 * (result.nit - 1)


def _random_thetas(rng, count, n):
    return rng.uniform(-math.pi, math.pi, (count, n * n))


class TestStackedKernels:
    """A stacked kernel call gives each point the value it has alone."""

    @pytest.mark.parametrize("kind", ["delete", "clone"])
    def test_stack_matches_points_one_at_a_time(self, kind):
        from dualent.variational import _clone_objectives, _delete_objectives, _unitary_from_thetas

        n, kernel, single = {
            "delete": (4, _delete_objectives, delete_objective),
            "clone": (8, _clone_objectives, clone_objective),
        }[kind]
        rng = np.random.default_rng(103)
        pair = SchmidtPair(0.45)
        thetas_a, thetas_b = _random_thetas(rng, 6, n), _random_thetas(rng, 6, n)
        # the identity machine: off support for deleting an entangled input
        thetas_a[2] = thetas_b[2] = 0.0
        stacked = kernel(pair, _unitary_from_thetas(thetas_a, n), _unitary_from_thetas(thetas_b, n))
        alone = [
            single(pair, UnitaryParams(ta), UnitaryParams(tb)) for ta, tb in zip(thetas_a, thetas_b)
        ]
        assert np.array_equal(stacked, alone)
        if kind == "delete":
            assert math.isinf(stacked[2]) and np.isfinite(np.delete(stacked, 2)).all()

        # order and company do not matter
        order = rng.permutation(6)
        shuffled = kernel(
            pair,
            _unitary_from_thetas(thetas_a[order], n),
            _unitary_from_thetas(thetas_b[order], n),
        )
        assert np.array_equal(shuffled, stacked[order])
        pairs = kernel(
            pair, _unitary_from_thetas(thetas_a[3:5], n), _unitary_from_thetas(thetas_b[3:5], n)
        )
        assert np.array_equal(pairs, stacked[3:5])

    def test_rank_deficient_deleted_copies(self):
        # on the product input |11> with Bob acting on B' alone, the deleted
        # copy has rank 2 (rank 1 for the identity machine) and the kept copy
        # still holds |11>: finite values, with the inner minimum running on
        # the off-support surrogate weight
        from dualent.variational import _delete_objectives, _delete_terms

        rng = np.random.default_rng(107)
        pair = SchmidtPair(0.0)
        u_a = np.array([_random_unitary(rng, 4) for _ in range(4)])
        u_b = np.array([np.kron(np.eye(2), _random_unitary(rng, 2)) for _ in range(4)])
        u_a[0] = u_b[0] = np.eye(4)
        _, _, deleted = _delete_terms(pair, u_a, u_b)
        assert list(np.linalg.matrix_rank(deleted, tol=1e-9)) == [1, 2, 2, 2]
        stacked = _delete_objectives(pair, u_a, u_b)
        alone = [_delete_objectives(pair, u_a[k : k + 1], u_b[k : k + 1])[0] for k in range(4)]
        assert np.array_equal(stacked, alone)
        assert np.isfinite(stacked).all() and abs(stacked[0]) < 1e-12

    def test_inner_minimum_over_a_mixed_rank_stack(self):
        from dualent.deleting import _min_product_pure_stack, min_over_product_pure
        from dualent.qstate import LabeledState

        rng = np.random.default_rng(109)
        matrices = []
        for rank in (1, 2, 3, 4, 2, 3):
            columns = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            # a product eigenvector keeps the low ranks finite
            halves = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            columns[:, 0] = np.kron(halves[0], halves[1])
            matrix = columns @ columns.conj().T
            matrices.append(matrix / np.trace(matrix).real)
        values, n_x, n_y = _min_product_pure_stack(np.array(matrices))
        for k, matrix in enumerate(matrices):
            value, x_alone, y_alone = _min_product_pure_stack(matrix[None])
            assert value[0] == values[k]
            assert np.array_equal(x_alone[0], n_x[k]) and np.array_equal(y_alone[0], n_y[k])
            public, _ = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))
            assert public == values[k]
        assert np.isfinite(values).all()


class TestSearchRecords:
    def test_one_record_per_restart(self):
        report = optimize_delete(SchmidtPair(0.5), restarts=5, seed=3, max_evals=FAST_EVALS)
        records = report.restart_records
        assert [r.start for r in records] == ["seed", "seed", "perturbed", "random", "perturbed"]
        assert all(1 <= r.nfev <= FAST_EVALS and r.nit >= 1 for r in records)
        assert all(r.exit in ("converged", "maxfev") for r in records)
        assert records[report.winner].objective == report.best_objective
        assert report.best_objective == min(r.objective for r in records)

    @pytest.mark.parametrize("search", [optimize_delete, optimize_clone])
    def test_short_budget_ends_every_restart_on_maxfev(self, search):
        report = search(SchmidtPair(0.6), restarts=3, seed=2, max_evals=60)
        assert [(r.nfev, r.exit) for r in report.restart_records] == [(60, "maxfev")] * 3
        assert report.restart_records[report.winner].objective == report.best_objective
