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
