import math

import numpy as np
import pytest
from conftest import projector

from dualent import linalg as la
from dualent.cloning import (
    CloneBoundRecord,
    CloneIsometry,
    clone_bound,
    clone_bound_combined,
    crossover,
    local_clone_pipeline,
    rho_clone_closed_form,
    universal_clone_isometry,
)
from dualent.qstate import (
    Ket,
    LabeledState,
    SchmidtPair,
    relative_entropy,
    schmidt_ket,
    trace_out,
)

SYM = 1 / math.sqrt(2)
LOG2_12_OVER_7 = math.log2(12 / 7)  # 0.777607578663552
A_GRID = np.linspace(0.01, SYM, 50)


def clone_bound_oracle(a):
    """Independent route: closed-form eigendecomposition of the 2x2 block of
    rho_clone on span{|00>, |11>}, then -sum p_i log2(lambda_i)."""
    b = math.sqrt(1 - a * a)
    p = (24 * a * a + 1) / 36
    r = (24 * b * b + 1) / 36
    q = 4 * a * b / 9
    mean, rad = 0.5 * (p + r), math.sqrt((0.5 * (p - r)) ** 2 + q * q)
    lam_hi, lam_lo = mean + rad, mean - rad
    v_hi = np.array([q, lam_hi - p])
    v_hi /= np.linalg.norm(v_hi)
    v_lo = np.array([-v_hi[1], v_hi[0]])
    psi = np.array([a, b])
    w_hi, w_lo = float(v_hi @ psi) ** 2, float(v_lo @ psi) ** 2
    return -(w_hi * math.log2(lam_hi) + w_lo * math.log2(lam_lo))


class TestIsometry:
    def test_columns_orthonormal(self):
        v = universal_clone_isometry().matrix
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12
        with pytest.raises(ValueError, match=r"^clone isometry must be 8x2, got \(4, 2\)$"):
            CloneIsometry(v[:4])

    def test_clone_marginals_of_basis_input(self):
        v = universal_clone_isometry().matrix
        out = np.outer(v[:, 0], v[:, 0].conj())
        clone1 = la.partial_trace(out, (2, 2, 2), (1, 2))
        clone2 = la.partial_trace(out, (2, 2, 2), (0, 2))
        assert np.allclose(clone1, np.diag([5 / 6, 1 / 6]), atol=1e-12)
        assert np.allclose(clone2, np.diag([5 / 6, 1 / 6]), atol=1e-12)

    def test_clone_marginals_equal_for_superposition(self):
        v = universal_clone_isometry().matrix
        plus = np.array([1, 1]) / math.sqrt(2)
        out = np.outer(v @ plus, (v @ plus).conj())
        clone1 = la.partial_trace(out, (2, 2, 2), (1, 2))
        clone2 = la.partial_trace(out, (2, 2, 2), (0, 2))
        assert np.max(np.abs(clone1 - clone2)) < 1e-12

    def test_clone_marginals_equal_for_random_inputs(self):
        rng = np.random.default_rng(89)
        v = universal_clone_isometry().matrix
        for _ in range(20):
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ket = v @ (raw / np.linalg.norm(raw))
            out = np.outer(ket, ket.conj())
            clone1 = la.partial_trace(out, (2, 2, 2), (1, 2))
            clone2 = la.partial_trace(out, (2, 2, 2), (0, 2))
            assert np.max(np.abs(clone1 - clone2)) < 1e-12

    def test_cloner_is_a_read_only_constant(self, monkeypatch):
        from dualent import cloning

        cloner = universal_clone_isometry()
        assert universal_clone_isometry() is cloner
        assert cloner.matrix.tobytes() == (cloning._SYMMETRIC @ cloning._CLONER).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cloner.matrix[0, 0] = 0.0

        def refuse(*args):
            raise AssertionError("the cloner was validated again")

        monkeypatch.setattr(cloning, "CloneIsometry", refuse)
        pair = SchmidtPair(0.6)
        _, copy1, _ = local_clone_pipeline(pair)
        assert np.max(np.abs(copy1.matrix - rho_clone_closed_form(pair).matrix)) <= 1e-12


class TestClosedForm:
    def test_symmetric_point_block(self):
        rho = rho_clone_closed_form(SchmidtPair(SYM)).matrix
        assert abs(rho[0, 0] - 13 / 36) < 1e-12
        assert abs(rho[3, 3] - 13 / 36) < 1e-12
        assert abs(rho[0, 3] - 2 / 9) < 1e-12
        # |Phi+> is an eigenvector with eigenvalue 7/12
        phi_plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.max(np.abs(rho @ phi_plus - (7 / 12) * phi_plus)) < 1e-12

    def test_block_entries_at_a03(self):
        rho = rho_clone_closed_form(SchmidtPair(0.3)).matrix
        b = math.sqrt(0.91)
        assert abs(rho[0, 0] - (24 * 0.09 + 1) / 36) < 1e-15
        assert abs(rho[3, 3] - (24 * 0.91 + 1) / 36) < 1e-15
        assert abs(rho[0, 3] - 4 * 0.3 * b / 9) < 1e-15

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.6, SYM])
    def test_cross_diagonal_always_5_36(self, a):
        rho = rho_clone_closed_form(SchmidtPair(a)).matrix
        assert abs(rho[1, 1] - 5 / 36) < 1e-15
        assert abs(rho[2, 2] - 5 / 36) < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-15


class TestPipeline:
    def test_symmetric_point_copy(self):
        _, copy1, _ = local_clone_pipeline(SchmidtPair(SYM))
        expected = rho_clone_closed_form(SchmidtPair(SYM)).matrix
        assert np.allclose(np.diag(copy1.matrix), [13 / 36, 5 / 36, 5 / 36, 13 / 36])
        assert np.max(np.abs(copy1.matrix - expected)) < 1e-12

    def test_product_input_copy(self):
        # a = 1 admitted for testing: the input is |00>
        _, copy1, _ = local_clone_pipeline(SchmidtPair(1.0))
        assert np.allclose(
            copy1.matrix, np.diag([25 / 36, 5 / 36, 5 / 36, 1 / 36]), atol=1e-12
        )

    @pytest.mark.parametrize("a", [0.05, 0.37, 0.62])
    def test_output_is_a_state(self, a):
        eta, copy1, copy2 = local_clone_pipeline(SchmidtPair(a))
        assert abs(np.trace(copy1.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(copy1.matrix)[0] > -1e-12
        assert eta.labels == ("A", "A'", "Ae", "B", "B'", "Be")

    def test_alice_register_swap_changes_no_bit(self):
        # the cloner's image is symmetric in its two clones, so swapping
        # Alice's clone factors A and A' leaves the six-qubit output as it is;
        # the cloner's columns are real, so eta is built and stored in float64
        cloner = universal_clone_isometry().matrix
        assert not np.count_nonzero(cloner.imag)
        v = cloner.real
        for a in A_GRID:
            pair = SchmidtPair(float(a))
            out = ((v * (pair.a, pair.b)) @ v.T).ravel()  # V diag(a, b) V^T
            # the 64x4 map V (x) V agrees in the last bits
            assert np.max(np.abs(out - np.kron(v, v) @ schmidt_ket(pair).amplitudes)) <= 2.3e-16
            swapped = out.reshape((2,) * 6).transpose(1, 0, 2, 3, 4, 5).ravel()
            assert swapped.tobytes() == out.tobytes()
            eta, _, _ = local_clone_pipeline(pair)
            assert eta.matrix.dtype == np.float64
            assert eta.matrix.tobytes() == np.outer(out, out).tobytes()

    def test_closed_form_agreement_on_grid(self):
        worst_closed = 0.0
        for a in A_GRID:
            pair = SchmidtPair(float(a))
            _, copy1, copy2 = local_clone_pipeline(pair)
            # one state, returned twice: a write through either copy raises
            assert copy2 is copy1 and not copy1.matrix.flags.writeable
            expected = rho_clone_closed_form(pair).matrix
            worst_closed = max(worst_closed, float(np.max(np.abs(copy1.matrix - expected))))
        assert worst_closed < 1e-12

    def test_the_clones_are_exchangeable(self):
        # the (A', B') marginal, traced from eta here, is the returned copy, bit for bit
        for a in np.r_[A_GRID, np.linspace(0.0, 1.0, 201)]:
            eta, copy1, _ = local_clone_pipeline(SchmidtPair(float(a)))
            copy2 = trace_out(eta, ("A", "Ae", "B", "Be"))
            assert copy2.labels == ("A'", "B'")
            assert copy2.matrix.tobytes() == copy1.matrix.tobytes(), a


class TestCloneBound:
    def test_symmetric_point_is_log2_12_over_7(self):
        assert abs(clone_bound(SchmidtPair(SYM)) - LOG2_12_OVER_7) < 1e-9

    def test_matches_block_oracle(self):
        # frozen from the closed-form 2x2 oracle
        assert abs(clone_bound_oracle(0.3) - 0.619997096170148) < 1e-12
        assert abs(clone_bound(SchmidtPair(0.3)) - 0.619997096170148) < 1e-9
        for a in [0.1, 0.45, 0.6, SYM]:
            assert abs(clone_bound(SchmidtPair(a)) - clone_bound_oracle(a)) < 1e-10

    def test_near_crossover_branches_agree(self):
        record = clone_bound_combined(SchmidtPair(0.4282))
        assert abs(record.s_clone - record.e_r) < 1e-3

    def test_local_unitary_invariance_shadow(self):
        # rotate the input by U_A (x) U_B and the cloner bases by the same
        # local unitaries; the rebuilt relative entropy must not move
        rng = np.random.default_rng(53)
        pair = SchmidtPair(0.44)
        base = clone_bound(pair)
        v = universal_clone_isometry().matrix
        psi = schmidt_ket(pair).amplitudes
        for _ in range(5):
            raw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            us = [np.linalg.qr(raw[k])[0] for k in range(2)]
            ua, ub = us
            v_a = np.kron(np.kron(ua, ua), np.eye(2)) @ v @ ua.conj().T
            v_b = np.kron(np.kron(ub, ub), np.eye(2)) @ v @ ub.conj().T
            psi_rot = np.kron(ua, ub) @ psi
            out = np.kron(v_a, v_b) @ psi_rot
            rho = np.outer(out, out.conj())
            copy1 = la.partial_trace(rho, (2,) * 6, (1, 2, 4, 5))
            value = relative_entropy(
                projector(Ket(psi_rot, (2, 2))),
                LabeledState(copy1, (2, 2), ("A", "B")),
            )
            assert abs(value - base) < 1e-9


class TestCombinedBound:
    def test_symmetric_point_takes_clone_branch(self):
        record = clone_bound_combined(SchmidtPair(SYM))
        assert abs(record.e_r - 1.0) < 1e-9
        assert abs(record.combined - LOG2_12_OVER_7) < 1e-9

    def test_low_entanglement_takes_relative_entropy_branch(self):
        record = clone_bound_combined(SchmidtPair(0.3))
        assert abs(record.combined - 0.43646981706410287) < 1e-9
        assert record.combined == record.e_r

    def test_separable_limit_vanishes(self):
        assert clone_bound_combined(SchmidtPair(0.001)).combined < 1e-4

    def test_combined_never_exceeds_e_r(self):
        for a in A_GRID:
            record = clone_bound_combined(SchmidtPair(float(a)))
            assert record.combined <= record.e_r + 1e-15
            assert record.combined == min(record.e_r, record.s_clone)

    def test_headline_gap_below_one_ebit(self):
        assert clone_bound(SchmidtPair(SYM)) < 1.0 - 0.22


class TestCrossover:
    def test_location(self):
        root = crossover()
        assert 0.4272 <= root <= 0.4292

    def test_residual_small(self):
        root = crossover()
        record = clone_bound_combined(SchmidtPair(root))
        assert abs(record.e_r - record.s_clone) < 1e-6

    def test_bracket_signs(self):
        low = clone_bound_combined(SchmidtPair(0.3))
        assert low.e_r < low.s_clone  # gap f(0.3) < 0
        high = clone_bound_combined(SchmidtPair(SYM))
        assert abs((high.e_r - high.s_clone) - (1.0 - LOG2_12_OVER_7)) < 1e-9

    def test_bracket_ends_evaluated_once(self, monkeypatch):
        import dualent.cloning as cloning

        calls = []

        def counted(pair):
            calls.append(pair.a)
            return clone_bound_combined(pair)

        monkeypatch.setattr(cloning, "clone_bound_combined", counted)
        root = crossover()
        # both ends, then 22 halvings of the 0.25-wide bracket down to 1e-7
        assert len(calls) == 24
        assert calls.count(0.3) == calls.count(0.55) == 1
        assert 0.4272 <= root <= 0.4292

    def test_matches_brentq(self):
        from scipy.optimize import brentq

        def gap(a):
            record = clone_bound_combined(SchmidtPair(a))
            return record.e_r - record.s_clone

        assert abs(crossover() - brentq(gap, 0.3, 0.55, xtol=1e-7)) < 1e-7

    def test_no_sign_change_rejected(self, monkeypatch):
        import dualent.cloning as cloning

        calls = []

        def e_r_always_above(pair):
            calls.append(pair.a)
            return CloneBoundRecord(pair.a, 1.0, 0.5, 0.5)

        monkeypatch.setattr(cloning, "clone_bound_combined", e_r_always_above)
        with pytest.raises(ValueError, match="does not change sign"):
            crossover()
        assert calls == [0.3]
