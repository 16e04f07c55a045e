import math

import numpy as np
import pytest

from dualent import linalg as la
from dualent.nogo import measure_forget_channel, no_local_cloning_certificate
from dualent.qstate import Ket, LabeledState, SchmidtPair

H_036 = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))


def random_qubit_ket(rng):
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return Ket(raw / np.linalg.norm(raw), (2,))


def dilation_reference(alpha):
    """The channel's outputs the long way: the dilation ket a|00> + b|11> built
    by hand, its density matrix, and a partial trace of each side, validated."""
    dilated = np.zeros(4, dtype=alpha.amplitudes.dtype)
    dilated[0b00], dilated[0b11] = alpha.amplitudes
    rho = np.outer(dilated, dilated.conj())
    return (
        LabeledState(la.partial_trace(rho, (2, 2), (1,)), (2,), ("s",)),
        LabeledState(la.partial_trace(rho, (2, 2), (0,)), (2,), ("e",)),
    )


def assert_matches_reference(alpha):
    for state, oracle in zip(measure_forget_channel(alpha), dilation_reference(alpha)):
        assert state.labels == oracle.labels
        assert state.matrix.dtype == oracle.matrix.dtype
        assert np.array_equal(state.matrix, oracle.matrix)


class TestMeasureForget:
    def test_basis_state_undisturbed(self):
        system_out, env_out = measure_forget_channel(Ket(np.array([1.0, 0.0]), (2,)))
        assert np.allclose(system_out.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(env_out.matrix, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
        system_out, env_out = measure_forget_channel(plus)
        assert np.allclose(system_out.matrix, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(env_out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_explicit_dilation_oracle(self):
        alpha = Ket(np.array([0.6, 0.8]), (2,))
        assert_matches_reference(alpha)
        system_out, env_out = measure_forget_channel(alpha)
        assert np.allclose(system_out.matrix, np.diag([0.36, 0.64]), atol=1e-12)
        assert np.max(np.abs(system_out.matrix - env_out.matrix)) < 1e-12

    def test_environment_copies_system_for_200_random_kets(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            alpha = random_qubit_ket(rng)
            assert_matches_reference(alpha)
            system_out, env_out = measure_forget_channel(alpha)
            assert np.max(np.abs(system_out.matrix - env_out.matrix)) < 1e-12

    def test_family_kets_match_the_reference(self):
        for a in np.linspace(0, 1, 301):
            pair = SchmidtPair(a)
            assert_matches_reference(Ket(np.array([pair.a, pair.b]), (2,)))

    def test_rotated_basis(self):
        # measuring in the basis W is measuring W^dag |alpha> in the
        # computational basis, with the system rotated back by W
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        plus = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,))
        rotated_input = Ket(hadamard.conj().T @ plus.amplitudes, (2,))
        system_out, env_out = measure_forget_channel(rotated_input)
        # |+> is a basis state of the rotated measurement: undisturbed
        rotated = hadamard @ system_out.matrix @ hadamard.conj().T
        assert np.max(np.abs(rotated - np.outer(plus.amplitudes, plus.amplitudes.conj()))) < 1e-12
        # the two outputs agree in the measurement basis
        assert np.max(np.abs(system_out.matrix - env_out.matrix)) < 1e-12

    def test_non_qubit_rejected(self):
        with pytest.raises(ValueError, match="qubit"):
            measure_forget_channel(Ket(np.array([1.0, 0, 0, 0]), (2, 2)))

    def test_dilation_is_a_read_only_constant(self):
        from dualent import nogo

        # the Stinespring dilation of the real Kraus set {|0><0|, |1><1|},
        # built here: V[s * m + i, t] = A_i[s, t] with the environment trailing
        kraus = [np.diag(e) for e in np.eye(2)]
        dilation = np.stack(kraus).transpose(1, 0, 2).reshape(4, 2)
        assert nogo._MEASURE_FORGET.dtype == dilation.dtype
        assert nogo._MEASURE_FORGET.tobytes() == dilation.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            nogo._MEASURE_FORGET[0, 0] = 0.0
        system_out, _ = measure_forget_channel(Ket(np.array([0.6, 0.8]), (2,)))
        assert np.max(np.abs(system_out.matrix - np.diag([0.36, 0.64]))) <= 1e-15


class TestCloningCertificate:
    def test_symmetric_point(self):
        cert = no_local_cloning_certificate(SchmidtPair(1 / math.sqrt(2)))
        assert abs(cert.ed_input - 1.0) < 1e-9
        assert abs(cert.ed_required - 2.0) < 1e-9
        assert cert.contradiction

    def test_product_state_clonable(self):
        cert = no_local_cloning_certificate(SchmidtPair(0.0))
        assert cert == (0.0, 0.0, False)

    def test_value_at_a06(self):
        cert = no_local_cloning_certificate(SchmidtPair(0.6))
        assert abs(cert.ed_input - H_036) < 1e-12
        assert abs(cert.ed_required - 2 * H_036) < 1e-12
        assert cert.contradiction

    def test_contradiction_iff_entangled(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            a = float(rng.uniform(0.01, 1 / math.sqrt(2)))
            cert = no_local_cloning_certificate(SchmidtPair(a))
            assert cert.contradiction == (cert.ed_input > 1e-12)
        assert not no_local_cloning_certificate(SchmidtPair(0.0)).contradiction
