import math

import numpy as np
import pytest

from dualent import linalg as la
from dualent.nogo import (
    KrausSet,
    apply_kraus,
    measure_forget_channel,
    no_local_cloning_certificate,
    stinespring_isometry,
)
from dualent.qstate import Ket, SchmidtPair

H_036 = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))


def random_qubit_ket(rng):
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return Ket(raw / np.linalg.norm(raw), (2,))


def random_kraus_set(rng, dim, count):
    """Slice a random isometry into blocks; completeness is automatic."""
    raw = rng.standard_normal((dim * count, dim)) + 1j * rng.standard_normal(
        (dim * count, dim)
    )
    isometry, _ = np.linalg.qr(raw)
    blocks = isometry.reshape(dim, count, dim)
    return KrausSet(tuple(blocks[:, i, :] for i in range(count)))


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
        # build the dilation ket a|00> + b|11> by hand and trace each side
        a, b = 0.6, 0.8
        dilated = np.zeros(4, dtype=complex)
        dilated[0b00], dilated[0b11] = a, b
        rho = np.outer(dilated, dilated.conj())
        oracle_sys = la.partial_trace(rho, (2, 2), (1,))
        oracle_env = la.partial_trace(rho, (2, 2), (0,))
        system_out, env_out = measure_forget_channel(Ket(np.array([a, b]), (2,)))
        assert np.max(np.abs(system_out.matrix - oracle_sys)) < 1e-12
        assert np.max(np.abs(env_out.matrix - oracle_env)) < 1e-12
        assert np.allclose(system_out.matrix, np.diag([0.36, 0.64]), atol=1e-12)
        assert np.max(np.abs(system_out.matrix - env_out.matrix)) < 1e-12

    def test_environment_copies_system_for_200_random_kets(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            system_out, env_out = measure_forget_channel(random_qubit_ket(rng))
            assert np.max(np.abs(system_out.matrix - env_out.matrix)) < 1e-12

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

    def test_dilation_is_a_read_only_constant(self, monkeypatch):
        from dualent import nogo

        projectors = tuple(np.diag(e) for e in np.eye(2))
        assert np.array_equal(nogo._MEASURE_FORGET, stinespring_isometry(KrausSet(projectors)))
        with pytest.raises(ValueError, match="read-only"):
            nogo._MEASURE_FORGET[0, 0] = 0.0

        def refuse(*args):
            raise AssertionError("the fixed Kraus set was validated again")

        monkeypatch.setattr(nogo, "KrausSet", refuse)
        system_out, _ = measure_forget_channel(Ket(np.array([0.6, 0.8]), (2,)))
        assert np.max(np.abs(system_out.matrix - np.diag([0.36, 0.64]))) <= 1e-15


class TestStinespring:
    def test_identity_kraus_set(self):
        kraus = KrausSet((np.eye(2),))
        isometry = stinespring_isometry(kraus)
        assert isometry.shape == (2, 2)
        assert np.allclose(isometry, np.eye(2))

    def test_isometry_property(self):
        rng = np.random.default_rng(67)
        kraus = random_kraus_set(rng, 3, 2)
        isometry = stinespring_isometry(kraus)
        assert isometry.shape == (6, 3)
        assert np.max(np.abs(isometry.conj().T @ isometry - np.eye(3))) < 1e-12

    def test_projective_measurement_matches_measure_forget(self):
        kraus = KrausSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        isometry = stinespring_isometry(kraus)
        a, b = 0.6, 0.8
        rho = np.outer([a, b], [a, b])
        full = isometry @ rho @ isometry.conj().T
        system = la.partial_trace(full, (2, 2), (1,))
        system_out, _ = measure_forget_channel(Ket(np.array([a, b]), (2,)))
        assert np.max(np.abs(system - system_out.matrix)) < 1e-12

    @pytest.mark.parametrize("dim,count", [(2, 2), (2, 4), (3, 3), (4, 2)])
    def test_dilate_then_trace_roundtrip(self, dim, count):
        rng = np.random.default_rng(71 + dim + count)
        kraus = random_kraus_set(rng, dim, count)
        isometry = stinespring_isometry(kraus)
        for _ in range(5):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            dilated = la.partial_trace(
                isometry @ rho @ isometry.conj().T, (dim, count), (1,)
            )
            direct = apply_kraus(kraus, rho)
            assert np.max(np.abs(dilated - direct)) < 1e-12

    def test_incomplete_set_rejected_with_norm(self):
        with pytest.raises(ValueError, match=r"incomplete Kraus set.*\|\|"):
            KrausSet((np.diag([1.0, 0.0]),))


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
