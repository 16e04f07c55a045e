import itertools
import math

import numpy as np
import pytest

from dualent import linalg as la


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return raw + raw.conj().T


def random_psd(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return raw @ raw.conj().T


def test_hermitian_eig_identity():
    values, _ = la.hermitian_eig(np.eye(2))
    assert np.allclose(values, [1.0, 1.0])


def test_hermitian_eig_pauli_x():
    values, _ = la.hermitian_eig(np.array([[0, 1], [1, 0]]))
    assert np.allclose(values, [-1.0, 1.0])


def test_hermitian_eig_reconstruction_random_8x8():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 8)
    values, vectors = la.hermitian_eig(m)
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.max(np.abs(rebuilt - m)) < 1e-10
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(8))) < 1e-10
    assert np.all(np.diff(values) >= 0)


def test_hermitian_eig_names_the_size_it_failed_on(monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(RuntimeError, match=r"^eigendecomposition did not converge on a 4x4 matrix$"):
        la.hermitian_eig(np.eye(4) / 4)


def test_log2_of_maximally_mixed_qubit():
    log, projector = la.matrix_log2_on_support(np.eye(2) / 2)
    assert np.allclose(log, -np.eye(2), atol=1e-12)
    assert np.allclose(projector, np.eye(2), atol=1e-12)


def test_log2_on_support_of_rank_deficient():
    log, projector = la.matrix_log2_on_support(np.diag([1.0, 0.0]))
    assert np.allclose(log, np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(projector, np.diag([1.0, 0.0]), atol=1e-12)


def test_log2_treats_round_off_negative_as_zero():
    # a checked state may carry eigenvalues down to -PSD_TOL; they fall off the support
    log, projector = la.matrix_log2_on_support(np.diag([-1e-14, 1.0]))
    assert np.allclose(log, np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(projector, np.diag([0.0, 1.0]), atol=1e-12)


def test_frozen_is_an_owned_read_only_c_copy():
    # a Fortran-ordered argument, and one already read-only, each come back as a new array
    source = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    locked = source.copy()
    locked.setflags(write=False)
    for argument in (source, locked):
        out = la._frozen(argument)
        assert out.flags.c_contiguous and not out.flags.writeable
        assert not np.may_share_memory(out, argument)
        assert out.tolist() == argument.tolist()
    out = la._frozen(source)
    source[0, 0] = 7.0
    assert out[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0] = 1.0


def test_log2_of_powers_of_two():
    log, _ = la.matrix_log2_on_support(np.diag([4.0, 2.0]))
    assert np.allclose(log, np.diag([2.0, 1.0]), atol=1e-12)


def test_log2_powers_of_two_sweep():
    ks = np.arange(-10, 11, dtype=float)
    log, _ = la.matrix_log2_on_support(np.diag(2.0 ** ks))
    assert np.max(np.abs(log - np.diag(ks))) < 1e-12


def test_support_level_scales_with_length_and_top_eigenvalue():
    # rows of one stack, each decided by its own level n eps lambda_max
    eps = np.finfo(float).eps
    values = np.array([[0.0, 0.99, 1.01, 1.0], [0.0, 1.98, 2.02, 2.0]]) * 4 * eps
    values[:, -1] = [1.0, 2.0]
    assert la.support_mask(values).tolist() == [[False, False, True, True]] * 2
    long = np.r_[np.zeros(62), 63 * eps, 1.0]
    assert not la.support_mask(long)[-2]


def test_partial_trace_bell_marginal():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(la.partial_trace(rho, (2, 2), (1,)), np.eye(2) / 2)


def test_partial_trace_factorizes_products():
    rng = np.random.default_rng(13)
    rho = random_psd(rng, 2)
    sigma = random_psd(rng, 3)
    reduced = la.partial_trace(np.kron(rho, sigma), (2, 3), (1,))
    assert np.allclose(reduced, rho * np.trace(sigma))


def test_partial_trace_two_copies_by_direct_contraction():
    # psi x psi over (A, B, A', B'), discarding (A', B'), against an
    # index-by-index contraction oracle
    a = 0.6
    b = math.sqrt(1 - a * a)
    psi = np.array([a, 0, 0, b], dtype=complex)
    two = np.kron(psi, psi)
    rho = np.outer(two, two.conj())
    reduced = la.partial_trace(rho, (2, 2, 2, 2), (2, 3))
    tensor = two.reshape(2, 2, 2, 2)
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    acc = 0.0
                    for p in range(2):
                        for q in range(2):
                            acc += tensor[i, j, p, q] * np.conj(tensor[k, l, p, q])
                    oracle[2 * i + j, 2 * k + l] = acc
    assert np.max(np.abs(reduced - oracle)) < 1e-14
    assert np.allclose(reduced, np.outer(psi, psi.conj()))


def test_partial_trace_preserves_trace_and_full_discard():
    rng = np.random.default_rng(17)
    m = random_psd(rng, 8)
    reduced = la.partial_trace(m, (2, 2, 2), (0, 2))
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-10
    everything = la.partial_trace(m, (2, 2, 2), (0, 1, 2))
    assert everything.shape == (1, 1)
    assert abs(everything[0, 0] - np.trace(m)) < 1e-10


def test_partial_trace_recovers_kron_factors():
    rng = np.random.default_rng(19)
    for _ in range(100):
        rho = random_psd(rng, 2)
        sigma = random_psd(rng, 2)
        product = np.kron(rho, sigma)
        left = la.partial_trace(product, (2, 2), (1,))
        right = la.partial_trace(product, (2, 2), (0,))
        assert np.allclose(left, rho * np.trace(sigma), atol=1e-10)
        assert np.allclose(right, sigma * np.trace(rho), atol=1e-10)


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError, match=r"factor dimensions \(2, 3\) do not multiply to 4"):
        la.partial_trace(np.eye(4), (2, 3), (0,))
    with pytest.raises(ValueError, match="must be positive"):
        la.partial_trace(np.eye(4), (4, 1, 0), (0,))
    with pytest.raises(ValueError, match=r"discard indices \[5\] out of range for 2 factors"):
        la.partial_trace(np.eye(4), (2, 2), (5,))
    with pytest.raises(ValueError, match=r"discard indices \[-1, 0\] out of range"):
        la.partial_trace(np.eye(4), (2, 2), (0, -1))
    # a float index is refused, not truncated to factor 1
    with pytest.raises(ValueError, match=r"discard indices must be integers, got \(1.7,\)"):
        la.partial_trace(np.eye(4) / 4, (2, 2), (1.7,))
    with pytest.raises(ValueError, match=r"factor dimensions must be integers, got \(2.0, 2\)"):
        la.partial_trace(np.eye(4) / 4, (2.0, 2), (1,))


def partial_trace_per_factor(matrix, dims, discard):
    """Reference: one ``np.trace`` per discarded factor, the last one first."""
    tensor = matrix.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(discard, reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    size = math.prod(remaining)
    return tensor.reshape(size, size)


@pytest.mark.parametrize("dims", [(2,) * 6, (2, 3, 2), (2, 2, 2, 2), (3,)])
def test_partial_trace_matches_per_factor_traces_on_every_subset(dims):
    rng = np.random.default_rng(23)
    m = random_psd(rng, math.prod(dims))
    m /= np.trace(m).real
    for count in range(len(dims) + 1):
        for discard in itertools.combinations(range(len(dims)), count):
            reduced = la.partial_trace(m, dims, discard)
            reference = partial_trace_per_factor(m, dims, discard)
            assert reduced.shape == reference.shape
            assert np.max(np.abs(reduced - reference)) <= 1e-14
    everything = la.partial_trace(m, dims, range(len(dims)))
    assert everything.shape == (1, 1)
    assert abs(everything[0, 0] - np.trace(m)) <= 1e-14


def test_one_isometry_rule_decides_both_machine_types(monkeypatch):
    # a unitary and the cloner, each moved 1e-9 off its isometry: rejected
    # under ISOMETRY_TOL, admitted when it is loosened, and the exact ones
    # rejected when it is tightened below their round-off
    from dualent.cloning import CloneIsometry, universal_clone_isometry
    from dualent.variational import LocalUnitary

    rng = np.random.default_rng(163)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v = universal_clone_isometry().matrix
    cases = [(LocalUnitary, u), (CloneIsometry, v)]
    bent = [(cls, m + 1e-9 * rng.standard_normal(m.shape)) for cls, m in cases]
    assert all(la.isometry_defect(m) > 1e-10 for _, m in bent)
    for cls, m in bent:
        with pytest.raises(ValueError):
            cls(m)
    monkeypatch.setattr(la, "ISOMETRY_TOL", 1e-6)
    for cls, m in bent:
        cls(m)
    monkeypatch.setattr(la, "ISOMETRY_TOL", 0.0)
    assert all(la.isometry_defect(m) > 0.0 for _, m in cases)
    for cls, m in cases:
        with pytest.raises(ValueError, match="not (unitary|orthonormal)"):
            cls(m)


def test_hermiticity_defect_is_the_same_in_real_and_complex_arithmetic():
    # LabeledState checks a real-valued state on its float64 copy
    rng = np.random.default_rng(5)
    for n in (2, 4, 64):
        m = rng.standard_normal((n, n))
        assert la.hermiticity_defect(m) == la.hermiticity_defect(m.astype(complex)) > 0.0
        assert la.hermiticity_defect(m + m.T) == 0.0


def test_as_matrix_keeps_real_input_real():
    m = np.eye(2)
    assert la.as_matrix(m) is m
    assert la.as_matrix([[1, 0], [0, 1]]).dtype == np.float64
    assert la.as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert la.as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    # complex input stays complex here, a zero imaginary part included
    assert la.as_matrix(np.eye(2, dtype=complex)).dtype == np.complex128
    values, vectors = la.hermitian_eig(np.diag([2.0, 1.0]))
    assert values.dtype == vectors.dtype == np.float64
