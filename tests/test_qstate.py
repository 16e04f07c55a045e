import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualent import linalg as la
from dualent.cloning import CloneIsometry
from dualent.nogo import KrausSet, measure_forget_channel
from dualent.qstate import (
    Ket,
    LabeledState,
    SchmidtPair,
    dm_from_ket,
    entropy_of_entanglement,
    rel_ent_entanglement_pure,
    relative_entropy,
    schmidt_decompose,
    schmidt_ket,
    trace_out,
    von_neumann_entropy,
)

# binary entropy by independent scalar formula (the entropy oracle)
H_036 = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))  # 0.9426831892554922
H_009 = -(0.09 * math.log2(0.09) + 0.91 * math.log2(0.91))  # 0.43646981706410287

BELL = Ket(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2))


def random_unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng, dims):
    size = int(np.prod(dims))
    raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Ket(raw / np.linalg.norm(raw), dims)


def random_state(rng, n, labels):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = raw @ raw.conj().T
    return LabeledState(m / np.trace(m).real, (n,), labels)


class TestSchmidtPair:
    def test_b_is_derived(self):
        pair = SchmidtPair(0.6)
        assert abs(pair.b - 0.8) < 1e-15

    def test_boundaries_admitted(self):
        assert SchmidtPair(0.0).b == 1.0
        assert SchmidtPair(1.0).b == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SchmidtPair(1.5)
        with pytest.raises(ValueError):
            SchmidtPair(-0.1)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            SchmidtPair(0.6, 0.9)
        with pytest.raises(ValueError, match="negative"):
            SchmidtPair(0.6, -0.8)


class TestKetAndState:
    def test_zero_norm_ket_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            Ket(np.zeros(4), (2, 2))

    def test_state_validation(self):
        with pytest.raises(ValueError, match="trace"):
            LabeledState(np.eye(2), (2,), ("A",))
        with pytest.raises(ValueError, match="distinct"):
            LabeledState(np.eye(4) / 4, (2, 2), ("A", "A"))
        with pytest.raises(ValueError, match="not PSD"):
            LabeledState(np.diag([1.5, -0.5]), (2,), ("A",))


NAN = float("nan")


def _nan_off_diagonal():
    matrix = np.eye(2, dtype=complex) / 2
    matrix[0, 1] = matrix[1, 0] = NAN
    return matrix


@pytest.mark.parametrize(
    "build",
    [
        lambda: SchmidtPair(0.6, NAN),
        lambda: Ket(np.array([NAN, 0.0]), (2,)),
        lambda: LabeledState(np.diag([NAN, 0.5]), (2,), ("A",)),
        lambda: LabeledState(_nan_off_diagonal(), (2,), ("A",)),
        lambda: KrausSet((np.diag([1.0, NAN]),)),
        lambda: CloneIsometry(np.full((8, 2), NAN)),
        lambda: la.hermitian_eig(_nan_off_diagonal()),
        lambda: measure_forget_channel(Ket(np.array([1.0, 0.0]), (2,)), np.diag([1.0, NAN])),
    ],
    ids=[
        "schmidt-pair",
        "ket",
        "state-diagonal",
        "state-off-diagonal",
        "kraus-set",
        "clone-isometry",
        "hermitian-eig",
        "measurement-basis",
    ],
)
def test_nan_fails_tolerance_checks(build):
    with pytest.raises(ValueError):
        build()


class TestSchmidtKet:
    def test_symmetric_point_is_bell(self):
        ket = schmidt_ket(SchmidtPair(1 / math.sqrt(2)))
        assert np.allclose(ket.amplitudes, BELL.amplitudes)

    def test_density_matrix_is_rank_one(self):
        rho = dm_from_ket(schmidt_ket(SchmidtPair(0.37)))
        values = np.linalg.eigvalsh(rho.matrix)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert sum(values > 1e-10) == 1

    def test_reduced_state_is_diagonal(self):
        rho = dm_from_ket(schmidt_ket(SchmidtPair(0.6)), labels=("A", "B"))
        marginal = trace_out(rho, ("B",))
        assert np.allclose(marginal.matrix, np.diag([0.36, 0.64]), atol=1e-12)


class TestDmFromKet:
    def test_basis_state(self):
        rho = dm_from_ket(Ket(np.array([1.0, 0.0]), (2,)))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_bell_projector(self):
        rho = dm_from_ket(BELL)
        assert rho.matrix.shape == (4, 4)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12

    def test_random_ket_idempotent(self):
        rng = np.random.default_rng(23)
        rho = dm_from_ket(random_ket(rng, (2, 2)))
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12


class TestSchmidtDecompose:
    def test_bell_coefficients(self):
        dec = schmidt_decompose(BELL)
        assert np.allclose(dec.coefficients, [1 / math.sqrt(2)] * 2)

    def test_product_ket_is_rank_one(self):
        rng = np.random.default_rng(29)
        x = random_ket(rng, (2,))
        y = random_ket(rng, (2,))
        dec = schmidt_decompose(Ket(np.kron(x.amplitudes, y.amplitudes), (2, 2)))
        assert dec.rank == 1
        assert np.allclose(dec.coefficients, [1.0])

    def test_two_copy_coefficients(self):
        # oracle: singular values of the explicitly constructed 4x4
        # amplitude matrix, [b^2, ab, ab, a^2] descending at a = 0.6
        psi = schmidt_ket(SchmidtPair(0.6))
        two = Ket(np.kron(psi.amplitudes, psi.amplitudes), (2, 2, 2, 2))
        dec = schmidt_decompose(two, cut=((0, 2), (1, 3)))
        assert np.allclose(dec.coefficients, [0.64, 0.48, 0.48, 0.36], atol=1e-12)

    def test_bases_orthonormal_and_reconstruct(self):
        rng = np.random.default_rng(31)
        ket = random_ket(rng, (2, 2))
        dec = schmidt_decompose(ket)
        lefts = np.array([k.amplitudes for k in dec.left_basis])
        rights = np.array([k.amplitudes for k in dec.right_basis])
        assert np.allclose(lefts @ lefts.conj().T, np.eye(dec.rank), atol=1e-10)
        assert np.allclose(rights @ rights.conj().T, np.eye(dec.rank), atol=1e-10)
        rebuilt = sum(
            s * np.kron(u, v) for s, u, v in zip(dec.coefficients, lefts, rights)
        )
        assert np.max(np.abs(rebuilt - ket.amplitudes)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        ket = random_ket(rng, (2, 2))
        base = schmidt_decompose(ket).coefficients
        for _ in range(20):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            rotated = Ket(np.kron(u, v) @ ket.amplitudes, (2, 2))
            assert np.allclose(
                schmidt_decompose(rotated).coefficients, base, atol=1e-9
            )

    def test_invalid_cut_rejected(self):
        with pytest.raises(ValueError, match="bipartition"):
            schmidt_decompose(BELL, cut=((0,), (0, 1)))


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(dm_from_ket(BELL)) < 1e-12

    def test_maximally_mixed_qubit(self):
        state = LabeledState(np.eye(2) / 2, (2,), ("A",))
        assert abs(von_neumann_entropy(state) - 1.0) < 1e-12

    def test_binary_entropy_value(self):
        state = LabeledState(np.diag([0.36, 0.64]), (2,), ("A",))
        assert abs(von_neumann_entropy(state) - H_036) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(41)
        state = LabeledState(np.diag([0.5, 0.3, 0.15, 0.05]), (4,), ("A",))
        base = von_neumann_entropy(state)
        for _ in range(100):
            u = random_unitary(rng, 4)
            rotated = LabeledState(u @ state.matrix @ u.conj().T, (4,), ("A",))
            assert abs(von_neumann_entropy(rotated) - base) < 1e-9


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(43)
        rho = random_state(rng, 2, ("A",))
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_pure_against_mixed(self):
        zero = dm_from_ket(Ket(np.array([1.0, 0.0]), (2,)), labels=("A",))
        mixed = LabeledState(np.eye(2) / 2, (2,), ("A",))
        assert abs(relative_entropy(zero, mixed) - 1.0) < 1e-12

    def test_disjoint_supports_infinite(self):
        zero = dm_from_ket(Ket(np.array([1.0, 0.0]), (2,)), labels=("A",))
        one = dm_from_ket(Ket(np.array([0.0, 1.0]), (2,)), labels=("A",))
        assert math.isinf(relative_entropy(zero, one))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            rho = random_state(rng, 2, ("A",))
            sigma = random_state(rng, 2, ("A",))
            value = relative_entropy(rho, sigma)
            assert value >= -1e-10
            if np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-9:
                assert value > 0.0

    def test_dimension_mismatch_rejected(self):
        rho = LabeledState(np.eye(2) / 2, (2,), ("A",))
        sigma = LabeledState(np.eye(4) / 4, (2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(rho, sigma)


@st.composite
def relative_entropy_pairs(draw):
    """(rho, sigma) on two qubits: rho of rank 1-4, sigma of full rank with
    its smallest eigenvalue at least mix / 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 4))
    mix = draw(st.floats(0.01, 1.0))
    columns = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = columns @ columns.conj().T
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sigma = raw @ raw.conj().T
    sigma = (1 - mix) * sigma / np.trace(sigma).real + mix * np.eye(4) / 4
    labels = ("A", "B")
    return (
        LabeledState(rho / np.trace(rho).real, (2, 2), labels),
        LabeledState(sigma, (2, 2), labels),
        random_unitary(rng, 4),
    )


class TestRelativeEntropyProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(relative_entropy_pairs())
    def test_unitary_invariance(self, case):
        rho, sigma, u = case
        moved = [
            LabeledState(u @ state.matrix @ u.conj().T, state.dims, state.labels)
            for state in (rho, sigma)
        ]
        assert abs(relative_entropy(*moved) - relative_entropy(rho, sigma)) <= 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(relative_entropy_pairs())
    def test_monotone_under_partial_trace(self, case):
        rho, sigma, _ = case
        whole = relative_entropy(rho, sigma)
        for label in ("A", "B"):
            traced = relative_entropy(trace_out(rho, (label,)), trace_out(sigma, (label,)))
            assert traced <= whole + 1e-9


class TestEntanglement:
    def test_bell_is_one_ebit(self):
        assert abs(entropy_of_entanglement(BELL) - 1.0) < 1e-12

    def test_product_is_zero(self):
        ket = Ket(np.array([0, 1, 0, 0], dtype=complex), (2, 2))
        assert entropy_of_entanglement(ket) < 1e-12

    def test_schmidt_family_value(self):
        assert abs(entropy_of_entanglement(schmidt_ket(SchmidtPair(0.6))) - H_036) < 1e-12

    def test_additive_over_two_copies(self):
        psi = schmidt_ket(SchmidtPair(0.6))
        two = Ket(np.kron(psi.amplitudes, psi.amplitudes), (2, 2, 2, 2))
        double = entropy_of_entanglement(two, cut=((0, 2), (1, 3)))
        assert abs(double - 2 * entropy_of_entanglement(psi)) < 1e-9

    def test_rel_ent_entanglement_values(self):
        assert abs(rel_ent_entanglement_pure(BELL) - 1.0) < 1e-12
        assert abs(rel_ent_entanglement_pure(schmidt_ket(SchmidtPair(0.3))) - H_009) < 1e-12
        product = Ket(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
        assert rel_ent_entanglement_pure(product) < 1e-12

    def test_rel_ent_rejects_mixed_input(self):
        mixed = LabeledState(np.eye(4) / 4, (2, 2), ("A", "B"))
        with pytest.raises(TypeError, match="pure"):
            rel_ent_entanglement_pure(mixed)
