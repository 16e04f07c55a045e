import collections
import math
import re

import mpmath
import numpy as np
import pytest
from conftest import projector
from hypothesis import given, settings
from hypothesis import strategies as st

from dualent import linalg as la
from dualent.cloning import (
    CloneIsometry,
    clone_bound_combined,
    local_clone_pipeline,
    rho_clone_closed_form,
)
from dualent.deleting import (
    delete_bound,
    local_delete_swap,
    schmidt_rank_nogo_check,
)
from dualent.nogo import measure_forget_channel, no_local_cloning_certificate
from dualent.qstate import (
    SCHMIDT_RANK_TOL,
    SUPPORT_LEAK_TOL,
    Ket,
    LabeledState,
    SchmidtPair,
    _pair_entropy,
    _pure_rel_entropy_grad,
    _pure_rel_entropy_on,
    relative_entropy,
    schmidt_decompose,
    schmidt_ket,
    trace_out,
    von_neumann_entropy,
)
from dualent.variational import LocalUnitary

# binary entropy by independent scalar formula (the entropy oracle)
H_036 = -(0.36 * math.log2(0.36) + 0.64 * math.log2(0.64))  # 0.9426831892554922

BELL = Ket(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2))
# the acceptance suite's grid over the family, and a log grid through the product limit
GRID_50 = np.linspace(0.01, 1 / math.sqrt(2), 50)
LOG_GRID = np.logspace(-14, 0, 57)


def coefficient_entropy(coefficients):
    """-sum s^2 log2 s^2 over Schmidt coefficients, in bits."""
    weights = coefficients**2
    return float(-(weights * np.log2(weights)).sum())


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

    @pytest.mark.parametrize(
        "a",
        [
            # float() reads text and bools as numbers, and drops a numpy complex's imaginary part
            "0.5", b"0.5", bytearray(b"0.5"), np.str_("0.5"), True, np.True_, np.complex128(0.5),
            # float() raises TypeError
            0.5 + 0j, None, [0.5],
        ],
    )
    def test_non_real_a_rejected(self, a):
        message = f"Schmidt coefficient must be a real number, got {a!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SchmidtPair(a)

    @pytest.mark.parametrize("a", [1, np.float32(0.5), np.float64(0.6), np.int64(0), np.array(0.6)])
    def test_real_numbers_of_any_type_admitted(self, a):
        pair = SchmidtPair(a)
        assert type(pair.a) is float and pair.a == float(a)

    def test_inconsistent_pair_rejected(self):
        # b is computed from a, so no b can be passed to contradict it
        with pytest.raises(TypeError):
            SchmidtPair(0.6, 0.9)
        with pytest.raises(TypeError):
            SchmidtPair(a=0.6, b=0.8)


class TestKetAndState:
    def test_zero_norm_ket_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            Ket(np.zeros(4), (2, 2))

    def test_state_validation(self):
        with pytest.raises(ValueError, match="trace"):
            LabeledState(np.eye(2), (2,), ("A",))
        # the trace is read in the stored dtype: a float for a real-valued state
        with pytest.raises(ValueError, match=r"^state trace is 1\.5, expected 1$"):
            LabeledState(np.diag([0.75, 0.75]), (2,), ("A",))
        with pytest.raises(ValueError, match=r"^state trace is \(1\.5\+0j\), expected 1$"):
            LabeledState(np.array([[0.75, 0.1j], [-0.1j, 0.75]]), (2,), ("A",))
        with pytest.raises(ValueError, match="distinct"):
            LabeledState(np.eye(4) / 4, (2, 2), ("A", "A"))
        with pytest.raises(ValueError, match=r"^2 dims but 1 labels$"):
            LabeledState(np.eye(4) / 4, (2, 2), ("A",))
        # a bare string is one label, not one label per character
        with pytest.raises(ValueError, match=r"^2 dims but 1 labels$"):
            LabeledState(np.eye(4) / 4, (2, 2), "AB")
        with pytest.raises(ValueError, match="not PSD"):
            LabeledState(np.diag([1.5, -0.5]), (2,), ("A",))
        # the real part [[0.5, 0], [0, 0.5]] is PSD; the matrix has eigenvalue -0.1
        with pytest.raises(ValueError, match=re.escape("not PSD: smallest eigenvalue -1.000e-01")):
            LabeledState(np.array([[0.5, 0.6j], [-0.6j, 0.5]]), (2,), ("A",))
        # the real part is Hermitian; the symmetric imaginary part is not
        with pytest.raises(ValueError, match=re.escape("state is not Hermitian: defect 2.000e-01")):
            LabeledState(np.array([[0.5, 0.1j], [0.1j, 0.5]]), (2,), ("A",))
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            LabeledState(np.full((2, 3), 0.5), (2,), ("A",))
        with pytest.raises(ValueError, match=r"^factor dimensions must be positive, got \(4, 1, 0\)$"):
            LabeledState(np.eye(4) / 4, (4, 1, 0), ("A", "B", "C"))
        # no dims multiply to 0, so a 0x0 matrix is refused before any defect is computed
        with pytest.raises(ValueError, match=r"^factor dimensions \(\) do not multiply to 0$"):
            LabeledState(np.zeros((0, 0)), (), ())

    def test_a_repeated_label_is_traced_out_once(self):
        eta = local_clone_pipeline(SchmidtPair(0.6))[0]
        once = trace_out(eta, ("A'", "Ae", "B'", "Be"))
        twice = trace_out(eta, ("A'", "A'", "Ae", "B'", "Be"))
        assert twice.labels == once.labels == ("A", "B")
        assert twice.matrix.tobytes() == once.matrix.tobytes()

    @pytest.mark.parametrize(
        "dims", [(2.9, 2), (2.5, 2), (np.float64(2.0), 2), ("4",), (True, 4), (np.True_, 4), 4]
    )
    def test_non_integral_dims_rejected(self, dims):
        # read with operator.index: a float or string dimension is refused, not
        # truncated, and so is a bool, which operator.index alone reads as 0 or
        # 1; a bare integer is not a tuple of dimensions
        with pytest.raises(ValueError, match="factor dimensions must be integers"):
            LabeledState(np.eye(4) / 4, dims, ("A", "B")[: np.size(dims)])
        with pytest.raises(ValueError, match="factor dimensions must be integers"):
            Ket(np.array([1.0, 0.0, 0.0, 0.0]), dims)

    def test_integer_dims_of_any_integer_type_accepted(self):
        for dims in ((2, 2), np.array([2, 2]), (np.int64(2), np.int32(2))):
            state = LabeledState(np.eye(4) / 4, dims, ("A", "B"))
            ket = Ket(np.array([1.0, 0.0, 0.0, 0.0]), dims)
            assert state.dims == ket.dims == (2, 2)
            assert all(type(d) is int for d in state.dims + ket.dims)


NAN = float("nan")


def _nan_off_diagonal():
    matrix = np.eye(2, dtype=complex) / 2
    matrix[0, 1] = matrix[1, 0] = NAN
    return matrix


@pytest.mark.parametrize(
    "build",
    [
        lambda: SchmidtPair(NAN),
        lambda: Ket(np.array([NAN, 0.0]), (2,)),
        lambda: LabeledState(np.diag([NAN, 0.5]), (2,), ("A",)),
        lambda: LabeledState(_nan_off_diagonal(), (2,), ("A",)),
        lambda: CloneIsometry(np.full((8, 2), NAN)),
    ],
    ids=[
        "schmidt-pair",
        "ket",
        "state-diagonal",
        "state-off-diagonal",
        "clone-isometry",
    ],
)
def test_nan_fails_tolerance_checks(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, argument, stored",
    [
        (lambda m: LabeledState(m, (2, 2), ("A", "B")), np.eye(4) / 4, "matrix"),
        (lambda m: LabeledState(m[0], (2,), ("A",)), np.eye(2)[None] / 2, "matrix"),
        (lambda a: Ket(a, (2,)), np.array([1.0, 0.0]), "amplitudes"),
        (lambda a: Ket(a, (2, 2)), np.eye(2, dtype=complex) / math.sqrt(2), "amplitudes"),
        (LocalUnitary, np.eye(2, dtype=complex), "matrix"),
        (CloneIsometry, np.eye(8)[:, [0, 6]], "matrix"),  # the basis copier
    ],
    ids=["state", "state-view", "ket", "ket-matrix", "local-unitary", "clone-isometry"],
)
def test_checked_arrays_are_owned_and_read_only(build, argument, stored):
    # a write to the argument after the check, or through the object, used to
    # change the checked array
    argument = argument.copy()
    checked = build(argument)
    before = getattr(checked, stored).copy()
    argument.reshape(-1)[0] = 7.0
    assert getattr(checked, stored).tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        getattr(checked, stored).reshape(-1)[0] = 7.0


class TestSchmidtKet:
    def test_symmetric_point_is_bell(self):
        ket = schmidt_ket(SchmidtPair(1 / math.sqrt(2)))
        assert np.allclose(ket.amplitudes, BELL.amplitudes)

    def test_density_matrix_is_rank_one(self):
        rho = projector(schmidt_ket(SchmidtPair(0.37)))
        values = np.linalg.eigvalsh(rho.matrix)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert sum(values > 1e-10) == 1

    def test_reduced_state_is_diagonal(self):
        rho = projector(schmidt_ket(SchmidtPair(0.6)), labels=("A", "B"))
        marginal = trace_out(rho, ("B",))
        assert np.allclose(marginal.matrix, np.diag([0.36, 0.64]), atol=1e-12)
        message = "unknown label in ('B', 'C'); state has ('A', 'B')"
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_out(rho, ("B", "C"))
        # a bare string is one label, so a two-character label is not split
        primed = projector(schmidt_ket(SchmidtPair(0.6)), labels=("A", "A'"))
        assert trace_out(primed, "A'").labels == ("A",)
        assert np.allclose(trace_out(primed, "A'").matrix, np.diag([0.36, 0.64]), atol=1e-12)


class TestDmFromKet:
    def test_basis_state(self):
        rho = projector(Ket(np.array([1.0, 0.0]), (2,)))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_bell_projector(self):
        rho = projector(BELL)
        assert rho.matrix.shape == (4, 4)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12

    def test_random_ket_idempotent(self):
        rng = np.random.default_rng(23)
        rho = projector(random_ket(rng, (2, 2)))
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12


class TestSchmidtDecompose:
    def test_bell_coefficients(self):
        coefficients = schmidt_decompose(BELL)
        assert coefficients.dtype == np.float64
        assert np.allclose(coefficients, [1 / math.sqrt(2)] * 2)

    def test_product_ket_is_rank_one(self):
        rng = np.random.default_rng(29)
        x = random_ket(rng, (2,))
        y = random_ket(rng, (2,))
        coefficients = schmidt_decompose(Ket(np.kron(x.amplitudes, y.amplitudes), (2, 2)))
        assert len(coefficients) == 1
        assert np.allclose(coefficients, [1.0])

    def test_two_copy_coefficients(self):
        # oracle: singular values of the explicitly constructed 4x4
        # amplitude matrix, [b^2, ab, ab, a^2] descending at a = 0.6
        psi = schmidt_ket(SchmidtPair(0.6))
        two = Ket(np.kron(psi.amplitudes, psi.amplitudes), (2, 2, 2, 2))
        coefficients = schmidt_decompose(two, cut=((0, 2), (1, 3)))
        assert np.allclose(coefficients, [0.64, 0.48, 0.48, 0.36], atol=1e-12)

    @pytest.mark.parametrize(
        "dims, cut",
        [((2, 2), ((0,), (1,))), ((2, 2, 2, 2), ((0, 2), (1, 3))), ((2, 3), ((0,), (1,)))],
    )
    def test_random_product_kets_are_rank_one(self, dims, cut):
        # a round-off zero singular value must not count toward the rank
        rng = np.random.default_rng(30)
        half = len(dims) // 2
        for _ in range(1000):
            x = random_ket(rng, dims[:half])
            y = random_ket(rng, dims[half:])
            amps = np.kron(x.amplitudes, y.amplitudes)
            if len(dims) == 4:  # factors (0, 1) | (2, 3) into the order 0, 2, 1, 3
                amps = amps.reshape(dims).transpose(0, 2, 1, 3).ravel()
            assert len(schmidt_decompose(Ket(amps, dims), cut)) == 1

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        ket = random_ket(rng, (2, 2))
        base = schmidt_decompose(ket)
        for _ in range(20):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            rotated = Ket(np.kron(u, v) @ ket.amplitudes, (2, 2))
            assert np.allclose(schmidt_decompose(rotated), base, atol=1e-9)

    def test_invalid_cut_rejected(self):
        with pytest.raises(ValueError, match="bipartition"):
            schmidt_decompose(BELL, cut=((0,), (0, 1)))
        # a float index is refused, not truncated to factor 0
        with pytest.raises(ValueError, match=re.escape("cut indices must be integers, got (0.5,)")):
            schmidt_decompose(BELL, cut=((0.5,), (1,)))
        # so is a bare index in place of a tuple of factors
        with pytest.raises(ValueError, match=re.escape("cut indices must be integers, got 0")):
            schmidt_decompose(schmidt_ket(SchmidtPair(0.6)), cut=(0, 1))
        # a cut of one side or of three is not a bipartition, whatever it covers
        for cut in [((0, 1),), ((0,), (1,), ())]:
            with pytest.raises(ValueError, match="not a bipartition of 2 factors"):
                schmidt_decompose(BELL, cut=cut)
        assert len(schmidt_decompose(BELL, cut=((np.int64(0),), (np.int64(1),)))) == 2


@pytest.fixture
def census(monkeypatch):
    """Validated constructions while a test runs, counted by (class, dims);
    the cloner, which has no dims, counts under (class, None)."""
    built = collections.Counter()
    for cls in (Ket, LabeledState, CloneIsometry):

        def counted(self, check=cls.__post_init__):
            built[type(self).__name__, tuple(getattr(self, "dims", ())) or None] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


class TestConstructionCensus:
    """Each pipeline validates what it returns and builds no other checked
    object than its inputs."""

    def test_rank_check_builds_only_psi(self, census):
        schmidt_rank_nogo_check(SchmidtPair(0.6))
        # psi, whose rank gives both; no four-qubit ket
        assert census == {("Ket", (2, 2)): 1}

    def test_clone_pipeline_builds_its_two_states(self, census):
        local_clone_pipeline(SchmidtPair(0.6))
        # eta and the one copy it returns twice; the amplitudes need no ket
        assert census == {("LabeledState", (2,) * 6): 1, ("LabeledState", (2, 2)): 1}

    def test_point_evaluation_builds_only_the_clone_bound_states(self, census, monkeypatch):
        calls = collections.Counter()

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(np.linalg, "eigvalsh")
        spy(la, "matrix_log2_on_support")
        pair = SchmidtPair(0.6)
        clone_bound_combined(pair)
        # psi as a ket and the closed-form copy; E_R needs no ket
        assert census == {("Ket", (2, 2)): 1, ("LabeledState", (2, 2)): 1}
        census.clear()
        delete_bound(pair)
        no_local_cloning_certificate(pair)
        assert not census
        # one logarithm, of the copy; the pure input's zero entropy takes no spectrum
        assert calls == {"matrix_log2_on_support": 1}

    def test_swap_deleter_and_measure_forget(self, census, monkeypatch):
        local_delete_swap(SchmidtPair(0.6))
        # psi for the scorer's targets, both outputs and the argmin ket
        assert census == {("Ket", (2, 2)): 2, ("LabeledState", (2, 2)): 2}
        census.clear()
        traces = []
        partial_trace = la.partial_trace

        def counted(*args, **kwargs):
            traces.append(args[1])
            return partial_trace(*args, **kwargs)

        monkeypatch.setattr(la, "partial_trace", counted)
        measure_forget_channel(Ket(np.array([0.6, 0.8]), (2,)))
        assert census == {("Ket", (2,)): 1, ("LabeledState", (2,)): 2}
        # both marginals come from the dilation's output ket, with no partial trace
        assert traces == []


SCHMIDT_SHAPES = [((dl, dr), ((0,), (1,))) for dl in (2, 3, 4) for dr in (2, 3, 4)]
SCHMIDT_SHAPES.append(((2, 2, 2, 2), ((0, 2), (1, 3))))


@st.composite
def schmidt_cases(draw):
    """A ket of known Schmidt form across its cut: coefficients >= 1e-3 on
    random isometries, rank drawn from 1 to min(d_L, d_R)."""
    dims, cut = draw(st.sampled_from(SCHMIDT_SHAPES))
    d_left = math.prod(dims[i] for i in cut[0])
    d_right = math.prod(dims[i] for i in cut[1])
    rank = draw(st.integers(1, min(d_left, d_right)))
    skew = draw(st.floats(1.0, 20.0))  # large skews push coefficients to the floor
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(rank) ** skew + 1e-300  # positive sum even if all underflow
    squares = 1e-6 + (1 - rank * 1e-6) * weights / weights.sum()
    coefficients = np.sort(np.sqrt(squares))[::-1]
    left = random_unitary(rng, d_left)[:, :rank]
    right = random_unitary(rng, d_right)[:, :rank]
    mat = (left * coefficients) @ right.T
    # the cut matrix is the ket regrouped as (cut[0], cut[1]); undo that regrouping
    order = cut[0] + cut[1]
    tensor = mat.reshape(tuple(dims[i] for i in order)).transpose(np.argsort(order))
    return Ket(tensor.ravel(), dims), cut, coefficients


class TestSchmidtProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(schmidt_cases())
    def test_decomposition(self, case):
        ket, cut, coefficients = case
        computed = schmidt_decompose(ket, cut)
        assert len(computed) == len(coefficients)
        assert np.max(np.abs(computed - coefficients)) <= 1e-12
        assert np.all(np.diff(computed) <= 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(schmidt_cases())
    def test_entanglement_is_the_entropy_of_each_marginal(self, case):
        ket, cut, _ = case
        state = projector(ket)
        value = coefficient_entropy(schmidt_decompose(ket, cut))
        for side in cut:
            marginal = trace_out(state, tuple(state.labels[i] for i in side))
            assert abs(value - von_neumann_entropy(marginal)) <= 1e-10


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(projector(BELL)) < 1e-12

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
        zero = projector(Ket(np.array([1.0, 0.0]), (2,)), labels=("A",))
        mixed = LabeledState(np.eye(2) / 2, (2,), ("A",))
        assert abs(relative_entropy(zero, mixed) - 1.0) < 1e-12

    def test_disjoint_supports_infinite(self):
        zero = projector(Ket(np.array([1.0, 0.0]), (2,)), labels=("A",))
        one = projector(Ket(np.array([0.0, 1.0]), (2,)), labels=("A",))
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
def psd_edge_states(draw):
    """(matrix, smallest): a Hermitian trace-one matrix of size 2, 4, 16 or 64
    whose spectrum holds ``smallest``, placed at a multiple of PSD_TOL on
    either side of -PSD_TOL and of 0, or far from both; the other eigenvalues
    are drawn in [0.1, 1.1) and scaled to make the trace one.  The eigenbasis
    is a unitary or a real orthogonal one, so the check meets the edges in
    complex and in real arithmetic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 4, 16, 64]))
    near = st.sampled_from([-2.0, -1.1, -0.9, -0.5, 0.0, 0.5]).map(lambda f: f * la.PSD_TOL)
    far = st.floats(1e-6, 1e-2) | st.floats(-1e-2, -1e-6)
    smallest = draw(near | far)
    rest = rng.random(n - 1) + 0.1
    values = np.r_[smallest, rest * (1.0 - smallest) / rest.sum()]
    real = draw(st.booleans())
    u = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else random_unitary(rng, n)
    matrix = (u * values) @ u.conj().T
    return (matrix + matrix.conj().T) / 2, float(values.min())


class TestPsdRule:
    """The state layer and the support log share one PSD tolerance."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(psd_edge_states())
    def test_accepts_exactly_when_eigvalsh_is_within_tolerance(self, case):
        matrix, placed = case
        smallest = float(np.linalg.eigvalsh(matrix)[0])
        # placed to 1e-13, so no case sits in the round-off band around -PSD_TOL
        assert abs(smallest - placed) <= 1e-13
        dims, labels = (len(matrix),), ("A",)
        if smallest >= -la.PSD_TOL:
            LabeledState(matrix, dims, labels)
        else:
            message = f"state is not PSD: smallest eigenvalue {smallest:.3e}"
            with pytest.raises(ValueError, match=re.escape(message)):
                LabeledState(matrix, dims, labels)

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.6, 1 / math.sqrt(2)])
    def test_pipeline_eta_passes_the_factorisation(self, a, monkeypatch):
        # the rank-1 64x64 outer product is accepted without the eigvalsh
        # fallback, and, being real-valued, is checked for Hermiticity and
        # factored in real arithmetic
        eta = local_clone_pipeline(SchmidtPair(a))[0]
        cholesky, defect, factored, checked = np.linalg.cholesky, la.hermiticity_defect, [], []

        def spy(matrix):
            factored.append(matrix.dtype)
            return cholesky(matrix)

        def defect_spy(matrix):
            checked.append(matrix.dtype)
            return defect(matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("the PSD check fell back to eigvalsh")

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        monkeypatch.setattr(la, "hermiticity_defect", defect_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        LabeledState(eta.matrix, eta.dims, eta.labels)
        assert factored == checked == [np.float64]

    def test_state_admitted_by_the_state_layer_has_a_log(self):
        from dualent.deleting import min_over_product_pure

        # smallest eigenvalue -5e-11: inside -PSD_TOL, outside the support
        sigma = LabeledState(np.diag([0.5, 0.3, 0.2 + 5e-11, -5e-11]), (2, 2), ("A", "B"))
        rho = projector(Ket(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2)))
        assert abs(relative_entropy(rho, sigma) - 1.0) < 1e-12
        value, _ = min_over_product_pure(sigma)
        assert abs(value - 1.0) < 1e-12


class TestRealValuedStorage:
    """A real-valued state or ket is stored, checked and used as float64;
    anything else, and every machine, as complex128."""

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.6, 1 / math.sqrt(2), 1.0])
    def test_the_real_family_builds_float64(self, a):
        from dualent.deleting import min_over_product_pure

        pair = SchmidtPair(a)
        eta, copy1, copy2 = local_clone_pipeline(pair)
        outcome = local_delete_swap(pair)
        system_out, env_out = measure_forget_channel(Ket(np.array([pair.a, pair.b]), (2,)))
        arrays = [
            schmidt_ket(pair).amplitudes,
            rho_clone_closed_form(pair).matrix,
            eta.matrix,
            copy1.matrix,
            copy2.matrix,
            outcome.out_ab.matrix,
            outcome.out_apbp.matrix,
            system_out.matrix,
            env_out.matrix,
            min_over_product_pure(outcome.out_apbp)[1].amplitudes,
        ]
        assert [m.dtype for m in arrays] == [np.float64] * len(arrays)

    def test_a_zero_imaginary_part_is_dropped(self):
        real = Ket(np.array([0.6, 0.8], dtype=complex), (2,))
        assert real.amplitudes.dtype == np.float64
        assert real.amplitudes.tolist() == [0.6, 0.8]
        state = LabeledState(np.eye(2, dtype=complex) / 2, (2,), ("A",))
        assert state.matrix.dtype == np.float64
        # the one rule widens complex64 too, so the coefficients are float64
        narrow = Ket(np.array([1, 0, 0, 0], dtype=np.complex64), (2, 2))
        assert schmidt_decompose(narrow).dtype == np.float64

    def test_single_precision_is_widened_then_checked_in_double(self):
        # float32 0.6 and 0.8 miss norm 1 by 2.4e-8 once widened, far beyond
        # the float64 tolerances; exactly representable values pass
        with pytest.raises(ValueError, match=r"^ket norm is 1\.000000023841858, expected 1$"):
            Ket(np.array([0.6, 0.8], dtype=np.float32), (2,))
        vector = np.array([0.6, 0.8], dtype=np.float32)
        with pytest.raises(ValueError, match=r"^state trace is 1\.0000000596046448, expected 1$"):
            LabeledState(np.outer(vector, vector), (2,), ("A",))
        ket = Ket(np.float32([1, 0]), (2,))
        assert ket.amplitudes.dtype == np.float64 and ket.amplitudes.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "amplitudes, stored",
        [
            ([0, 1, 0, 0], np.float64),
            (np.full(4, 0.5, dtype=np.float32), np.float64),
            (np.full(4, 0.5, dtype=np.complex64), np.float64),
            (np.array([0.5, 0.5j, -0.5, -0.5j], dtype=np.complex64), np.complex128),
        ],
        ids=["int-list", "float32", "complex64-real", "complex64"],
    )
    def test_every_input_type_is_stored_by_the_one_rule(self, amplitudes, stored):
        vector = np.asarray(amplitudes)
        matrix = np.outer(vector, vector.conj())
        argument = matrix.tolist() if isinstance(amplitudes, list) else matrix
        ket = Ket(amplitudes, (2, 2))
        state = LabeledState(argument, (2, 2), ("A", "B"))
        assert ket.amplitudes.dtype == state.matrix.dtype == stored
        assert np.array_equal(ket.amplitudes, vector) and np.array_equal(state.matrix, matrix)

    def test_a_nonzero_imaginary_part_stays_complex(self):
        ket = Ket(np.array([0.6, 0.8j]), (2,))
        assert ket.amplitudes.dtype == np.complex128
        system_out, env_out = measure_forget_channel(Ket(np.array([0.6, 0.8j]), (2,)))
        state = LabeledState(np.outer(ket.amplitudes, ket.amplitudes.conj()), (2,), ("A",))
        assert state.matrix.dtype == np.complex128
        # |0.8i|^2: the measured outputs are diagonal, so real-valued, either way
        assert system_out.matrix.dtype == env_out.matrix.dtype == np.float64
        nan_imaginary = np.eye(2, dtype=complex) / 2
        nan_imaginary[0, 1] = complex(0.0, NAN)
        with pytest.raises(ValueError, match="not Hermitian"):
            LabeledState(nan_imaginary, (2,), ("A",))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(psd_edge_states())
    def test_real_and_complex_input_get_the_same_verdict(self, case):
        matrix, _ = case
        verdicts = []
        for m in (matrix, matrix.astype(complex)):
            try:
                verdicts.append(LabeledState(m, (len(m),), ("A",)).matrix.dtype)
            except ValueError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]

    def test_machines_stay_complex(self):
        from dualent.cloning import universal_clone_isometry
        from dualent.variational import (
            LocalUnitary,
            cloner_seed_params,
            optimize_delete,
            swap_delete_seed,
        )

        machines = [*swap_delete_seed(), cloner_seed_params(), LocalUnitary(np.eye(4))]
        report = optimize_delete(SchmidtPair(0.6), restarts=1, seed=0, max_evals=5)
        matrices = [m.matrix for m in machines + list(report.best_params)]
        matrices.append(universal_clone_isometry().matrix)
        assert [m.dtype for m in matrices] == [np.complex128] * len(matrices)


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
    def test_klein_inequality(self, case):
        rho, sigma, _ = case
        assert relative_entropy(rho, sigma) >= -1e-10
        assert abs(relative_entropy(rho, rho)) <= 1e-10
        assert abs(relative_entropy(sigma, sigma)) <= 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(relative_entropy_pairs())
    def test_matches_the_two_log_trace(self, case):
        # reference: tr rho (log2 rho - log2 sigma) with both logs on support
        rho, sigma, _ = case
        log_rho, _ = la.matrix_log2_on_support(rho.matrix)
        log_sigma, _ = la.matrix_log2_on_support(sigma.matrix)
        expected = np.trace(rho.matrix @ (log_rho - log_sigma)).real
        assert abs(relative_entropy(rho, sigma) - expected) <= 1e-12

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


def _unit_combination(rng, columns):
    """A random unit vector in the span of ``columns``."""
    raw = columns @ (rng.standard_normal((columns.shape[1], 2)) @ [1, 1j])
    return raw / np.linalg.norm(raw)


@st.composite
def pure_target_cases(draw, off_support):
    """(v, sigma) on two qubits: sigma of rank 1-4 (1-3 when ``off_support``),
    drawn like the rho of :func:`relative_entropy_pairs`, and a unit v in its
    support, or with weight at least 1e-6 off it when ``off_support``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 3 if off_support else 4))
    columns = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    sigma = columns @ columns.conj().T
    # the first ``rank`` columns of q span the support, the rest its complement
    q, _ = np.linalg.qr(columns, mode="complete")
    vec = _unit_combination(rng, q[:, :rank])
    if off_support:
        leak = draw(st.floats(1e-6, 1.0))
        vec = math.sqrt(1 - leak) * vec + math.sqrt(leak) * _unit_combination(rng, q[:, rank:])
    return vec, LabeledState(sigma / np.trace(sigma).real, (2, 2), ("A", "B"))


class TestPureTargetKernel:
    """The search kernels' pure-target relative entropy and the state layer's
    :func:`relative_entropy` of the ket |v>, against that of the projector
    |v><v|."""

    @staticmethod
    def _state_layer(vec, sigma):
        return relative_entropy(projector(Ket(vec, (2, 2)), ("A", "B")), sigma)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pure_target_cases(off_support=False))
    def test_agrees_on_the_support(self, case):
        vec, sigma = case
        expected = self._state_layer(vec, sigma)
        assert math.isfinite(expected)
        kernel = _pure_rel_entropy_on(vec, *np.linalg.eigh(sigma.matrix))[0]
        assert abs(kernel - expected) <= 1e-12
        assert abs(relative_entropy(Ket(vec, (2, 2)), sigma) - expected) <= 1e-12
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(Ket(vec, (4,)), sigma)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pure_target_cases(off_support=True))
    def test_both_infinite_off_the_support(self, case):
        vec, sigma = case
        assert math.isinf(self._state_layer(vec, sigma))
        assert math.isinf(_pure_rel_entropy_on(vec, *np.linalg.eigh(sigma.matrix))[0])
        assert math.isinf(relative_entropy(Ket(vec, (2, 2)), sigma))


class TestSupportCutoff:
    """Moving an eigenvalue across the support level n eps lambda_max moves a
    pure-target score by at most ``SUPPORT_LEAK_TOL`` |log2 level|: a ket may
    carry at most that weight on an eigenvalue it does not count."""

    @pytest.mark.parametrize("n", [4, 64])
    def test_score_continuous_across_the_level(self, n):
        rng = np.random.default_rng(n)
        rest = rng.random(n - 1) + 0.1
        rest /= rest.sum()
        level = n * np.finfo(float).eps * rest.max()
        weight = 0.99 * SUPPORT_LEAK_TOL
        for _ in range(8):
            # weight on e_0, the rest on a random unit vector orthogonal to it
            vec = np.zeros(n, complex)
            vec[1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            vec *= math.sqrt(1 - weight) / np.linalg.norm(vec)
            vec[0] = math.sqrt(weight)
            scores = []
            for small, counted in ((1.01 * level, True), (0.99 * level, False)):
                # diagonal, so eigh returns these eigenvalues exactly
                values = np.r_[small, rest * (1 - small)]
                assert la.support_mask(np.sort(values))[0] == counted
                rho = np.diag(values).astype(complex)
                scores.append(_pure_rel_entropy_on(vec, *np.linalg.eigh(rho))[0])
            assert np.isfinite(scores).all()
            # measured: 5.08e-9 at n = 4 and 5.07e-9 at n = 64, against bounds of 5.13e-9
            # and 5.12e-9: the counted term -weight log2 lambda
            assert abs(scores[0] - scores[1]) <= SUPPORT_LEAK_TOL * abs(math.log2(level))


def _masked_rel_entropy_grad(vec, rho):
    """:func:`_pure_rel_entropy_grad` as masked in-place divides: every
    divided difference written only where its mask selects it."""
    values, vectors = np.linalg.eigh(rho)
    value, overlaps, on_support = _pure_rel_entropy_on(vec, values, vectors)
    low = np.minimum(values[..., :, None], values[..., None, :])
    high = np.maximum(values[..., :, None], values[..., None, :])
    gap = high - low
    both = on_support[..., :, None] & on_support[..., None, :]
    one = on_support[..., :, None] ^ on_support[..., None, :]
    zeros = np.zeros_like(gap)
    ratio = np.divide(gap, low, out=zeros.copy(), where=both)
    diff = np.divide(1.0, low, out=zeros.copy(), where=both)
    np.divide(np.log1p(ratio), gap, out=diff, where=both & (gap > 0))
    logs = np.log(high, out=zeros.copy(), where=one)
    np.divide(logs, gap, out=diff, where=one)
    inner = (diff / math.log(2.0)) * (overlaps[..., :, None] * overlaps[..., None, :].conj())
    return value, -(vectors @ inner @ vectors.conj().swapaxes(-1, -2))


class TestPureTargetGradient:
    def test_selecting_equals_masked_divides_byte_for_byte(self):
        # 1200 stacks of seven two-qubit states of rank 1-4, each stack
        # holding I/4 once, against unit targets in the support or drawn
        # at random: off-support eigenvalues, equal eigenvalues and every
        # mask combination occur
        rng = np.random.default_rng(149)
        shape = (1200, 7, 4, 4)
        columns = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        columns *= np.arange(4) < rng.integers(1, 5, shape[:2])[..., None, None]
        rho = columns @ columns.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        rho[np.arange(1200), np.arange(1200) % 7] = np.eye(4) / 4
        vec = np.where(
            rng.random(shape[:2] + (1,)) < 0.5,
            (columns @ rng.standard_normal(shape[:3] + (1,)))[..., 0],
            rng.standard_normal(shape[:3]) + 1j * rng.standard_normal(shape[:3]),
        )
        vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
        value, grad = _pure_rel_entropy_grad(vec, rho)
        expected_value, expected_grad = _masked_rel_entropy_grad(vec, rho)
        assert np.isinf(value).any() and np.isfinite(value).any()
        assert value.tobytes() == expected_value.tobytes()
        assert grad.tobytes() == expected_grad.tobytes()


class TestEntanglement:
    def test_bell_is_one_ebit(self):
        assert abs(_pair_entropy(SchmidtPair(1 / math.sqrt(2))) - 1.0) < 1e-12

    def test_product_is_zero(self):
        for a in (0.0, 1.0):
            assert _pair_entropy(SchmidtPair(a)) == 0.0

    def test_schmidt_family_value(self):
        assert abs(_pair_entropy(SchmidtPair(0.6)) - H_036) < 1e-12

    @pytest.mark.parametrize("a", [1e-9, 1e-7, 1e-5, 0.3])
    def test_entropy_exact_wherever_schmidt_rank_is_two(self, a):
        assert len(schmidt_decompose(schmidt_ket(SchmidtPair(a)))) == 2
        weight = a * a  # the other weight is 1 - a^2, its log by log1p
        exact = -(weight * math.log2(weight) + (1 - weight) * math.log1p(-weight) / math.log(2))
        assert abs(_pair_entropy(SchmidtPair(a)) - exact) <= 0.01 * exact

    def test_pair_entropy_matches_a_40_digit_reference(self):
        # h(a^2) wherever the Schmidt rank is 2, and 0 where it is 1, also
        # where b^2 = 1 - a^2 rounds to 1, below a ~ 1e-8
        for a in np.r_[GRID_50, LOG_GRID, np.logspace(-10, -4, 240)]:
            pair = SchmidtPair(float(a))
            value = _pair_entropy(pair)
            if min(pair.a, pair.b) <= SCHMIDT_RANK_TOL:
                assert value == 0.0, a
                continue
            with mpmath.workdps(40):
                w = mpmath.mpf(pair.a) ** 2
                exact = -(w * mpmath.log(w, 2) + (1 - w) * mpmath.log(1 - w, 2))
                assert abs(value - exact) <= 1e-14 * exact, a

    def test_additive_over_two_copies(self):
        psi = schmidt_ket(SchmidtPair(0.6))
        two = Ket(np.kron(psi.amplitudes, psi.amplitudes), (2, 2, 2, 2))
        double = coefficient_entropy(schmidt_decompose(two, cut=((0, 2), (1, 3))))
        assert abs(double - 2 * coefficient_entropy(schmidt_decompose(psi))) < 1e-9
