import math

import numpy as np
import pytest
from conftest import haar_unitary, projector
from hypothesis import given, settings
from hypothesis import strategies as st

from dualent import linalg as la
from dualent.cloning import clone_bound_combined
from dualent.deleting import (
    SchmidtRankCheck,
    _min_product_pure_matrix,
    delete_bound,
    global_delete,
    local_delete_swap,
    min_over_product_pure,
    schmidt_rank_nogo_check,
    two_copy_ket,
)
from dualent.qstate import (
    SCHMIDT_RANK_TOL,
    Ket,
    LabeledState,
    SchmidtPair,
    _pure_rel_entropy_on,
    schmidt_ket,
)
from dualent.variational import delete_objective, optimize_delete, swap_delete_seed

SYM = 1 / math.sqrt(2)
A_GRID = np.linspace(0.01, SYM, 50)


def delete_terms_oracle(a):
    """Scalar-formula route: the swap output is diagonal, so both terms are
    plain sums of logs; the product minimum sits at a corner of the
    bilinear landscape, which for b >= a is |11>."""
    b = math.sqrt(1 - a * a)
    diag = [a**4, a * a * b * b, a * a * b * b, b**4]
    keep = -(a * a * math.log2(diag[0]) + b * b * math.log2(diag[3]))
    separable = min(-math.log2(d) for d in diag)
    return keep, separable, 0.5 * (keep + separable)


class TestLocalDeleteSwap:
    def test_symmetric_point(self):
        out = local_delete_swap(SchmidtPair(SYM))
        assert np.allclose(out.out_ab.matrix, np.eye(4) / 4, atol=1e-12)
        assert abs(out.objective - 2.0) < 1e-9

    def test_values_at_a06(self):
        # frozen from the scalar oracle: keep = 1.8853663785109844,
        # separable = 1.2877123795494492, objective = 1.5865393790302167
        keep, separable, objective = delete_terms_oracle(0.6)
        assert abs(keep - 1.8853663785109844) < 1e-12
        assert abs(separable - 1.2877123795494492) < 1e-12
        out = local_delete_swap(SchmidtPair(0.6))
        assert abs(out.term_keep - keep) < 1e-10
        assert abs(out.term_separable - separable) < 1e-9
        assert abs(out.objective - 1.5865393790302167) < 1e-9

    def test_output_matrices(self):
        a, b = 0.6, 0.8
        out = local_delete_swap(SchmidtPair(a))
        expected = np.diag([a**4, a * a * b * b, a * a * b * b, b**4])
        assert np.max(np.abs(out.out_ab.matrix - expected)) < 1e-12
        assert np.max(np.abs(out.out_apbp.matrix - expected)) < 1e-12

    def test_separable_limit(self):
        assert local_delete_swap(SchmidtPair(0.01)).objective < 0.01

    def test_global_spectrum_preserved(self):
        # the deleter is unitary, so the four-qubit output stays pure
        pair = SchmidtPair(0.6)
        ket = two_copy_ket(pair)
        swapped = ket.amplitudes.reshape(ket.dims).transpose(2, 1, 0, 3).ravel()
        values = np.linalg.eigvalsh(np.outer(swapped, swapped.conj()))
        expected = np.zeros(16)
        expected[-1] = 1.0
        assert np.max(np.abs(np.sort(values) - expected)) < 1e-10


class TestDeleteBound:
    def test_symmetric_point_is_two(self):
        assert abs(delete_bound(SchmidtPair(SYM)) - 2.0) < 1e-9

    def test_value_at_a06(self):
        assert abs(delete_bound(SchmidtPair(0.6)) - 1.5865393790302167) < 1e-10

    def test_separable_limit(self):
        assert delete_bound(SchmidtPair(0.001)) < 1e-4

    def test_convention_enforced(self):
        with pytest.raises(ValueError, match="b >= a"):
            delete_bound(SchmidtPair(0.9))

    def test_matches_swap_machine_on_grid(self):
        for a in A_GRID:
            pair = SchmidtPair(float(a))
            assert abs(local_delete_swap(pair).objective - delete_bound(pair)) < 1e-10

    def test_strictly_increasing(self):
        values = [delete_bound(SchmidtPair(float(a))) for a in A_GRID]
        assert all(later > earlier for earlier, later in zip(values, values[1:]))

    def test_dominates_cloning_bound(self):
        for a in A_GRID:
            pair = SchmidtPair(float(a))
            assert delete_bound(pair) >= clone_bound_combined(pair).combined - 1e-12


class TestSchmidtPairEdges:
    """The product ends of the family, and a on the wrong side of b."""

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_combined_cloning_bound_vanishes_on_products(self, a):
        assert clone_bound_combined(SchmidtPair(a)).combined == 0.0

    def test_deleting_bound_vanishes_on_the_product(self):
        assert delete_bound(SchmidtPair(0.0)) == 0.0

    def test_scores_at_the_product_end_are_never_negative(self):
        # relative entropies are clamped where they are formed, so round-off
        # gives neither -0.0 nor a tiny negative score
        out = local_delete_swap(SchmidtPair(0.0))
        for value in (out.term_keep, out.term_separable, out.objective):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        eleven = projector(Ket(np.eye(4)[3], (2, 2)), labels=("A", "B"))
        value, _ = min_over_product_pure(eleven)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert delete_objective(SchmidtPair(1e-12), *swap_delete_seed()) >= 0.0

    @pytest.mark.parametrize(
        "deleting",
        [delete_bound, lambda pair: optimize_delete(pair, restarts=1, seed=1).best_objective],
        ids=["delete_bound", "optimize_delete"],
    )
    def test_rounding_of_the_symmetric_point_reads_as_it(self, deleting):
        # read as it is, 8.1e-10 above 1/sqrt(2), the swap's best product
        # target would be |00>, not |11>, and the |11> score 2 + 3.3e-9
        assert deleting(SchmidtPair(0.707106782)) == deleting(SchmidtPair(SYM))

    @pytest.mark.parametrize("a", [0.8, 1.0])
    @pytest.mark.parametrize(
        "deleting",
        [delete_bound, lambda pair: optimize_delete(pair, restarts=1, seed=1, max_evals=10)],
        ids=["delete_bound", "optimize_delete"],
    )
    def test_wrong_convention_rejected(self, deleting, a):
        with pytest.raises(ValueError, match="convention b >= a violated"):
            deleting(SchmidtPair(a))


def _every_support_eigenvector_minimum(matrix):
    """The product minimum of a state with a product top eigenvector, scored
    the long way: the product part of every support eigenvector, by the
    shared kernel, and the smallest score."""
    values, vectors = np.linalg.eigh(matrix)
    kets = vectors[:, la.support_mask(values)].T
    u, _, vh = np.linalg.svd(kets.reshape(-1, 2, 2))
    products = (u[..., :1] * vh[..., :1, :]).reshape(-1, 4)
    return _pure_rel_entropy_on(products, values, vectors)[0].min()


def _product_top_state(rng):
    """A full-rank state whose top eigenvector is a product ket x (x) y: a Haar
    frame with x (x) y as its first column, re-orthonormalised, and a drawn
    spectrum whose largest eigenvalue goes to that column."""
    x, y = haar_unitary(rng, 2)[:, 0], haar_unitary(rng, 2)[:, 0]
    frame = haar_unitary(rng, 4)
    frame[:, 0] = np.kron(x, y)
    frame = np.linalg.qr(frame)[0]
    values = np.sort(rng.random(4) + 0.05)[::-1]
    matrix = (frame * values) @ frame.conj().T
    return (matrix + matrix.conj().T) / (2 * values.sum())


class TestJensenExit:
    """A product top eigenvector is the product minimiser, so it is the one
    candidate scored, with the value every support eigenvector gives."""

    def test_swap_outputs_keep_their_value_bit_for_bit(self):
        for a in A_GRID:
            out = local_delete_swap(SchmidtPair(float(a)))
            assert out.term_separable == _every_support_eigenvector_minimum(out.out_apbp.matrix)

    def test_product_top_states_score_one_candidate(self, monkeypatch):
        from dualent import deleting

        scored = []

        def spy(kets, values, vectors):
            scored.append(len(kets))
            return _pure_rel_entropy_on(kets, values, vectors)

        def refuse(*args):
            raise AssertionError("a product top eigenvector entered the sphere search")

        monkeypatch.setattr(deleting, "_pure_rel_entropy_on", spy)
        monkeypatch.setattr(deleting, "_sphere_search", refuse)
        rng = np.random.default_rng(7)
        for _ in range(50):
            matrix = _product_top_state(rng)
            value = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))[0]
            assert value == _every_support_eigenvector_minimum(matrix)
        assert scored == [1] * 50

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.6, SYM])
    def test_swap_outputs_take_one_svd(self, a, monkeypatch):
        # the factors of the top eigenvector decide the exit and are its candidate
        out = local_delete_swap(SchmidtPair(a)).out_apbp
        svd, shapes = np.linalg.svd, []

        def spy(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        min_over_product_pure(out)
        assert shapes == [(1, 2, 2)]

    def test_entangled_top_eigenvector_enters_the_sphere_search(self, monkeypatch):
        # Bell-diagonal, full rank, top eigenvector |Phi+>: |00> reaches the
        # two largest eigenvalues with weight 1/2 each, which no product ket beats
        from dualent import deleting

        searched = []

        def spy(values, vectors, rank):
            searched.append(rank)
            return sphere_search(values, vectors, rank)

        sphere_search = deleting._sphere_search
        monkeypatch.setattr(deleting, "_sphere_search", spy)
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).T / math.sqrt(2)
        matrix = (bell * [0.4, 0.3, 0.2, 0.1]) @ bell.T
        value, _ = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))
        assert searched == [4]
        assert abs(value + 0.5 * math.log2(0.4 * 0.3)) <= 1e-12

    def test_argmin_ket_is_the_kron_of_its_factors(self):
        rng = np.random.default_rng(11)
        states = [local_delete_swap(SchmidtPair(float(a))).out_apbp.matrix for a in A_GRID[::7]]
        states += [_product_top_state(rng) for _ in range(5)]
        for matrix in states:
            _, x, y = _min_product_pure_matrix(matrix)
            ket = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))[1]
            assert ket.amplitudes.tobytes() == np.kron(x, y).tobytes()

    def test_tied_spectrum_returns_the_top_eigenvector(self):
        # at a = 1/sqrt(2) the swap output is I/4: all four eigenvalues tie
        out = local_delete_swap(SchmidtPair(SYM)).out_apbp
        value, ket = min_over_product_pure(out)
        assert abs(value - 2.0) <= 1e-12
        u, _, vh = np.linalg.svd(np.linalg.eigh(out.matrix)[1][:, -1].reshape(2, 2))
        assert np.array_equal(ket.amplitudes, np.kron(u[:, 0], vh[0]))


class TestMinOverProductPure:
    def test_swap_output_minimum_at_11(self):
        out = local_delete_swap(SchmidtPair(0.6))
        value, argmin = min_over_product_pure(out.out_apbp)
        assert abs(value - 1.2877123795494492) < 1e-9  # -4 log2(0.8)
        assert abs(abs(argmin.amplitudes[3]) - 1.0) < 1e-6

    def test_swap_outputs_never_enter_the_sphere_search(self, monkeypatch):
        # every grid swap output is diagonal, so its top eigenvector is a
        # product basis ket, which Jensen's inequality makes the minimiser
        from dualent import deleting

        def refuse(*args):
            raise AssertionError("a swap output entered the sphere search")

        monkeypatch.setattr(deleting, "_sphere_search", refuse)
        for a in A_GRID:
            out = local_delete_swap(SchmidtPair(float(a)))
            assert abs(out.term_separable - delete_terms_oracle(float(a))[1]) <= 1e-12

    def test_flat_spectrum(self):
        state = LabeledState(np.eye(4) / 4, (2, 2), ("A", "B"))
        value, _ = min_over_product_pure(state)
        assert abs(value - 2.0) < 1e-12

    def test_pure_product_diagonal(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0] = 1.0
        value, argmin = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))
        assert abs(value) < 1e-12
        assert abs(abs(argmin.amplitudes[0]) - 1.0) < 1e-9

    def test_entangled_pure_target_unreachable(self):
        bell = Ket(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2))
        value, _ = min_over_product_pure(projector(bell, labels=("A", "B")))
        assert math.isinf(value)

    def test_grid_oracle_agreement(self):
        # coarse brute-force over Bloch angles can only do worse
        rng = np.random.default_rng(59)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix = raw @ raw.conj().T
        state = LabeledState(matrix / np.trace(matrix).real, (2, 2), ("A", "B"))
        value, _ = min_over_product_pure(state)
        w, v = np.linalg.eigh(state.matrix)
        log_m = (v * np.log2(w)) @ v.conj().T
        thetas = np.linspace(0, math.pi / 2, 25)
        phis = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        singles = np.array(
            [
                [math.cos(t), math.sin(t) * np.exp(1j * p)]
                for t in thetas
                for p in phis
            ]
        )
        kets = np.einsum("ai,bj->abij", singles, singles).reshape(-1, 4)
        brute = float(np.min(-np.einsum("ki,ij,kj->k", kets.conj(), log_m, kets).real))
        assert value <= brute + 1e-9
        assert value >= brute - 0.01  # the coarse grid is near the true min

    def test_wrong_dimension_rejected(self):
        state = LabeledState(np.eye(2) / 2, (2,), ("A",))
        with pytest.raises(ValueError, match="two-qubit"):
            min_over_product_pure(state)


def _bloch_grid_kets(n_theta=13, n_phi=24):
    """Single-qubit kets on a polar-angle x azimuth grid of the Bloch sphere."""
    theta = np.linspace(0.0, math.pi, n_theta)[:, None]
    phi = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)[None, :]
    kets = np.stack(
        [
            np.broadcast_to(np.cos(theta / 2), (n_theta, n_phi)),
            np.exp(1j * phi) * np.sin(theta / 2),
        ],
        axis=-1,
    )
    return kets.reshape(-1, 2)


GRID_KETS = _bloch_grid_kets()


def _product_expectations(kets, operator):
    """<xy|operator|xy> for every pair (x, y) of rows of ``kets``."""
    op = operator.reshape(2, 2, 2, 2)  # (i, j, k, l): <ij| op |kl>
    half = np.einsum("xi,ijkl,xk->xjl", kets.conj(), op, kets)
    return np.einsum("yj,xjl,yl->xy", kets.conj(), half, kets).real


def _grid_minimum(log_rho, complement):
    """Smallest -<xy|log_rho|xy> over grid product kets leaking <= 1e-10."""
    values = -_product_expectations(GRID_KETS, log_rho)
    leaks = _product_expectations(GRID_KETS, complement)
    return float(np.min(np.where(leaks <= 1e-10, values, math.inf)))


@st.composite
def density_matrices(draw):
    """Two-qubit density matrices of rank 1-4.  Optionally one eigenvector is
    a product ket, so that low ranks also have product states in support, or
    all eigenvectors lie near computational basis kets, where the optimum
    sits near the poles of the Bloch spheres."""
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    spread = draw(st.sampled_from([None, 0.0, 1e-3]))
    if spread is not None:
        basis = np.eye(4)[:, rng.permutation(4)[:rank]] * rng.uniform(0.1, 1.0, rank)
        columns = basis + spread * columns
    elif draw(st.booleans()):
        halves = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        columns[:, 0] = np.kron(halves[0], halves[1])
    matrix = columns @ columns.conj().T
    return matrix / np.trace(matrix).real


class TestMinOverProductPureProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(density_matrices())
    def test_returned_ket_attains_value_and_beats_grid(self, matrix):
        """The returned ket attains the value, and no product ket inside the
        support does better: no grid product ket leaking at most 1e-10 and,
        on rank-2 and rank-3 supports, where a grid point almost never lies
        in the support, no exact in-support product ket of
        ``TestProductMinimumOracles`` (the roots at rank 2; x (x) y(x) on the
        grid of x, and its mirror on the grid of y, at rank 3)."""
        value, ket = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))
        log_rho, projector = la.matrix_log2_on_support(matrix)
        complement = np.eye(4) - projector
        if math.isfinite(value):
            amplitudes = ket.amplitudes
            own = -float((amplitudes.conj() @ log_rho @ amplitudes).real)
            leak = float((amplitudes.conj() @ complement @ amplitudes).real)
            assert abs(own - value) <= 1e-9
            assert leak <= 1e-10
        assert value <= _grid_minimum(log_rho, complement) + 1e-9
        rank = np.count_nonzero(la.support_mask(np.linalg.eigvalsh(matrix)))
        if rank in (2, 3):
            kets = _rank_two_product_kets(matrix) if rank == 2 else _rank_three_oracle_kets(matrix)
            if len(kets):
                assert value <= _in_support_values(matrix, kets)[0].min() + 1e-9

    def test_support_near_a_product_plane_beats_grid(self):
        # support 1e-6 away from |0> (x) C^2: grid points leaking <= 1e-10 of
        # the projector sit below every exact in-support product ket, but the
        # minimum follows the same leak rule as the grid: the product part of
        # the top eigenvector leaks 4.1e-12 and reads 0.9999933939, against
        # 0.9999934316 for the best grid point
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        columns = np.eye(4)[:, :2] + 1e-6 * noise
        matrix = columns @ columns.conj().T
        matrix /= np.trace(matrix).real
        value, _ = min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))
        log_rho, projector = la.matrix_log2_on_support(matrix)
        assert value <= _grid_minimum(log_rho, np.eye(4) - projector) + 1e-9


def _ginibre_state(rng, rank):
    """rho = X X^dag / tr for one 4 x rank complex Ginibre draw X."""
    x = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    matrix = x @ x.conj().T
    return matrix / np.trace(matrix).real


def _product_minimum(matrix):
    return min_over_product_pure(LabeledState(matrix, (2, 2), ("A", "B")))[0]


def _rotated(matrix, rng):
    """(U (x) V) rho (U (x) V)^dag for one Haar pair (U, V) drawn from ``rng``."""
    w = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return w @ matrix @ w.conj().T


def _invariance_case(rank, case):
    """Case ``case`` of a fresh default_rng(7): each case is one Ginibre state
    of the rank, then one Haar pair; returns rho and its rotation."""
    rng = np.random.default_rng(7)
    for _ in range(case + 1):
        matrix = _ginibre_state(rng, rank)
        rotated = _rotated(matrix, rng)
    return matrix, rotated


def _rank_two_draw(draw):
    """Draw ``draw`` of 4x2 Ginibre states from default_rng(5)."""
    rng = np.random.default_rng(5)
    for _ in range(draw + 1):
        matrix = _ginibre_state(rng, 2)
    return matrix


def _rank_two_product_kets(matrix):
    """The product kets in a rank-2 support.  With the support's eigenvectors
    e1, e2 as 2x2 matrices M1, M2, t e1 + e2 is a product ket iff det(t M1 +
    M2) = 0, a quadratic in t that always has roots over C."""
    vectors = np.linalg.eigh(matrix)[1]
    m1, m2 = vectors[:, 3].reshape(2, 2), vectors[:, 2].reshape(2, 2)
    cross = m1[0, 0] * m2[1, 1] + m1[1, 1] * m2[0, 0] - m1[0, 1] * m2[1, 0] - m1[1, 0] * m2[0, 1]
    roots = np.roots([np.linalg.det(m1), cross, np.linalg.det(m2)])
    kets = roots[:, None] * vectors[:, 3] + vectors[:, 2]
    return kets / np.linalg.norm(kets, axis=1)[:, None]


def _rank_three_product_kets(matrix, xs):
    """For each x in the rows of ``xs``, the product ket x (x) y(x) in a rank-3
    support: |xy> is in it iff x^T conj(W) y = 0 for the null vector w as a
    2x2 matrix W, so y is proportional to (c_1, -c_0) with c = conj(W)^T x.
    An x with c = 0, which pairs with every y, is left out."""
    c = xs @ np.linalg.eigh(matrix)[1][:, 0].conj().reshape(2, 2)
    norms = np.linalg.norm(c, axis=1)
    xs, c, norms = xs[norms > 0], c[norms > 0], norms[norms > 0]
    ys = np.stack([c[:, 1], -c[:, 0]], axis=1) / norms[:, None]
    return np.einsum("ki,kj->kij", xs, ys).reshape(-1, 4)


EXCHANGE = [0, 2, 1, 3]  # amplitude order of a two-qubit ket with its parties exchanged


def _rank_three_oracle_kets(matrix):
    """x (x) y(x) for x on ``GRID_KETS``, and the mirror x(y) (x) y for y on it."""
    mirror = _rank_three_product_kets(matrix[np.ix_(EXCHANGE, EXCHANGE)], GRID_KETS)
    return np.concatenate([_rank_three_product_kets(matrix, GRID_KETS), mirror[:, EXCHANGE]])


def _in_support_values(matrix, kets):
    """-<v|log2 rho|v> and |(I - P) v|^2, the weight off the support, for
    each row v of ``kets``."""
    log_rho = la.matrix_log2_on_support(matrix)[0]
    values = -np.einsum("ki,ij,kj->k", kets.conj(), log_rho, kets).real
    eigenvalues, vectors = np.linalg.eigh(matrix)
    off = vectors[:, ~la.support_mask(eigenvalues)]
    return values, np.sum(np.abs(kets.conj() @ off) ** 2, axis=1)


class TestProductMinimumOracles:
    """Oracles for min_over_product_pure that need no tolerance on a
    reference optimiser: invariance under local unitaries on the state, and
    exact product kets inside rank-2 and rank-3 supports."""

    def test_invariant_under_local_unitaries_on_swap_outputs(self):
        # full-rank diagonal copies; the worst change measured is 4.2e-15
        rng = np.random.default_rng(11)
        for a in A_GRID:
            matrix = local_delete_swap(SchmidtPair(float(a))).out_apbp.matrix
            value = _product_minimum(matrix)
            for _ in range(4):
                assert abs(_product_minimum(_rotated(matrix, rng)) - value) <= 1e-12

    @pytest.mark.parametrize("rank, case", [(2, 164), (3, 0), (3, 57), (4, 184)])
    def test_invariant_under_local_unitaries_off_full_rank(self, rank, case):
        # over the 200 cases of each rank the worst change measured is 5.3e-15,
        # 3.6e-15 and 5.8e-15 at ranks 2, 3 and 4
        matrix, rotated = _invariance_case(rank, case)
        assert abs(_product_minimum(rotated) - _product_minimum(matrix)) <= 1e-12

    @pytest.mark.parametrize("draw, want", [(74, 0.3118), (207, 0.2323)])
    def test_rank_two_oracle_kets_are_in_support_products(self, draw, want):
        matrix = _rank_two_draw(draw)
        kets = _rank_two_product_kets(matrix)
        # measured: second singular values <= 7.5e-17, leaks <= 1.3e-31
        assert np.linalg.svd(kets.reshape(-1, 2, 2), compute_uv=False)[:, 1].max() <= 1e-13
        values, leaks = _in_support_values(matrix, kets)
        assert leaks.max() <= 1e-26
        assert abs(values.min() - want) <= 1e-4

    @pytest.mark.parametrize("draw", [74, 207])
    def test_rank_two_minimum_at_most_an_in_support_product(self, draw):
        matrix = _rank_two_draw(draw)
        oracle = _in_support_values(matrix, _rank_two_product_kets(matrix))[0].min()
        value = _product_minimum(matrix)
        assert math.isfinite(value) and value <= oracle + 1e-9

    def test_rank_three_oracle_kets_are_in_support_products(self):
        matrix = _invariance_case(3, 0)[0]
        kets = _rank_three_product_kets(matrix, GRID_KETS)
        # measured: second singular values <= 2.9e-16, leaks <= 4.0e-32
        assert np.linalg.svd(kets.reshape(-1, 2, 2), compute_uv=False)[:, 1].max() <= 1e-13
        assert _in_support_values(matrix, kets)[1].max() <= 1e-26

    def test_rank_three_minimum_at_most_the_in_support_products(self):
        # the case-0 rank-3 state of the invariance oracle: 0.9136 bits against
        # 0.9240 for the best x (x) y(x) on the grid of x
        matrix = _invariance_case(3, 0)[0]
        oracle = _in_support_values(matrix, _rank_three_product_kets(matrix, GRID_KETS))[0]
        value = _product_minimum(matrix)
        assert math.isfinite(value) and value <= oracle.min() + 1e-9


def _projector(*terms):
    """sum_k p_k |v_k><v_k| for the (p_k, v_k) of ``terms``."""
    return sum(p * np.outer(v, np.conj(v)) for p, v in terms).astype(complex)


class TestProductMinimumClosedForms:
    """States whose product minimum has a closed form, as given and under
    three Haar pairs of local unitaries; filterwarnings = error turns any
    warning of the rank forms into a failure."""

    def _cases(self, matrix):
        rng = np.random.default_rng(31)
        yield np.eye(4), matrix
        for _ in range(3):
            w = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            yield w, w @ matrix @ w.conj().T

    def test_double_root(self):
        # span{Phi+, |01>} holds one product ket, |01>, a double root of
        # det(t M1 + M2) = 0; its value is -log2(1/4) = 2
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        matrix = _projector((0.75, bell), (0.25, np.eye(4)[1]))
        for w, rotated in self._cases(matrix):
            value, ket = min_over_product_pure(LabeledState(rotated, (2, 2), ("A", "B")))
            assert abs(value - 2.0) <= 1e-12
            assert abs(abs(np.vdot(w[:, 1], ket.amplitudes)) - 1.0) <= 1e-9

    def test_product_null_vector(self):
        # the null vector |00> is product, so the admissible kets are the
        # planes |1> (x) C^2 and C^2 (x) |1>; the minimum is the smaller -lambda_max
        # of log2 rho compressed to either
        psi = np.array([0, 1, 1, 0]) / math.sqrt(2)
        matrix = _projector((0.6, psi), (0.3, np.eye(4)[3]), (0.1, np.eye(4)[1]))
        log = la.matrix_log2_on_support(matrix)[0].reshape(2, 2, 2, 2)
        planes = np.stack([log[1, :, 1, :], log[:, 1, :, 1]])  # <1 j|log|1 l>, <i 1|log|k 1>
        want = -np.linalg.eigvalsh(planes)[:, -1].max()
        assert abs(want - 1.7369655941662063) <= 1e-15
        for w, rotated in self._cases(matrix):
            value, ket = min_over_product_pure(LabeledState(rotated, (2, 2), ("A", "B")))
            assert abs(value - want) <= 1e-12
            assert abs(np.vdot(w[:, 0], ket.amplitudes)) ** 2 <= 1e-20


class TestGlobalDelete:
    def test_pure_two_copies(self):
        psi = schmidt_ket(SchmidtPair(0.6))
        rho_ab = projector(psi, labels=("A", "B"))
        rho_apbp = projector(psi, labels=("A'", "B'"))
        out = global_delete(rho_ab, rho_apbp)
        deleted = np.zeros((4, 4), dtype=complex)
        deleted[0, 0] = 1.0  # |00><00|
        expected = np.kron(rho_ab.matrix, deleted)
        assert np.max(np.abs(out.matrix - expected)) < 1e-12
        assert out.labels == ("A", "B", "A'", "B'")

    def test_mixed_copy_spectrum_and_diagonality(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        matrix = 0.7 * np.outer(bell, bell.conj()) + 0.3 * np.eye(4) / 4
        rho_ab = LabeledState(matrix, (2, 2), ("A", "B"))
        rho_apbp = LabeledState(matrix, (2, 2), ("A'", "B'"))
        out = global_delete(rho_ab, rho_apbp)
        from dualent.qstate import trace_out

        marginal = trace_out(out, ("A", "B"))
        off_diag = marginal.matrix - np.diag(np.diag(marginal.matrix))
        assert np.max(np.abs(off_diag)) < 1e-12
        got = np.sort(np.linalg.eigvalsh(marginal.matrix))
        want = np.sort(np.linalg.eigvalsh(matrix))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_separable_diagonal_input_unchanged_up_to_relabel(self):
        diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho_ab = LabeledState(diag, (2, 2), ("A", "B"))
        rho_apbp = LabeledState(diag, (2, 2), ("A'", "B'"))
        out = global_delete(rho_ab, rho_apbp)
        from dualent.qstate import trace_out

        marginal = trace_out(out, ("A", "B"))
        # already descending in the product basis, so literally unchanged
        assert np.max(np.abs(marginal.matrix - diag)) < 1e-12

    def test_unequal_copies_rejected(self):
        rho_ab = LabeledState(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2), ("A", "B"))
        rho_apbp = LabeledState(np.eye(4) / 4, (2, 2), ("A'", "B'"))
        with pytest.raises(ValueError, match="equal copies"):
            global_delete(rho_ab, rho_apbp)


class TestSchmidtRankNogo:
    @pytest.mark.parametrize("a", [0.6, SYM, 0.1])
    def test_entangled_ranks(self, a):
        check = schmidt_rank_nogo_check(SchmidtPair(a))
        assert check == (4, 2, False)

    def test_product_limit(self):
        check = schmidt_rank_nogo_check(SchmidtPair(0.0))
        assert check == (1, 1, True)

    def test_ranks_match_the_kron_route(self):
        # the target psi (x) |00> and the ranks as built with vector krons, a
        # basis-ket blank and eager decompositions; a^2 and then ab drop below
        # SCHMIDT_RANK_TOL as a falls
        log_grid = np.logspace(-14, 0, 57)
        for a in np.r_[np.linspace(0.01, SYM, 20), log_grid]:
            pair = SchmidtPair(float(a))
            psi = schmidt_ket(pair).amplitudes
            blank = np.eye(4, dtype=complex)[0]
            assert two_copy_ket(pair).amplitudes.tobytes() == np.kron(psi, psi).tobytes()
            ranks = []
            for amps in (np.kron(psi, psi), np.kron(psi, blank)):
                mat = amps.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
                values = np.linalg.svd(mat, full_matrices=False)[1]
                ranks.append(int(np.count_nonzero(values > SCHMIDT_RANK_TOL)))
            expected = SchmidtRankCheck(ranks[0], ranks[1], ranks[0] == ranks[1])
            assert schmidt_rank_nogo_check(pair) == expected, a
        bands = [schmidt_rank_nogo_check(SchmidtPair(float(a))) for a in log_grid]
        # a <= 1e-10, then 1.8e-10 ... 1e-5, then 1.8e-5 ... 0.56, then a = 1
        assert bands == [(1, 1, True)] * 17 + [(3, 2, False)] * 20 + [(4, 2, False)] * 19 + [
            (1, 1, True)
        ]
