"""Derivative-free search over parameterised local unitaries, tightening the
cloning and deleting bounds from within the corresponding machine families.

Unitaries are encoded as U = exp(iH) with H Hermitian, assembled from a real
parameter vector of length n^2 (n diagonal entries, then the real/imaginary
parts of the upper triangle row by row).  Searches are seeded at the known
analytic machines -- the A/A' swap for deleting, the completed universal
cloner (and a basis-copying fallback) for cloning -- so the best objective
can never exceed the analytic reference bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from . import linalg as la
from .cloning import clone_bound, universal_clone_isometry
from .deleting import _min_product_pure_matrix, delete_bound
from .qstate import SchmidtPair

SYMMETRY_PENALTY = 10.0
# infinite objectives are clipped to this inside the simplex search only
OFF_SUPPORT_SENTINEL = 1e6
MAX_EVALS = 2000
SIMPLEX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class UnitaryParams:
    """Real parameter vector of length n^2 encoding an n x n unitary."""

    thetas: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float).ravel()
        object.__setattr__(self, "thetas", thetas)
        if not np.all(np.isfinite(thetas)):
            raise ValueError("unitary parameters must be finite")
        n = math.isqrt(thetas.size)
        if n * n != thetas.size:
            raise ValueError(f"parameter vector length {thetas.size} is not a square")

    @property
    def dim(self) -> int:
        return math.isqrt(self.thetas.size)


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of one seeded multi-restart search."""

    best_objective: float
    best_params: tuple[UnitaryParams, UnitaryParams]
    restarts_used: int
    seed: int
    reference_bound: float


def hermitian_from_params(params: UnitaryParams) -> np.ndarray:
    """Assemble the Hermitian generator from a parameter vector."""
    return _hermitian_from_thetas(params.thetas, params.dim)


@functools.lru_cache(maxsize=8)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j) positions of the strict upper triangle, i < j."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _hermitian_from_thetas(thetas: np.ndarray, n: int) -> np.ndarray:
    rows, cols = _upper_indices(n)
    upper = thetas[n::2] + 1j * thetas[n + 1 :: 2]
    h = np.diag(thetas[:n].astype(complex))
    h[rows, cols] = upper
    h[cols, rows] = upper.conj()
    return h


def params_from_hermitian(h: np.ndarray) -> UnitaryParams:
    """Inverse of :func:`hermitian_from_params`."""
    h = la.as_matrix(h)
    defect = la.hermiticity_defect(h)
    if defect > 1e-10:
        raise ValueError(f"generator is not Hermitian: defect {defect:.3e}")
    n = h.shape[0]
    upper = h[_upper_indices(n)]
    thetas = np.empty(n * n)
    thetas[:n] = np.diag(h).real
    thetas[n::2] = upper.real
    thetas[n + 1 :: 2] = upper.imag
    return UnitaryParams(thetas)


def param_to_unitary(params: UnitaryParams) -> np.ndarray:
    """U = exp(iH) for the encoded Hermitian generator; zero gives I."""
    return _unitary_from_thetas(params.thetas, params.dim)


def _unitary_from_thetas(thetas: np.ndarray, n: int) -> np.ndarray:
    values, vectors = np.linalg.eigh(_hermitian_from_thetas(thetas, n))
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def _involution_generator(w: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = W for a unitary involution W (W^2 = I)."""
    return math.pi * (np.eye(w.shape[0]) - w) / 2.0


def swap_gate() -> np.ndarray:
    """The two-qubit swap |ij> -> |ji> as a 4x4 matrix."""
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[2 * j + i, 2 * i + j] = 1.0
    return s


def swap_delete_seed() -> tuple[UnitaryParams, UnitaryParams]:
    """Parameters reproducing the swap deleting machine: Alice swaps A with
    A', Bob does nothing."""
    alice = params_from_hermitian(_involution_generator(swap_gate()))
    bob = UnitaryParams(np.zeros(16))
    return alice, bob


def _complete_cloner_unitary() -> np.ndarray:
    """Extend the 8x2 cloner isometry to an 8x8 unitary.

    The defined columns sit at the |input, 0, 0> basis slots (indices 0 and
    4); the rest are filled by Gram-Schmidt of the canonical basis against
    the columns placed so far.
    """
    v = universal_clone_isometry().matrix
    columns = [v[:, 0], v[:, 1]]
    for k in range(8):
        candidate = np.zeros(8, dtype=complex)
        candidate[k] = 1.0
        for _ in range(2):  # re-orthogonalise to keep the basis clean
            for col in columns:
                candidate = candidate - col * (col.conj() @ candidate)
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-8:
            columns.append(candidate / norm)
        if len(columns) == 8:
            break
    u = np.zeros((8, 8), dtype=complex)
    u[:, 0] = columns[0]
    u[:, 4] = columns[1]
    free = [c for c in range(8) if c not in (0, 4)]
    for slot, col in zip(free, columns[2:], strict=True):
        u[:, slot] = col
    return u


def cloner_seed_params() -> UnitaryParams:
    """Parameters of the completed universal cloner (via its principal
    Hermitian logarithm)."""
    u = _complete_cloner_unitary()
    h = -1j * logm(u)
    h = 0.5 * (h + h.conj().T)
    return params_from_hermitian(h)


def basis_copy_seed_params() -> UnitaryParams:
    """Parameters of the basis-copying machine |a, a', e> -> |a, a' xor a, e>.

    It clones products of basis states exactly and realises the E_R branch
    of the combined bound on the Schmidt family.
    """
    w = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for e in range(2):
                w[4 * a + 2 * (ap ^ a) + e, 4 * a + 2 * ap + e] = 1.0
    return params_from_hermitian(_involution_generator(w))


def _pure_rel_entropy(vec: np.ndarray, rho: np.ndarray) -> float:
    """S(|v><v| | rho) for a unit vector v, math.inf on support leak."""
    values, vectors = np.linalg.eigh(rho)
    weights = np.abs(vectors.conj().T @ vec) ** 2
    on_support = values > la.SUPPORT_TOL
    if float(weights[~on_support].sum()) > 1e-10:
        return math.inf
    return float(-(weights[on_support] * np.log2(values[on_support])).sum())


def _psi_vec(pair: SchmidtPair) -> np.ndarray:
    return np.array([pair.a, 0.0, 0.0, pair.b], dtype=complex)


def _delete_terms(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """Marginals of (U_AA' (x) U_BB') applied to psi (x) psi.

    Arranged as a matrix M over (AA', BB'), psi (x) psi is diag(a^2, ab,
    ab, b^2), and the local unitaries map it to U_A M U_B^T.
    """
    psi = _psi_vec(pair)
    weights = np.array([pair.a * pair.a, pair.a * pair.b, pair.a * pair.b, pair.b * pair.b])
    t = ((u_alice * weights) @ u_bob.T).reshape(2, 2, 2, 2)  # (A, A', B, B')
    kept = t.transpose(0, 2, 1, 3).reshape(4, 4)  # rows (A, B), columns (A', B')
    out_ab = kept @ kept.conj().T
    out_apbp = kept.T @ kept.conj()
    return psi, out_ab, out_apbp


def _delete_objective_matrices(pair, u_alice, u_bob) -> float:
    psi, out_ab, out_apbp = _delete_terms(pair, u_alice, u_bob)
    term_keep = _pure_rel_entropy(psi, out_ab)
    if math.isinf(term_keep):
        return math.inf
    term_separable, _, _ = _min_product_pure_matrix(out_apbp)
    if math.isinf(term_separable):
        return math.inf
    return 0.5 * (term_keep + term_separable)


def delete_objective(
    pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams
) -> float:
    """Deleting quality of the machine U_AA' (x) U_BB', in bits.

    Half the sum of S(psi | out_AB) and the best pure-product relative
    entropy against out_A'B'; ``math.inf`` when either support fails (for
    instance the identity machine, whose deleted copy is still the
    entangled pure input).
    """
    ua = _require_dim(u_alice, 4)
    ub = _require_dim(u_bob, 4)
    return _delete_objective_matrices(
        pair, _unitary_from_thetas(ua.thetas, 4), _unitary_from_thetas(ub.thetas, 4)
    )


def clone_objective(
    pair: SchmidtPair,
    u_alice: UnitaryParams,
    u_bob: UnitaryParams,
    penalty: float = SYMMETRY_PENALTY,
) -> float:
    """Cloning quality of local unitaries on (A, A', Ae) and (B, B', Be).

    S(psi | copy1) plus ``penalty`` times the trace-norm asymmetry between
    the two copies; blanks and environments start in |0>.
    """
    ua = _require_dim(u_alice, 8)
    ub = _require_dim(u_bob, 8)
    return _clone_objective_matrices(
        pair,
        _unitary_from_thetas(ua.thetas, 8),
        _unitary_from_thetas(ub.thetas, 8),
        penalty,
    )


def _clone_copies(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """(A, B) and (A', B') marginals of the cloning circuit output.

    Blanks and environments start in |0>, so the input a|000,000> +
    b|100,100> meets only columns 0 and 4 of each unitary.
    """
    cols = [0, 4]
    out = (u_alice[:, cols] * (pair.a, pair.b)) @ u_bob[:, cols].T
    t = out.reshape(2, 2, 2, 2, 2, 2)  # (A, A', Ae, B, B', Be)
    first = t.transpose(0, 3, 1, 2, 4, 5).reshape(4, 16)
    second = t.transpose(1, 4, 0, 2, 3, 5).reshape(4, 16)
    return first @ first.conj().T, second @ second.conj().T


def _clone_objective_matrices(pair, u_alice, u_bob, penalty: float) -> float:
    copy1, copy2 = _clone_copies(pair, u_alice, u_bob)
    term = _pure_rel_entropy(_psi_vec(pair), copy1)
    if math.isinf(term):
        return math.inf
    return term + penalty * la.trace_norm(copy1 - copy2)


def copy_asymmetry(pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams) -> float:
    """Trace-norm difference between the two copies at given parameters."""
    ua = _require_dim(u_alice, 8)
    ub = _require_dim(u_bob, 8)
    copy1, copy2 = _clone_copies(
        pair, _unitary_from_thetas(ua.thetas, 8), _unitary_from_thetas(ub.thetas, 8)
    )
    return la.trace_norm(copy1 - copy2)


def _require_dim(params: UnitaryParams, n: int) -> UnitaryParams:
    if not isinstance(params, UnitaryParams):
        params = UnitaryParams(params)
    if params.dim != n:
        raise ValueError(f"expected parameters for a {n}x{n} unitary, got {params.dim}x{params.dim}")
    return params


def _run_search(objective, seeds, n_params, restarts, seed, max_evals):
    """Shared multi-restart simplex driver.

    Restart 0, 1, ... start at the analytic seeds; later restarts alternate
    between perturbations of the first seed (scale 0.2) and fully random
    draws uniform in [-pi, pi].  Ties keep the lower restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    def clipped(x):
        value = objective(x)
        return OFF_SUPPORT_SENTINEL if math.isinf(value) else value

    best_x, best_value = None, math.inf
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        if r < len(seeds):
            x0 = seeds[r].copy()
        elif (r - len(seeds)) % 2 == 0:
            x0 = seeds[0] + 0.2 * rng.standard_normal(n_params)
        else:
            x0 = rng.uniform(-math.pi, math.pi, n_params)
        result = minimize(
            clipped,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": max_evals,
                "xatol": SIMPLEX_TOL,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        if result.fun < best_value:
            best_x, best_value = result.x, float(result.fun)
    return best_x, best_value


def optimize_delete(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search local-unitary deleting machines for the best objective.

    Seeded at the A-side and B-side swaps, so the result never exceeds
    :func:`delete_bound`; deterministic for fixed (pair, restarts, seed).
    """
    reference = delete_bound(pair)
    alice, bob = swap_delete_seed()
    seeds = [
        np.concatenate([alice.thetas, bob.thetas]),
        np.concatenate([bob.thetas, alice.thetas]),
    ]

    def objective(x):
        return _delete_objective_matrices(
            pair, _unitary_from_thetas(x[:16], 4), _unitary_from_thetas(x[16:], 4)
        )

    best_x, _ = _run_search(objective, seeds, 32, restarts, seed, max_evals)
    params = (UnitaryParams(best_x[:16]), UnitaryParams(best_x[16:]))
    return SearchReport(
        best_objective=delete_objective(pair, *params),
        best_params=params,
        restarts_used=restarts,
        seed=seed,
        reference_bound=reference,
    )


def optimize_clone(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search local-unitary-with-fixed-ancilla cloning machines.

    Seeded at the completed universal cloner and at the basis-copying
    machine, so the result never exceeds :func:`clone_bound`; deterministic
    for fixed (pair, restarts, seed).
    """
    reference = clone_bound(pair)
    cloner = cloner_seed_params().thetas
    copier = basis_copy_seed_params().thetas
    seeds = [
        np.concatenate([cloner, cloner]),
        np.concatenate([copier, copier]),
    ]

    def objective(x):
        return _clone_objective_matrices(
            pair,
            _unitary_from_thetas(x[:64], 8),
            _unitary_from_thetas(x[64:], 8),
            SYMMETRY_PENALTY,
        )

    best_x, _ = _run_search(objective, seeds, 128, restarts, seed, max_evals)
    params = (UnitaryParams(best_x[:64]), UnitaryParams(best_x[64:]))
    return SearchReport(
        best_objective=clone_objective(pair, *params),
        best_params=params,
        restarts_used=restarts,
        seed=seed,
        reference_bound=reference,
    )
