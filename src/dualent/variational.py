"""Derivative-free search over parameterised local unitaries, tightening the
cloning and deleting bounds from within the corresponding machine families.

Unitaries are encoded as U = exp(iH) with H Hermitian, assembled from a real
parameter vector of length n^2 (n diagonal entries, then the real/imaginary
parts of the upper triangle row by row).  A deleting machine is a 4x4
unitary on (A, A').  A cloning machine is the first two columns of a 6x6
unitary, mapped by the fixed isometry S onto Sym^2(C^2) (x) C^2_env inside
(clone1, clone2, env): both clones are symmetric, so the two copies are
equal by construction and only the (A, B) copy is built.  A search moves
only the first k rows of H, for the k columns its input reaches: 2kn - k^2
reals per party, all 16 for deleting and 20 of 36 for cloning.  It starts
at the analytic machines (the A/A' swap; the universal cloner and the
identity, which S turns into the basis copier), so its best objective can
never exceed the analytic reference bound.

Each machine family has one circuit kernel, taking the pair and two stacks
of unitaries to one search score per machine, and both kernels score with
the same pure-state relative entropy.  The deleting kernel runs the circuit
of :func:`~dualent.deleting.local_delete_swap`, and it scores the deleted
copy against the fixed product target |11>, not against the best product
target: local unitaries on A' and B' after the machine fold into U_A and
U_B, so both scores have the same infimum.  The inner minimum over product
targets runs only in the deleting machine's one scorer, which
:func:`delete_objective` and ``local_delete_swap`` share.

Both searches run one driver: every restart is an adaptive Nelder-Mead run
(the same steps, bit for bit, as scipy's), written as a generator that
yields the points it needs.  The driver runs all restarts in lock-step and
scores the pending point of every unfinished run with one stacked kernel
call per round, so the restarts share each numpy call of the kernel.  The
final point of every run is then scored by the family's public objective,
:func:`delete_objective` or :func:`clone_objective`, which picks the winner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .cloning import clone_bound
from .deleting import (
    _delete_outcome,
    _delete_terms,
    _psi_vec,
    delete_bound,
    swap_gate,
)
from .qstate import SchmidtPair, _pure_rel_entropy

# infinite objectives are clipped to this inside the simplex search only
OFF_SUPPORT_SENTINEL = 1e6
MAX_EVALS = 2000
# the fixed-target deleting search needs the larger budget: with MAX_EVALS
# its optima on a 20-point grid of a end up to 2.3e-2 bits higher
DELETE_MAX_EVALS = 2 * MAX_EVALS
SIMPLEX_TOL = 1e-8
SIMPLEX_FTOL = 1e-12


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


@dataclass(frozen=True)
class RestartRecord:
    """How one simplex run of a search went.

    ``start`` is ``"seed"``, ``"perturbed"`` or ``"random"``; ``exit`` is
    ``"converged"`` (simplex within ``SIMPLEX_TOL`` and ``SIMPLEX_FTOL``) or
    ``"maxfev"`` (evaluation budget spent).  ``objective`` is the family's
    public objective (:func:`delete_objective` or :func:`clone_objective`) at
    the run's final point; for deleting it can lie below the run's simplex
    values, which score the fixed target |11>.
    """

    start: str
    nfev: int
    nit: int
    exit: str
    objective: float


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of one seeded multi-restart search; ``winner`` indexes the
    restart in ``restart_records`` that found ``best_params``."""

    best_objective: float
    best_params: tuple[UnitaryParams, UnitaryParams]
    restarts_used: int
    seed: int
    reference_bound: float
    restart_records: tuple[RestartRecord, ...]
    winner: int


@functools.lru_cache(maxsize=8)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j) positions of the strict upper triangle, i < j."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _hermitian_from_thetas(thetas: np.ndarray, n: int) -> np.ndarray:
    """Generators of the parameter vectors in the rows of ``thetas`` (...,
    n^2), as a (..., n, n) stack."""
    rows, cols = _upper_indices(n)
    upper = thetas[..., n::2] + 1j * thetas[..., n + 1 :: 2]
    h = np.zeros(thetas.shape[:-1] + (n * n,), dtype=complex)
    h[..., :: n + 1] = thetas[..., :n]
    h = h.reshape(thetas.shape[:-1] + (n, n))
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


def params_from_hermitian(h: np.ndarray) -> UnitaryParams:
    """Inverse of ``_hermitian_from_thetas(params.thetas, params.dim)``."""
    h = la.as_matrix(h)
    defect = la.hermiticity_defect(h)
    if not defect <= la.HERMITICITY_TOL:
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
    """exp(iH) for each row of ``thetas`` (..., n^2), by one stacked ``eigh``."""
    values, vectors = np.linalg.eigh(_hermitian_from_thetas(thetas, n))
    return (vectors * np.exp(1j * values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _unitary_pairs(xs: np.ndarray, n: int):
    """The (U_A, U_B) stacks of the rows of ``xs`` (m, 2 n^2), each row the
    parameters of U_A then of U_B; one stacked ``eigh`` for all 2m."""
    unitaries = _unitary_from_thetas(xs.reshape(-1, n * n), n).reshape(-1, 2, n, n)
    return unitaries[:, 0], unitaries[:, 1]


def _pair_unitaries(u_alice: UnitaryParams, u_bob: UnitaryParams, n: int):
    """The two n x n unitaries a parameter pair encodes, each as a stack of
    one."""
    for params in (u_alice, u_bob):
        if params.dim != n:
            raise ValueError(
                f"expected parameters for a {n}x{n} unitary, got {params.dim}x{params.dim}"
            )
    return _unitary_pairs(np.concatenate([u_alice.thetas, u_bob.thetas])[None], n)


def swap_delete_seed() -> tuple[UnitaryParams, UnitaryParams]:
    """Parameters reproducing the swap deleting machine: Alice swaps A with
    A', Bob does nothing (the swap W squares to I, so H = pi (I - W) / 2)."""
    alice = params_from_hermitian(math.pi * (np.eye(4) - swap_gate()) / 2.0)
    bob = UnitaryParams(np.zeros(16))
    return alice, bob


# S, the 8x6 isometry onto Sym^2(C^2) (x) C^2_env (basis index clone1*4 +
# clone2*2 + env), with columns |00>|0>, |11>|0>, |00>|1>, |11>|1>, |Psi+>|0>
# and |Psi+>|1>: it takes the first two columns of the identity to the basis
# copier |x> -> |xx>|0>
_SYMMETRIC = np.zeros((8, 6))
_SYMMETRIC[[0, 6, 1, 7], [0, 1, 2, 3]] = 1.0
_SYMMETRIC[[2, 4, 3, 5], [4, 4, 5, 5]] = math.sqrt(0.5)


def cloner_seed_params() -> UnitaryParams:
    """Parameters whose first two columns, through S, are the universal
    cloner: in S's columns, a turn by arccos sqrt(2/3) from e_0 toward e_5
    and a quarter turn from e_1 to sqrt(2/3) e_3 + sqrt(1/3) e_4, in
    orthogonal planes, so their generators add."""
    h = np.zeros((6, 6), dtype=complex)
    h[0, 5] = 1j * math.acos(math.sqrt(2 / 3))
    h[1, [3, 4]] = 0.5j * math.pi * np.sqrt([2 / 3, 1 / 3])
    return params_from_hermitian(h - h.T)


# |11> on (A', B'): the product minimum of the swap deleter's deleted copy
_DELETE_TARGET = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


def _delete_objectives(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """The search score of each machine in the (k, 4, 4) stacks: the
    deleting objective with the deleted copy scored against |11> alone.

    It is never below :func:`delete_objective`, and has the same infimum
    over machines: a local unitary on A' or B' after the machine leaves
    out_AB alone and turns the inner argmin into |11>, and it folds into
    U_A or U_B.
    """
    psi, out_ab, out_apbp = _delete_terms(pair, u_alice, u_bob)
    return 0.5 * (_pure_rel_entropy(psi, out_ab) + _pure_rel_entropy(_DELETE_TARGET, out_apbp))


def delete_objective(
    pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams
) -> float:
    """Deleting quality of the machine U_AA' (x) U_BB', in bits.

    Half the sum of S(psi | out_AB) and the best pure-product relative
    entropy against out_A'B'; ``math.inf`` when either support fails (for
    instance the identity machine, whose deleted copy is still the
    entangled pure input).
    """
    return _delete_outcome(pair, *_pair_unitaries(u_alice, u_bob, 4)).objective


def clone_objective(pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams) -> float:
    """Cloning quality S(psi | copy) of the symmetric machines that 6x6
    unitaries on (A, B) encode, in bits; the two copies are equal."""
    return float(_clone_objectives(pair, *_pair_unitaries(u_alice, u_bob, 6))[0])


def _clone_copy(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """(A, B) marginal of the cloning circuit output, for each pair of
    unitaries in the (..., 6, 6) stacks ``u_alice`` and ``u_bob``; the
    (A', B') copy equals it by construction.

    Each party's machine is the 8x2 isometry S U[:, :2] from its qubit into
    (clone, clone, env).
    """
    alice, bob = _SYMMETRIC @ u_alice[..., :2], _SYMMETRIC @ u_bob[..., :2]
    out = (alice * (pair.a, pair.b)) @ bob.swapaxes(-1, -2)
    t = out.reshape(-1, 2, 2, 2, 2, 2, 2)  # (machine, A, A', Ae, B, B', Be)
    ab = t.transpose(0, 1, 4, 2, 3, 5, 6).reshape(out.shape[:-2] + (4, 16))
    return ab @ ab.conj().swapaxes(-1, -2)


def _clone_objectives(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """The cloning objective of each machine in the (k, 6, 6) stacks."""
    return _pure_rel_entropy(_psi_vec(pair), _clone_copy(pair, u_alice, u_bob))


class _OutOfEvals(Exception):
    """The evaluation budget of a simplex run is spent."""


def _nelder_mead(x0: np.ndarray, max_evals: int):
    """Adaptive Nelder-Mead (Gao & Han 2012) as a generator: it yields each
    point it needs and is sent that point's value back.  Returns ``(x, fun,
    nfev, nit)``.

    It repeats scipy's ``minimize(method="Nelder-Mead")`` with options
    ``maxfev=max_evals, xatol=SIMPLEX_TOL, fatol=SIMPLEX_FTOL,
    adaptive=True`` operation for operation, so both give the same points
    bit for bit: the initial simplex steps each coordinate by 5 % (0.00025
    when it is zero), the vertices are ordered by ``argsort``/``take``, and
    a run whose budget ends inside an iteration stops there, without the
    value that iteration still needed.
    """
    nfev = 0

    def ask(x):
        nonlocal nfev
        if nfev >= max_evals:
            raise _OutOfEvals
        nfev += 1
        return (yield x)

    dim = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for k in range(dim):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(dim + 1, np.inf)
    try:
        for k in range(dim + 1):
            fsim[k] = yield from ask(sim[k])
    except _OutOfEvals:
        pass
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    iterations = 1
    while nfev < max_evals:
        try:
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= SIMPLEX_TOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= SIMPLEX_FTOL
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = yield from ask(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = yield from ask(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = yield from ask(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = yield from ask(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, dim + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = yield from ask(sim[j])
            iterations += 1
        except _OutOfEvals:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], float(np.min(fsim)), nfev, iterations


def _search(pair, kernel, score, k, seeds, reference, restarts, seed, max_evals) -> SearchReport:
    """Multi-restart simplex search of ``kernel(pair, U_A, U_B)`` over pairs
    of n x n unitaries whose input reaches only their first k columns: x
    holds the 2kn - k^2 generator coordinates in rows i < k of U_A, then of
    U_B.  The (k:, k:) block stays zero, as it must be in the (params_A,
    params_B) ``seeds``; exp(iH)[:, :k] still reaches every n x k isometry.

    Restart 0, 1, ... start at the analytic seeds; later restarts alternate
    between perturbations of the first seed (scale 0.2) and fully random
    draws uniform in [-pi, pi].  All restarts run in lock-step: each round
    stacks the next point of every unfinished run into one kernel call.
    The final point of each run is then scored by the family's public
    objective ``score(pair, params_A, params_B)``; the lowest score wins,
    ties keeping the lower restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n, size = seeds[0][0].dim, seeds[0][0].thetas.size
    free = np.r_[:k, n : n + 2 * (k * n - k * (k + 1) // 2)]
    seeds = [np.concatenate([params.thetas[free] for params in machine]) for machine in seeds]

    def thetas_of(xs):  # (m, 2 |free|) search points -> (m, 2 n^2) parameters
        thetas = np.zeros((len(xs), 2, size))
        thetas[:, :, free] = xs.reshape(len(xs), 2, free.size)
        return thetas.reshape(len(xs), 2 * size)

    starts, runs = [], []
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        if r < len(seeds):
            starts.append("seed")
            x0 = seeds[r]
        elif (r - len(seeds)) % 2 == 0:
            starts.append("perturbed")
            x0 = seeds[0] + 0.2 * rng.standard_normal(seeds[0].size)
        else:
            starts.append("random")
            x0 = rng.uniform(-math.pi, math.pi, seeds[0].size)
        runs.append(_nelder_mead(x0, max_evals))

    pending, results = {}, [None] * restarts

    def advance(r, value):
        try:
            pending[r] = runs[r].send(value)
        except StopIteration as stop:
            pending.pop(r, None)
            results[r] = stop.value

    for r in range(restarts):
        advance(r, None)
    while pending:
        live = list(pending)
        values = kernel(pair, *_unitary_pairs(thetas_of(np.stack([pending[r] for r in live])), n))
        for r, value in zip(live, np.where(np.isinf(values), OFF_SUPPORT_SENTINEL, values)):
            advance(r, value)

    ends = thetas_of(np.stack([x for x, _, _, _ in results]))
    finals = [(UnitaryParams(t[:size]), UnitaryParams(t[size:])) for t in ends]
    scores = [score(pair, *params) for params in finals]
    winner = min(range(restarts), key=scores.__getitem__)  # first of any tie
    records = tuple(
        RestartRecord(start, nfev, nit, "maxfev" if nfev >= max_evals else "converged", value)
        for start, (_, _, nfev, nit), value in zip(starts, results, scores)
    )
    return SearchReport(
        best_objective=scores[winner],
        best_params=finals[winner],
        restarts_used=restarts,
        seed=seed,
        reference_bound=reference,
        restart_records=records,
        winner=winner,
    )


def optimize_delete(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = DELETE_MAX_EVALS
) -> SearchReport:
    """Search local-unitary deleting machines for the best objective.

    The simplex runs score each machine against the fixed target |11>
    (:func:`_delete_objectives`); each run's final machine is then scored by
    :func:`delete_objective`, which can only be lower.  Seeded at the A-side
    and B-side swaps, so the result never exceeds :func:`delete_bound`;
    deterministic for fixed (pair, restarts, seed).
    """
    reference = delete_bound(pair)
    alice, bob = swap_delete_seed()
    seeds = [(alice, bob), (bob, alice)]
    return _search(
        pair, _delete_objectives, delete_objective, 4, seeds, reference, restarts, seed, max_evals
    )


def optimize_clone(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search symmetric local cloning machines: rows 0, 1 of a 6x6 generator.

    Seeded at the universal cloner and at the basis copier (zero
    parameters), so the result never exceeds :func:`clone_bound`;
    deterministic for fixed (pair, restarts, seed).
    """
    reference = clone_bound(pair)
    cloner, copier = cloner_seed_params(), UnitaryParams(np.zeros(36))
    seeds = [(cloner, cloner), (copier, copier)]
    return _search(
        pair, _clone_objectives, clone_objective, 2, seeds, reference, restarts, seed, max_evals
    )
