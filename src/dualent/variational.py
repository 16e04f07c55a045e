"""Derivative-free search over parameterised local unitaries, tightening the
cloning and deleting bounds from within the corresponding machine families.

Unitaries are encoded as U = exp(iH) with H Hermitian, assembled from a real
parameter vector of length n^2 (n diagonal entries, then the real/imaginary
parts of the upper triangle row by row).  Searches are seeded at the known
analytic machines, each written as a unitary involution W whose generator
pi (I - W) / 2 is exact: the A/A' swap for deleting; for cloning, a
reflection that acts as the universal cloner on the inputs the circuit
feeds it, and a basis-copying fallback.  So the best objective can never
exceed the analytic reference bound.

Each machine family has one circuit kernel, taking the pair and two stacks
of unitaries to one objective value per machine; the single-point functions
call it with a stack of one.  The deleting kernel is the one
:func:`~dualent.deleting.local_delete_swap` evaluates at the swap.

Both searches run one driver: every restart is an adaptive Nelder-Mead run
(the same steps, bit for bit, as scipy's), written as a generator that
yields the points it needs.  The driver runs all restarts in lock-step and
scores the pending point of every unfinished run with one stacked kernel
call per round, so the restarts share each numpy call of the kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .cloning import clone_bound, universal_clone_isometry
from .deleting import (
    _delete_terms,
    _min_product_pure_stack,
    _psi_vec,
    delete_bound,
    swap_gate,
)
from .qstate import SUPPORT_LEAK_TOL, SchmidtPair

SYMMETRY_PENALTY = 10.0
# infinite objectives are clipped to this inside the simplex search only
OFF_SUPPORT_SENTINEL = 1e6
MAX_EVALS = 2000
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
    ``"maxfev"`` (evaluation budget spent).  ``objective`` is the run's best
    simplex value, with infeasible points clipped to ``OFF_SUPPORT_SENTINEL``.
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
    """exp(iH) for each row of ``thetas`` (..., n^2), by one stacked ``eigh``."""
    values, vectors = np.linalg.eigh(_hermitian_from_thetas(thetas, n))
    return (vectors * np.exp(1j * values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _unitary_pairs(xs: np.ndarray, n: int):
    """The (U_A, U_B) stacks of the rows of ``xs`` (k, 2 n^2), each row the
    parameters of U_A then of U_B; one stacked ``eigh`` for all 2k."""
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


def _involution_generator(w: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = W for a unitary involution W (W^2 = I)."""
    return math.pi * (np.eye(w.shape[0]) - w) / 2.0


def swap_delete_seed() -> tuple[UnitaryParams, UnitaryParams]:
    """Parameters reproducing the swap deleting machine: Alice swaps A with
    A', Bob does nothing."""
    alice = params_from_hermitian(_involution_generator(swap_gate()))
    bob = UnitaryParams(np.zeros(16))
    return alice, bob


def cloner_seed_params() -> UnitaryParams:
    """Parameters of an 8x8 involution that acts as the universal cloner.

    Only |000> and |100> (columns 0 and 4) ever enter the cloning circuit.
    With d_0 = |000> - v_0 and d_1 = |100> - v_1 for the cloner's columns
    v_0 and v_1, the reflection W = I - 2Q, Q the projector onto span{d_0,
    d_1}, sends |000> to v_0 and |100> to v_1: the overlaps <000|v_0> and
    <100|v_1> are real, the cross overlaps vanish and d_0 is orthogonal to
    d_1.
    """
    d = np.eye(8)[:, [0, 4]] - universal_clone_isometry().matrix
    q, _ = np.linalg.qr(d)
    return params_from_hermitian(_involution_generator(np.eye(8) - 2 * q @ q.conj().T))


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


def _pure_rel_entropy(vec: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """S(|v><v| | rho) for a unit vector v and each rho of a (..., n, n)
    stack; ``inf`` where |v> leaks off the support of rho."""
    values, vectors = np.linalg.eigh(rho)
    weights = np.abs(vectors.conj().swapaxes(-1, -2) @ vec) ** 2
    on_support = values > la.SUPPORT_TOL
    leak = np.add.reduce(weights, axis=-1, where=~on_support)
    logs = np.log2(values, out=np.zeros_like(values), where=on_support)
    value = -np.add.reduce(weights * logs, axis=-1)
    return np.where(leak > SUPPORT_LEAK_TOL, math.inf, value)


def _delete_objectives(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """The deleting objective of each machine in the (k, 4, 4) stacks."""
    psi, out_ab, out_apbp = _delete_terms(pair, u_alice, u_bob)
    term_keep = _pure_rel_entropy(psi, out_ab)
    term_separable, _, _ = _min_product_pure_stack(out_apbp)
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
    return float(_delete_objectives(pair, *_pair_unitaries(u_alice, u_bob, 4))[0])


def clone_objective(pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams) -> float:
    """Cloning quality of local unitaries on (A, A', Ae) and (B, B', Be).

    S(psi | copy1) plus ``SYMMETRY_PENALTY`` times the trace-norm asymmetry
    between the two copies; blanks and environments start in |0>.
    """
    return float(_clone_objectives(pair, *_pair_unitaries(u_alice, u_bob, 8))[0])


def _clone_copies(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """(A, B) and (A', B') marginals of the cloning circuit output, for each
    pair of unitaries in the (..., 8, 8) stacks ``u_alice`` and ``u_bob``.

    Blanks and environments start in |0>, so the input a|000,000> +
    b|100,100> meets only columns 0 and 4 of each unitary.
    """
    cols = [0, 4]
    out = (u_alice[..., cols] * (pair.a, pair.b)) @ u_bob[..., cols].swapaxes(-1, -2)
    t = out.reshape(-1, 2, 2, 2, 2, 2, 2)  # (machine, A, A', Ae, B, B', Be)
    first = t.transpose(0, 1, 4, 2, 3, 5, 6).reshape(out.shape[:-2] + (4, 16))
    second = t.transpose(0, 2, 5, 1, 3, 4, 6).reshape(out.shape[:-2] + (4, 16))
    return first @ first.conj().swapaxes(-1, -2), second @ second.conj().swapaxes(-1, -2)


def _clone_objectives(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """The cloning objective of each machine in the (k, 8, 8) stacks."""
    copy1, copy2 = _clone_copies(pair, u_alice, u_bob)
    term = _pure_rel_entropy(_psi_vec(pair), copy1)
    return term + SYMMETRY_PENALTY * la.trace_norm(copy1 - copy2)


def copy_asymmetry(pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams) -> float:
    """Trace-norm difference between the two copies at given parameters."""
    copy1, copy2 = _clone_copies(pair, *_pair_unitaries(u_alice, u_bob, 8))
    return float(la.trace_norm(copy1 - copy2)[0])


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


def _search(pair, kernel, n, seeds, reference, restarts, seed, max_evals) -> SearchReport:
    """Multi-restart simplex search of ``kernel(pair, U_A, U_B)`` over pairs
    of n x n unitaries, x holding the parameters of U_A then of U_B.

    Restart 0, 1, ... start at the analytic seeds; later restarts alternate
    between perturbations of the first seed (scale 0.2) and fully random
    draws uniform in [-pi, pi].  All restarts run in lock-step: each round
    stacks the next point of every unfinished run into one kernel call.
    Ties keep the lower restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    size = n * n

    def objectives(xs):
        return kernel(pair, *_unitary_pairs(xs, n))

    starts, runs = [], []
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        if r < len(seeds):
            starts.append("seed")
            x0 = seeds[r].copy()
        elif (r - len(seeds)) % 2 == 0:
            starts.append("perturbed")
            x0 = seeds[0] + 0.2 * rng.standard_normal(2 * size)
        else:
            starts.append("random")
            x0 = rng.uniform(-math.pi, math.pi, 2 * size)
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
        values = objectives(np.stack([pending[r] for r in live]))
        for r, value in zip(live, np.where(np.isinf(values), OFF_SUPPORT_SENTINEL, values)):
            advance(r, value)

    winner = min(range(restarts), key=lambda r: results[r][1])  # first of any tie
    best_x = results[winner][0]
    records = tuple(
        RestartRecord(start, nfev, nit, "maxfev" if nfev >= max_evals else "converged", fun)
        for start, (_, fun, nfev, nit) in zip(starts, results)
    )
    return SearchReport(
        best_objective=float(objectives(best_x[None])[0]),
        best_params=(UnitaryParams(best_x[:size]), UnitaryParams(best_x[size:])),
        restarts_used=restarts,
        seed=seed,
        reference_bound=reference,
        restart_records=records,
        winner=winner,
    )


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
    return _search(pair, _delete_objectives, 4, seeds, reference, restarts, seed, max_evals)


def optimize_clone(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search local-unitary-with-fixed-ancilla cloning machines.

    Seeded at the universal cloner and at the basis-copying machine, so
    the result never exceeds :func:`clone_bound`; deterministic for fixed
    (pair, restarts, seed).
    """
    reference = clone_bound(pair)
    cloner = cloner_seed_params().thetas
    copier = basis_copy_seed_params().thetas
    seeds = [
        np.concatenate([cloner, cloner]),
        np.concatenate([copier, copier]),
    ]
    return _search(pair, _clone_objectives, 8, seeds, reference, restarts, seed, max_evals)
