"""Gradient search over parameterised local unitaries, tightening the
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

Each restart searches a chart centred on its own starting machine U_0: U =
U_0 exp(iH(x)), from x = 0 (Lezcano-Casado, "Trivializations for
gradient-based optimization on manifolds", NeurIPS 2019).  In one global
chart a random start has eigenvalue gaps of H near 2 pi, where the
derivative of exp(iH) nearly vanishes and the run crawls; centred, H starts
at zero.  A unitary log maps each final machine back to the n^2 parameters
of :func:`param_to_unitary`, which the reports carry.

Each machine family has one circuit kernel, taking the pair and two stacks
of unitaries to one search score per machine, and both kernels score with
the same pure-state relative entropy.  The deleting kernel runs the circuit
of :func:`~dualent.deleting.local_delete_swap`, and it scores the deleted
copy against the fixed product target |11>, not against the best product
target: local unitaries on A' and B' after the machine fold into U_A and
U_B, so both scores have the same infimum.  The inner minimum over product
targets runs only in the deleting machine's one scorer, which
:func:`delete_objective` and ``local_delete_swap`` share.

Both searches run one driver: every restart is a BFGS run, which keeps a
dense inverse Hessian (the charts have only 32 or 40 reals), written as a
generator that yields the points it needs and is sent their values and
gradients.  Both kernels have exact gradients: the search scores are
-<v|log2 rho|v>, and Daleckii-Krein divided differences differentiate both
log2 rho and exp(iH) from the eigendecompositions the values already take;
one cached linear map assembles the generators and reads their gradients.
The driver runs all restarts in lock-step and evaluates the pending point of
every unfinished run with one stacked value-and-gradient call per round, so
the restarts share each numpy call; a run's bits do not depend on how many
others are still live.  The final machine of every run is then
scored by the family's public objective, :func:`delete_objective` or
:func:`clone_objective`, which picks the winner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .cloning import clone_bound
from .deleting import (
    _delete_objective,
    _delete_terms,
    _psi_vec,
    delete_bound,
    swap_gate,
)
from .qstate import SchmidtPair, _pure_rel_entropy, _pure_rel_entropy_grad

# value-and-gradient evaluations per restart; the longest restart seen, a
# random deleting restart at a = 0.7022, took 1670
MAX_EVALS = 2000
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_GRAD_TOL = 1e-9  # converged: max |gradient| at most this ...
_DECREASE_TOL = 1e-14  # ... or a step lowers the value by at most this, relative
_STEP_TOL = 1e-12  # stalled: the line search shrank the step below this


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
    """How one BFGS run of a search went.

    ``start`` is ``"seed"``, ``"perturbed"`` or ``"random"``; ``nfev``
    counts value-and-gradient evaluations and ``nit`` accepted steps.
    ``exit`` is ``"converged"`` (gradient or decrease below tolerance),
    ``"maxfev"`` (evaluation budget spent) or ``"stalled"`` (a line search
    found no decrease).  ``objective`` is the family's public objective
    (:func:`delete_objective` or :func:`clone_objective`) at the run's
    final point; for deleting it can lie below the run's own values, which
    score the fixed target |11>.
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
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=8)
def _generator_map(n: int) -> np.ndarray:
    """The read-only (n^2, 2 n^2) map whose row p is dH / d theta_p, flattened
    row-major, real and imaginary parts side by side: thetas @ map, viewed as
    complex, is H, and (K viewed as reals) @ map^T is Re tr(K^dag dH) in each
    parameter.  Entries 0 and +-1 keep both bit-equal to entry-by-entry sums."""
    rows, cols = _upper_indices(n)
    p = np.arange(n, n * n, 2)
    b = np.zeros((n * n, n, n), dtype=complex)
    b[range(n), range(n), range(n)] = b[p, rows, cols] = b[p, cols, rows] = 1.0
    b[p + 1, rows, cols], b[p + 1, cols, rows] = 1j, -1j
    b = b.reshape(n * n, n * n).view(float)
    b.flags.writeable = False
    return b


def _hermitian_from_thetas(thetas: np.ndarray, n: int) -> np.ndarray:
    """Generators of the parameter vectors in the rows of ``thetas`` (...,
    n^2), as a (..., n, n) stack."""
    return (thetas @ _generator_map(n)).view(complex).reshape(thetas.shape[:-1] + (n, n))


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
    return _exp_i(*np.linalg.eigh(_hermitian_from_thetas(thetas, n)))


def _exp_i(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """exp(iH) from the eigendecompositions of a stack of generators H."""
    return (vectors * np.exp(1j * values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _pair_unitaries(u_alice: UnitaryParams, u_bob: UnitaryParams, n: int):
    """The two n x n unitaries a parameter pair encodes, each as a stack of
    one, from one stacked ``eigh``."""
    for params in (u_alice, u_bob):
        if params.dim != n:
            raise ValueError(
                f"expected parameters for a {n}x{n} unitary, got {params.dim}x{params.dim}"
            )
    unitaries = _unitary_from_thetas(np.stack([u_alice.thetas, u_bob.thetas]), n)
    return unitaries[:1], unitaries[1:]


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


@functools.lru_cache(maxsize=8)
def _delete_constants(pair: SchmidtPair) -> tuple[np.ndarray, np.ndarray]:
    """Read-only targets psi, |11> and weights diag(psi (x) psi) of the deleting score."""
    targets = np.stack([_psi_vec(pair), [0.0, 0.0, 0.0, 1.0]])
    weights = np.array([pair.a * pair.a, pair.a * pair.b, pair.a * pair.b, pair.b * pair.b])
    targets.flags.writeable = weights.flags.writeable = False
    return targets, weights


def _delete_objectives_grad(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """The search score of each machine in the (k, 4, 4) stacks, and its
    gradients in U_A and U_B as a (k, 2, 4, 4) stack (d value = Re tr(G_A^dag
    dU_A + G_B^dag dU_B)).

    The score is the deleting objective with the deleted copy scored against
    |11> alone.  It is never below :func:`delete_objective`, and has the same
    infimum over machines: a local unitary on A' or B' after the machine
    leaves out_AB alone and turns the inner argmin into |11>, and it folds
    into U_A or U_B.

    With out_AB = K K^dag and out_A'B' = K^T K^*, the two terms' gradients
    G1, G2 in their states give G_K = G1 K + K G2^*; K is a reshuffle of
    out = U_A D U_B^T, D = diag(psi (x) psi).
    """
    _, out_ab, out_apbp, kept = _delete_terms(pair, u_alice, u_bob)
    targets, weights = _delete_constants(pair)
    states = np.concatenate([out_ab[..., None, :, :], out_apbp[..., None, :, :]], axis=-3)
    terms, grads = _pure_rel_entropy_grad(targets, states)
    grad_kept = grads[..., 0, :, :] @ kept + kept @ grads[..., 1, :, :].conj()
    grad_out = grad_kept.reshape(kept.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2)
    grad_out = grad_out.reshape(kept.shape)
    grad_u = np.empty(kept.shape[:-2] + (2, 4, 4), dtype=complex)
    np.multiply(grad_out @ u_bob.conj(), weights, out=grad_u[..., 0, :, :])
    np.multiply(grad_out.swapaxes(-1, -2) @ u_alice.conj(), weights, out=grad_u[..., 1, :, :])
    return 0.5 * (terms[..., 0] + terms[..., 1]), grad_u


def delete_objective(
    pair: SchmidtPair, u_alice: UnitaryParams, u_bob: UnitaryParams
) -> float:
    """Deleting quality of the machine U_AA' (x) U_BB', in bits.

    Half the sum of S(psi | out_AB) and the best pure-product relative
    entropy against out_A'B'; ``math.inf`` when either support fails (for
    instance the identity machine, whose deleted copy is still the
    entangled pure input).
    """
    return _delete_objective(pair, *_pair_unitaries(u_alice, u_bob, 4))


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
    ab = _clone_amplitudes(pair, u_alice, u_bob)[0]
    return ab @ ab.conj().swapaxes(-1, -2)


def _clone_amplitudes(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """The (..., 4, 16) output amplitudes, rows (A, B) and columns (A', Ae, B',
    Be), whose Gram matrix is :func:`_clone_copy`, and the isometries S U[:, :2]."""
    alice, bob = _SYMMETRIC @ u_alice[..., :2], _SYMMETRIC @ u_bob[..., :2]
    out = (alice * (pair.a, pair.b)) @ bob.swapaxes(-1, -2)
    t = out.reshape(-1, 2, 2, 2, 2, 2, 2)  # (machine, A, A', Ae, B, B', Be)
    return t.transpose(0, 1, 4, 2, 3, 5, 6).reshape(out.shape[:-2] + (4, 16)), alice, bob


def _clone_objectives(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """The cloning objective of each machine in the (k, 6, 6) stacks."""
    return _pure_rel_entropy(_psi_vec(pair), _clone_copy(pair, u_alice, u_bob))


def _clone_objectives_grad(pair: SchmidtPair, u_alice: np.ndarray, u_bob: np.ndarray):
    """:func:`_clone_objectives`, bit for bit, and the gradients in U_A and
    U_B as a (k, 2, 6, 6) stack (d value = Re tr(G_A^dag dU_A + G_B^dag
    dU_B)); only their first two columns, the ones the input reaches, are
    nonzero.

    With copy = M M^dag for the amplitudes M, G_M = 2 G M; M is a reshuffle
    of out = S U_A[:, :2] diag(a, b) (S U_B[:, :2])^T.
    """
    ab, alice, bob = _clone_amplitudes(pair, u_alice, u_bob)
    value, grad_copy = _pure_rel_entropy_grad(_psi_vec(pair), ab @ ab.conj().swapaxes(-1, -2))
    grad_ab = 2.0 * grad_copy @ ab
    grad_out = grad_ab.reshape(-1, 2, 2, 2, 2, 2, 2).transpose(0, 1, 3, 4, 2, 5, 6)
    grad_out = grad_out.reshape(ab.shape[:-2] + (8, 8))
    grads = np.zeros(ab.shape[:-2] + (2, 6, 6), dtype=complex)
    grads[..., 0, :, :2] = _SYMMETRIC.T @ (grad_out @ bob.conj())
    grads[..., 1, :, :2] = _SYMMETRIC.T @ (grad_out.swapaxes(-1, -2) @ alice.conj())
    grads[..., :2] *= (pair.a, pair.b)
    return value, grads


def _bfgs(x0: np.ndarray, max_evals: int):
    """BFGS (Nocedal & Wright, Numerical Optimization, 2nd ed. 2006, section
    6.1) as a generator: it yields each point it needs and is sent that
    point's ``(value, gradient)`` back.  Returns ``(x, value, nfev, nit,
    exit)`` at the last accepted point.

    Each step backtracks along -H g until the Armijo condition holds, moving
    to the minimiser of the quadratic through the value, the slope and the
    failed trial, kept within [0.1, 0.5] of the step; an infinite trial
    value (off the support) is a failed trial.  Until the first curvature
    pair (s, y) enters, the run moves along -g, first trying min(1, 1 / |g|),
    at most a unit distance; that pair first sets the inverse Hessian H to
    s.y / y.y times the identity (eq. 6.20).  A pair updates H only when s.y
    > 1e-12 y.y, which keeps H positive definite.
    """
    value, grad = yield x0
    x, nfev, nit = x0, 1, 0
    if not math.isfinite(value):
        return x, value, nfev, nit, "stalled"
    h = None  # the inverse Hessian estimate, once a curvature pair entered
    while np.abs(grad).max() > _GRAD_TOL:
        direction = -grad if h is None else -(h @ grad)
        slope = grad @ direction
        # Armijo then accepts only decreases, so a run never ends above its
        # start (the seeds' reference bounds); H is positive definite, so
        # only round-off could make the slope nonnegative
        if not slope < 0:
            h = None
            direction, slope = -grad, -(grad @ grad)
        step = 1.0 if h is not None else min(1.0, 1.0 / math.sqrt(grad @ grad))
        while True:
            if nfev >= max_evals:
                return x, value, nfev, nit, "maxfev"
            trial = x + step * direction
            trial_value, trial_grad = yield trial
            nfev += 1
            if trial_value <= value + _ARMIJO * step * slope:
                break
            quadratic = -slope * step * step / (2.0 * (trial_value - value - slope * step))
            step = min(max(quadratic, 0.1 * step), 0.5 * step)
            if step * np.abs(direction).max() < _STEP_TOL:
                return x, value, nfev, nit, "stalled"
        s, y = trial - x, trial_grad - grad
        sy = s @ y
        if sy > 1e-12 * (y @ y):
            if h is None:
                h = np.eye(s.size) * (sy / (y @ y))
            hy, rho = h @ y, 1.0 / sy
            h += (rho + rho * rho * (y @ hy)) * (s[:, None] * s)
            hys = hy[:, None] * s
            h -= rho * (hys + hys.T)
        nit += 1
        decrease = value - trial_value
        scale = max(abs(value), abs(trial_value), 1.0)
        x, value, grad = trial, trial_value, trial_grad
        if decrease <= _DECREASE_TOL * scale:
            break
    return x, value, nfev, nit, "converged"


def _stacked_values_and_gradients(pair, kernel, bases: np.ndarray, xs: np.ndarray, generators):
    """Values and chart gradients of ``kernel``, a family's value and
    unitary-gradient kernel, at the machines bases @ exp(iH(x)), for chart
    points ``xs`` (m, 2 f) (H_A, then H_B), (m, 2, n, n) ``bases`` and the f
    rows of :func:`_generator_map` the chart moves, ``generators``.  One
    stacked ``eigh`` gives exp(iH) and, by Daleckii-Krein, the chain rule
    through it: dU = V (F o V^dag dH V) V^dag with F the divided differences
    i exp(i (l_j + l_k) / 2) sinc((l_j - l_k) / 2) of exp(i lambda), so d
    value = Re tr(K^dag dH), K = V (F^* o V^dag bases^dag G V) V^dag for the
    unitary gradients G; the map reads K off into C-contiguous rows (a
    strided row rounds the BFGS runs' dot products differently)."""
    m, n = len(xs), bases.shape[-1]
    h = (xs.reshape(2 * m, -1) @ generators).view(complex).reshape(2 * m, n, n)
    values, vectors = np.linalg.eigh(h)
    vh = vectors.conj().swapaxes(-1, -2)
    unitaries = bases @ ((vectors * np.exp(1j * values)[..., None, :]) @ vh).reshape(m, 2, n, n)
    objectives, grad_u = kernel(pair, unitaries[:, 0], unitaries[:, 1])
    pulled = (bases.conj().swapaxes(-1, -2) @ grad_u).reshape(2 * m, n, n)
    mean = 0.5 * (values[:, :, None] + values[:, None, :])
    # sinc((l_j - l_k) / 2) as np.sinc computes it
    half_gap = math.pi * ((values[:, :, None] - values[:, None, :]) / (2 * math.pi))
    half_gap = np.where(half_gap, half_gap, np.finfo(float).eps)
    divided = 1j * np.exp(1j * mean) * (np.sin(half_gap) / half_gap)
    k = vectors @ (divided.conj() * (vh @ pulled @ vectors)) @ vh
    grads = k.reshape(2 * m, n * n).view(float) @ generators.T
    return objectives, grads.reshape(m, -1)


def _params_from_unitary(u: np.ndarray) -> list[UnitaryParams]:
    """Parameters of a generator H with exp(iH) = u, for each unitary u of a stack.

    ``eig``'s eigenvectors, orthonormalised by QR, give u's Schur form,
    which is diagonal because u is normal; H takes the angles of its
    diagonal, in (-pi, pi].  QR also orthonormalises the eigenvectors that
    ``eig`` returns for a repeated eigenvalue.
    """
    q = np.linalg.qr(np.linalg.eig(u)[1])[0]
    qh = q.conj().swapaxes(-1, -2)
    angles = np.angle(np.diagonal(qh @ u @ q, axis1=-2, axis2=-1))
    return [params_from_hermitian(h) for h in (q * angles[..., None, :]) @ qh]


def _search(pair, kernel, score, k, seeds, reference, restarts, seed, max_evals) -> SearchReport:
    """Multi-restart BFGS search of the values of ``kernel(pair, U_A,
    U_B)``, a family's value-and-gradient kernel, over pairs of n x n
    unitaries whose input reaches only their first k columns.

    Restart 0, 1, ... start at the analytic seeds, the (params_A, params_B)
    pairs in ``seeds``; later restarts alternate between perturbations of
    the first seed (scale 0.2) and fully random draws uniform in [-pi, pi].
    A start moves only the 2kn - k^2 generator coordinates in rows i < k,
    and its (k:, k:) block is zero, as in the seeds.  Each restart then
    searches the chart U = U_0 exp(iH(x)) centred on its start U_0, from x
    = 0: x holds the same coordinates of H_A, then of H_B, and exp(iH)[:,
    :k] still reaches every n x k isometry.  Centred, every run starts at
    H = 0, where no wide eigenvalue gap damps the gradient through exp(iH).

    All restarts run in lock-step: each round stacks the next point of every
    unfinished run into one value-and-gradient call.  Each run's final
    machine U_0 exp(iH(x)) is mapped back to parameters by a unitary log
    and scored by the family's public objective ``score(pair, params_A,
    params_B)``; the lowest score wins, ties keeping the lower restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n = seeds[0][0].dim
    free = np.r_[:k, n : n + 2 * (k * n - k * (k + 1) // 2)]
    generators = _generator_map(n)[free]
    seeds = [np.concatenate([params.thetas[free] for params in machine]) for machine in seeds]

    def machines(xs):  # (m, 2 |free|) chart points -> (m, 2, n, n) exp(iH)
        h = (xs.reshape(-1, free.size) @ generators).view(complex).reshape(-1, n, n)
        return _exp_i(*np.linalg.eigh(h)).reshape(-1, 2, n, n)

    starts, x0s = [], []
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        if r < len(seeds):
            starts.append("seed")
            x0s.append(seeds[r])
        elif (r - len(seeds)) % 2 == 0:
            starts.append("perturbed")
            x0s.append(seeds[0] + 0.2 * rng.standard_normal(seeds[0].size))
        else:
            starts.append("random")
            x0s.append(rng.uniform(-math.pi, math.pi, seeds[0].size))
    bases = machines(np.stack(x0s))
    runs = [_bfgs(np.zeros(2 * free.size), max_evals) for _ in range(restarts)]

    pending, results, live = {}, [None] * restarts, []

    def advance(r, sent):
        try:
            pending[r] = runs[r].send(sent)
        except StopIteration as stop:
            pending.pop(r, None)
            results[r] = stop.value

    for r in range(restarts):
        advance(r, None)
    while pending:
        if len(live) != len(pending):  # runs only finish, never join
            live = list(pending)
            live_bases = bases[live]
        xs = np.array([pending[r] for r in live])
        values, grads = _stacked_values_and_gradients(pair, kernel, live_bases, xs, generators)
        for r, value, grad in zip(live, values, grads):
            advance(r, (float(value), grad))

    ends = bases @ machines(np.stack([x for x, *_ in results]))
    logs = _params_from_unitary(ends.reshape(-1, n, n))
    finals = list(zip(logs[::2], logs[1::2]))
    scores = [score(pair, *params) for params in finals]
    winner = min(range(restarts), key=scores.__getitem__)  # first of any tie
    records = tuple(
        RestartRecord(start, nfev, nit, exit, value)
        for start, (_, _, nfev, nit, exit), value in zip(starts, results, scores)
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
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search local-unitary deleting machines for the best objective.

    The BFGS runs score each machine against the fixed target |11>
    (:func:`_delete_objectives_grad`); each run's final machine is then
    scored by :func:`delete_objective`, which can only be lower.  Seeded at
    the A-side and B-side swaps, so the result never exceeds
    :func:`delete_bound`; deterministic for fixed (pair, restarts, seed).
    """
    reference = delete_bound(pair)
    alice, bob = swap_delete_seed()
    seeds = [(alice, bob), (bob, alice)]
    kernel, score = _delete_objectives_grad, delete_objective
    return _search(pair, kernel, score, 4, seeds, reference, restarts, seed, max_evals)


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
    kernel, score = _clone_objectives_grad, clone_objective
    return _search(pair, kernel, score, 2, seeds, reference, restarts, seed, max_evals)
