"""Gradient search over local unitaries, tightening the cloning and
deleting bounds from within the corresponding machine families.

A machine is one unitary per party, held as a validated
:class:`LocalUnitary`.  A deleting machine is a 4x4 unitary on (A, A').  A
cloning machine is the first two columns of a 6x6 unitary, mapped by the
fixed isometry S onto Sym^2(C^2) (x) C^2_env inside (clone1, clone2, env):
both clones are symmetric, so the two copies are equal by construction and
only the (A, B) copy is built.  S and the universal cloner's two columns in
its basis are defined in :mod:`dualent.cloning`, next to the cloner.  A
search moves only the first k rows of its step generators, for the k
columns its input reaches: 2kn - k^2 reals per party, all 16 for deleting
and 20 of 36 for cloning.  It starts at the analytic machines (the A/A'
swap; the universal cloner and the identity, which S turns into the basis
copier), so its best objective can never exceed the analytic reference
bound; every other start is a step from a machine, seed exp(iH) for a
perturbed start and exp(iH) for a random one, on its own random stream.
Each family's chart and starts are read-only arrays built at import.

Each restart is a Riemannian descent on the unitary group: it carries its
current machine U and steps to U exp(iH) for a generator H of the moved
coordinates (Abrudan, Eriksson and Koivunen, IEEE Trans. Signal Process. 56,
1134 (2008); Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008).  Every gradient is read at H = 0 in the chart of the
machine it belongs to, where exp(iH) has derivative iH.  The reports carry
each run's final machine as it is.

One circuit, :func:`~dualent.qstate._local_output`, runs both families'
machines and its one adjoint differentiates them.  Each family has one
scoring kernel, from the pair's inputs, which a search builds once, and two
stacks of unitaries to one score per machine; both score with the same
pure-state relative entropy.  The deleting kernel scores the deleted copy
against the fixed product target |11>, not the best product target: local
unitaries on A' and B' after the machine fold into U_A and U_B, so both
scores have the same infimum.  The inner minimum over product targets runs
only in the deleting machine's one scorer, which :func:`delete_objective`
and ``local_delete_swap`` share.

Both searches run one driver: every restart is a BFGS run, which keeps a
dense inverse Hessian (the steps have only 32 or 40 reals), written as a
generator that yields the steps it needs and is sent their values,
gradients and machines.  Both kernels have exact gradients: the search
scores are -<v|log2 rho|v>, and Daleckii-Krein divided differences
differentiate log2 rho from the eigendecompositions the values already
take; the family's chart, one linear map, assembles the generators and
reads their gradients.  The driver runs all restarts in lock-step and
evaluates the pending trial of every unfinished run with one stacked
value-and-gradient call per round, so the restarts share each numpy call;
a run's bits do not depend on how many others are still live.  Each run reports the score it
minimised at its final machine, and the lowest wins: for cloning that is
:func:`clone_objective`, for deleting the fixed-target score, an upper
bound on :func:`delete_objective` of the same machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg as la
from .cloning import _CLONER, _SYMMETRIC, _clone_inputs, clone_bound
from .deleting import (
    _IDENTITY_MACHINE,
    _SWAP_MACHINE,
    _delete_inputs,
    _delete_outcome,
    _delete_terms,
    delete_bound,
)
from .qstate import SchmidtPair, _local_output, _local_output_adjoint, _pure_rel_entropy_grad

# value-and-gradient evaluations per restart; the longest restart seen, a
# random deleting restart at a = 0.7027 (bench search seed 2115), took 256
MAX_EVALS = 2000
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_GRAD_TOL = 1e-9  # converged: max |gradient| at most this ...
_DECREASE_TOL = 1e-14  # ... or a step lowers the value by at most this, relative
_STEP_TOL = 1e-12  # stalled: the line search shrank the step below this


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """One party's local machine: an n x n unitary, to within
    ``linalg.ISOMETRY_TOL`` in each entry of U^dag U - I.  The stored matrix
    is read-only and shares no memory with the argument."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = la._frozen(la.as_matrix(np.asarray(self.matrix, dtype=complex)))
        object.__setattr__(self, "matrix", matrix)
        defect = la.isometry_defect(matrix)
        if not defect <= la.ISOMETRY_TOL:
            raise ValueError(f"local machine is not unitary: max |U^dag U - I| = {defect:.3e}")

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class RestartRecord:
    """How one BFGS run of a search went.

    ``start`` is ``"seed"`` (an analytic machine as it is), ``"perturbed"``
    (the first seed times exp(iH), H small) or ``"random"`` (exp(iH));
    ``nfev`` counts value-and-gradient evaluations and ``nit`` accepted steps.
    ``exit`` is ``"converged"`` (gradient or decrease below tolerance),
    ``"maxfev"`` (evaluation budget spent) or ``"stalled"`` (a line search
    found no decrease).  ``objective`` is the score the run minimised, at its
    final machine (for deleting, the fixed-target score of
    :func:`optimize_delete`).
    """

    start: str
    nfev: int
    nit: int
    exit: str
    objective: float


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of one seeded multi-restart search; ``winner`` indexes the
    restart in ``restart_records`` that found ``best_params``, and
    ``best_objective`` is that restart's ``objective``."""

    best_objective: float
    best_params: tuple[LocalUnitary, LocalUnitary]
    restarts_used: int
    seed: int
    reference_bound: float
    restart_records: tuple[RestartRecord, ...]
    winner: int


def _generator_map(n: int, k: int) -> np.ndarray:
    """The read-only (2kn - k^2, 2 n^2) chart whose row p is dH / dx_p for the
    real coordinates x of an n x n Hermitian H in its rows i < k (k diagonal
    entries, then the real and imaginary parts of the upper triangle row by
    row), flattened row-major, real and imaginary parts side by side: x @ map,
    viewed as complex, is H, and (K viewed as reals) @ map^T is Re tr(K^dag
    dH) in each coordinate.  Entries 0 and +-1 keep both bit-equal to
    entry-by-entry sums; k = n charts every Hermitian H."""
    rows, cols = np.nonzero(np.triu(np.ones((k, n)), 1))
    size = k + 2 * len(rows)
    p = np.arange(k, size, 2)
    b = np.zeros((size, n, n), dtype=complex)
    b[range(k), range(k), range(k)] = b[p, rows, cols] = b[p, cols, rows] = 1.0
    b[p + 1, rows, cols], b[p + 1, cols, rows] = 1j, -1j
    return la._frozen(b.reshape(size, n * n).view(float))


def _hermitian(x: np.ndarray, chart: np.ndarray, n: int) -> np.ndarray:
    """The generators H(x) of the coordinate rows of ``x`` (..., f) in a
    ``chart`` of f rows from :func:`_generator_map`, as a (..., n, n) stack."""
    return (x @ chart).view(complex).reshape(x.shape[:-1] + (n, n))


def _exp_i(h: np.ndarray) -> np.ndarray:
    """exp(iH) for each generator H of a (..., n, n) stack, by one stacked ``eigh``."""
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(1j * values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def param_to_unitary(machine: LocalUnitary) -> np.ndarray:
    """The machine's n x n unitary matrix.  It stays for the benchmark probe
    in ``bench/layers.py``, which times it, until that probe reads
    ``machine.matrix`` itself."""
    return machine.matrix


def _pair_unitaries(u_alice: LocalUnitary, u_bob: LocalUnitary, n: int):
    """The two machines' n x n matrices, each as a stack of one."""
    for machine in (u_alice, u_bob):
        if machine.dim != n:
            raise ValueError(f"expected a {n}x{n} unitary, got {machine.dim}x{machine.dim}")
    return u_alice.matrix[None], u_bob.matrix[None]


def swap_delete_seed() -> tuple[LocalUnitary, LocalUnitary]:
    """The swap deleting machine that :func:`~dualent.deleting.local_delete_swap`
    runs, Alice swapping A with A' and Bob doing nothing, where the deleting
    search's first restart starts; the search reads it once, at import."""
    return LocalUnitary(_SWAP_MACHINE[0]), LocalUnitary(_IDENTITY_MACHINE[0])


def cloner_seed_params() -> LocalUnitary:
    """The universal cloner as a 6x6 unitary, where the cloning search (which
    reads it once, at import) first starts on both sides: its two columns in
    S's basis, completed by a QR of those columns next to the identity."""
    q = np.linalg.qr(np.concatenate([_CLONER, np.eye(6)], axis=1))[0]
    return LocalUnitary(np.concatenate([_CLONER, q[:, 2:]], axis=1))


def _delete_objectives_grad(inputs, u_alice: np.ndarray, u_bob: np.ndarray):
    """The search score of each machine in the (k, 4, 4) stacks, for the
    ``inputs`` of ``deleting._delete_inputs``, and its gradients in U_A and U_B
    as a (k, 2, 4, 4) stack (d value = Re tr(G_A^dag dU_A + G_B^dag dU_B)).

    The score is the deleting objective with the deleted copy scored against
    |11> alone.  In exact arithmetic it is never below
    :func:`delete_objective`, and it has the same infimum over machines: a
    local unitary on A' or B' after the machine leaves out_AB alone and
    turns the inner argmin into |11>, and it folds into U_A or U_B.

    With out_AB = K K^dag and out_A'B' = K^T K^* for the circuit's K, the
    two terms' gradients G1, G2 in their states give G_K = G1 K + K G2^*.
    """
    targets, weights = inputs
    out_ab, out_apbp, kept = _delete_terms(weights, u_alice, u_bob)
    states = np.concatenate([out_ab[..., None, :, :], out_apbp[..., None, :, :]], axis=-3)
    terms, grads = _pure_rel_entropy_grad(targets, states)
    grad_kept = grads[..., 0, :, :] @ kept + kept @ grads[..., 1, :, :].conj()
    grad_u = _local_output_adjoint(grad_kept, u_alice, u_bob) * weights
    return 0.5 * (terms[..., 0] + terms[..., 1]), grad_u


def delete_objective(pair: SchmidtPair, u_alice: LocalUnitary, u_bob: LocalUnitary) -> float:
    """Deleting quality of the machine U_AA' (x) U_BB', in bits.

    Half the sum of S(psi | out_AB) and the best pure-product relative
    entropy against out_A'B'; ``math.inf`` when either support fails (for
    instance the identity machine, whose deleted copy is still the
    entangled pure input).
    """
    return _delete_outcome(pair, *_pair_unitaries(u_alice, u_bob, 4)).objective


def clone_objective(pair: SchmidtPair, u_alice: LocalUnitary, u_bob: LocalUnitary) -> float:
    """Cloning quality S(psi | copy) of the symmetric machines that 6x6
    unitaries on (A, B) encode, in bits; the two copies are equal."""
    machines = _pair_unitaries(u_alice, u_bob, 6)
    return float(_clone_objectives_grad(_clone_inputs(pair), *machines)[0][0])


def _clone_objectives_grad(inputs, u_alice: np.ndarray, u_bob: np.ndarray):
    """The cloning objective of each machine in the (k, 6, 6) stacks, for the
    ``inputs`` of ``cloning._clone_inputs``, and its gradients in U_A and U_B
    as a (k, 2, 6, 6) stack (d value = Re tr(G_A^dag dU_A + G_B^dag dU_B));
    only their first two columns, the ones the input reaches, are nonzero.

    With copy = K K^dag, for the shared circuit's output K of the isometries
    S U_A[:, :2] and S U_B[:, :2] on the weights (a, b), G_K = 2 G K.
    """
    psi, weights = inputs
    alice, bob = _SYMMETRIC @ u_alice[..., :2], _SYMMETRIC @ u_bob[..., :2]
    ab = _local_output(weights, alice, bob)
    value, grad_copy = _pure_rel_entropy_grad(psi, ab @ ab.conj().swapaxes(-1, -2))
    grads = np.zeros(ab.shape[:-2] + (2, 6, 6), dtype=complex)
    grads[..., :2] = _SYMMETRIC.T @ _local_output_adjoint(2.0 * grad_copy @ ab, alice, bob)
    grads[..., :2] *= weights
    return value, grads


def _bfgs(start, size: int, max_evals: int):
    """BFGS (Nocedal & Wright, Numerical Optimization, 2nd ed. 2006, section
    6.1) as a generator over an opaque point: it yields ``(point, step)`` for
    each trial it needs, a step of ``size`` reals away from its current
    point, and is sent the trial's ``(value, gradient, trial)`` back, the
    gradient read in the trial's own coordinates.  An accepted trial becomes
    the point; the curvature pair is the step s and y = g_trial - g.
    Returns ``(point, value, nfev, nit, exit)`` at the last accepted point.

    The first trial is the zero step from ``start``.  Each step backtracks
    along -H g until the Armijo condition holds, moving to the minimiser of
    the quadratic through the value, the slope and the failed trial, kept
    within [0.1, 0.5] of the step; an infinite trial value (off the support)
    is a failed trial.  Until the first curvature pair enters, the run moves
    along -g, first trying min(1, 1 / |g|), at most a unit distance; that
    pair first sets the inverse Hessian H to s.y / y.y times the identity
    (eq. 6.20).  A pair updates H only when s.y > 1e-12 y.y, which keeps H
    positive definite.
    """
    value, grad, _ = yield start, np.zeros(size)
    point, nfev, nit = start, 1, 0
    if not math.isfinite(value):
        return point, value, nfev, nit, "stalled"
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
                return point, value, nfev, nit, "maxfev"
            s = step * direction
            trial_value, trial_grad, trial = yield point, s
            nfev += 1
            if trial_value <= value + _ARMIJO * step * slope:
                break
            quadratic = -slope * step * step / (2.0 * (trial_value - value - slope * step))
            step = min(max(quadratic, 0.1 * step), 0.5 * step)
            if step * np.abs(direction).max() < _STEP_TOL:
                return point, value, nfev, nit, "stalled"
        y = trial_grad - grad
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
        point, value, grad = trial, trial_value, trial_grad
        if decrease <= _DECREASE_TOL * scale:
            break
    return point, value, nfev, nit, "converged"


def _stacked_values_and_gradients(inputs, kernel, machines, steps, chart):
    """Values, gradients and machines of the trials T = U exp(iH(s)), for
    ``kernel``, a family's value and unitary-gradient kernel on ``inputs``,
    (m, 2, n, n) ``machines`` U, (m, 2 f) ``steps`` s (H_A, then H_B) and the
    ``chart`` of f rows from :func:`_generator_map` that a step moves.  One
    stacked ``eigh`` of the step generators builds exp(iH).  Each gradient is
    read in its trial's own frame, at H = 0 in T exp(iH): d value = Re
    tr(K^dag dH) with K = -i T^dag G for the unitary gradients G; the map
    reads K off into C-contiguous rows (a strided row rounds the BFGS runs'
    dot products differently)."""
    m, n = len(steps), machines.shape[-1]
    h = _hermitian(steps.reshape(2 * m, -1), chart, n)
    trials = machines @ _exp_i(h).reshape(m, 2, n, n)
    objectives, grad_u = kernel(inputs, trials[:, 0], trials[:, 1])
    k = -1j * (trials.conj().swapaxes(-1, -2) @ grad_u)
    grads = k.reshape(2 * m, n * n).view(float) @ chart.T
    return objectives, grads.reshape(m, -1), trials


def _search(inputs, kernel, chart, seeds, reference, restarts, seed, max_evals) -> SearchReport:
    """Multi-restart BFGS search of the values of ``kernel(inputs, U_A, U_B)``,
    a family's value-and-gradient kernel on one pair's ``inputs``, over pairs of
    n x n unitaries, stepping in the family's ``chart`` from :func:`_generator_map`.

    Restart 0, 1, ... start at the analytic seeds, the (2, n, n) machine
    pairs (U_A, U_B) in ``seeds``, as they are; every later start r is a
    step base exp(iH(x)), x drawn from ``default_rng((seed, r))``, alternately
    from the first seed with x normal of scale 0.2 and from the identity
    with x uniform in [-pi, pi].  Each run carries its machine U and steps
    to U exp(iH(s)); s holds the chart coordinates of H_A, then those of
    H_B.  An accepted trial becomes the run's machine, so every gradient is
    read at H = 0, where exp(iH) has derivative iH.

    All restarts run in lock-step: each round stacks the machine and the
    next step of every unfinished run into one value-and-gradient call.
    Each run's record holds the kernel's value at its final machine; the
    lowest wins, ties keeping the lower restart index, and its machine
    becomes a pair of :class:`LocalUnitary` records.
    """
    restarts, seed, max_evals = la._integers(
        (restarts, seed, max_evals), "restarts, seed and max_evals"
    )
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    n, size = seeds[0].shape[-1], 2 * len(chart)
    # seeds keep their bytes: a product with exp(0) would flip signed zeros
    starts, origins = ["seed"] * min(restarts, len(seeds)), list(seeds[:restarts])
    for r in range(len(seeds), restarts):
        rng = np.random.default_rng((seed, r))
        perturbed = (r - len(seeds)) % 2 == 0
        x = 0.2 * rng.standard_normal(size) if perturbed else rng.uniform(-math.pi, math.pi, size)
        step = _exp_i(_hermitian(x.reshape(2, -1), chart, n))
        starts.append("perturbed" if perturbed else "random")
        origins.append(seeds[0] @ step if perturbed else step)
    runs = [_bfgs(u, size, max_evals) for u in origins]

    pending, results = {}, [None] * restarts

    def advance(r, sent):
        try:
            pending[r] = runs[r].send(sent)
        except StopIteration as stop:
            pending.pop(r, None)
            results[r] = stop.value

    for r in range(restarts):
        advance(r, None)
    while pending:
        live = list(pending)
        machines = np.stack([pending[r][0] for r in live])
        steps = np.stack([pending[r][1] for r in live])
        evaluated = _stacked_values_and_gradients(inputs, kernel, machines, steps, chart)
        for r, value, grad, trial in zip(live, *evaluated):
            advance(r, (float(value), grad, trial))

    records = tuple(
        RestartRecord(start, nfev, nit, exit, value)
        for start, (_, value, nfev, nit, exit) in zip(starts, results)
    )
    winner = min(range(restarts), key=lambda r: records[r].objective)  # first of any tie
    return SearchReport(
        best_objective=records[winner].objective,
        best_params=tuple(LocalUnitary(u) for u in results[winner][0]),
        restarts_used=restarts,
        seed=seed,
        reference_bound=reference,
        restart_records=records,
        winner=winner,
    )


# each family's kernel, chart and starts: (s, 2, n, n) stacks of (U_A, U_B), the
# swap and its Bob-side image, then the cloner and the copier on both sides
_SWAP_SEEDS = la._frozen(np.array([u.matrix for u in swap_delete_seed()])[[[0, 1], [1, 0]]])
_CLONER_SEEDS = la._frozen([[cloner_seed_params().matrix] * 2, [np.eye(6, dtype=complex)] * 2])
_DELETE = _delete_objectives_grad, _generator_map(4, 4), _SWAP_SEEDS
_CLONE = _clone_objectives_grad, _generator_map(6, 2), _CLONER_SEEDS


def optimize_delete(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search local-unitary deleting machines for the best objective.

    The BFGS runs score each machine with the deleted copy against the fixed
    target |11> (:func:`_delete_objectives_grad`), and the best is that score of
    the winning machine.  |11> is an admissible target, so the best is an upper
    bound, and :func:`delete_objective` of the same machine can only be lower in
    exact arithmetic.  Seeded at the A-side and B-side swaps, so the result
    never exceeds :func:`delete_bound`; deterministic for fixed (pair, restarts,
    seed), and seeds share no random start.  An a > b is searched as its mirror
    b|00> + a|11>, the image under X (x) X, a local unitary that moves no
    objective; the |11> the search scores is the swap's best product target only
    for b >= a.  The mirror's machines, conjugated by X (x) X on each party's
    two qubits, which reverses the basis, are the pair's own.
    """
    if pair.a > pair.b:
        mirror = optimize_delete(SchmidtPair(pair.b), restarts, seed, max_evals)
        machines = tuple(LocalUnitary(u.matrix[::-1, ::-1]) for u in mirror.best_params)
        return replace(mirror, best_params=machines)
    return _search(_delete_inputs(pair), *_DELETE, delete_bound(pair), restarts, seed, max_evals)


def optimize_clone(
    pair: SchmidtPair, restarts: int, seed: int, max_evals: int = MAX_EVALS
) -> SearchReport:
    """Search symmetric local cloning machines: rows 0, 1 of a 6x6 generator.

    Seeded at the universal cloner, so the result never exceeds
    :func:`clone_bound`, and with ``restarts >= 2`` at the basis copier (the
    identity) too, a stationary point that scores E_R in one evaluation, so it
    never exceeds ``clone_bound_combined(pair).combined`` (to round-off).
    Deterministic for fixed (pair, restarts, seed); seeds share no random start.
    """
    return _search(_clone_inputs(pair), *_CLONE, clone_bound(pair), restarts, seed, max_evals)
