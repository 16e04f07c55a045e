"""Command-line surface: point evaluations, figure-data sweeps, the
crossover finder, no-go demonstrations, and the variational searches.

Reports are single-line ``key=value`` pairs; sweeps are CSV.  All randomness
is seeded through flags, so every command is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cloning import clone_bound_combined, crossover
from .deleting import _on_convention, delete_bound, schmidt_rank_nogo_check
from .nogo import measure_forget_channel, no_local_cloning_certificate
from .qstate import Ket, SchmidtPair, _pair_entropy
from .variational import optimize_clone, optimize_delete

SWEEP_A_MIN = 0.01  # the a -> 0 endpoint is a product state with both bounds 0
MEASURE_FORGET_SAMPLES = 200
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SweepRow:
    """One row of the figure-reproduction CSV."""

    a: float
    e_r: float
    s_clone: float
    c_bound: float
    d_bound: float

    def render(self) -> str:
        return ",".join(
            f"{v:.9f}" for v in (self.a, self.e_r, self.s_clone, self.c_bound, self.d_bound)
        )


def _fmt(key: str, value: float, digits: int = 9) -> str:
    return f"{key}={value:.{digits}f}"


def sweep_rows(points: int) -> list[SweepRow]:
    """Bound data on a uniform grid over [0.01, 1/sqrt(2)]."""
    if points < 2:
        raise ValueError("points must be >= 2")
    rows = []
    for a in np.linspace(SWEEP_A_MIN, 1.0 / math.sqrt(2.0), points):
        pair = SchmidtPair(float(a))
        record = clone_bound_combined(pair)
        rows.append(
            SweepRow(
                a=float(a),
                e_r=record.e_r,
                s_clone=record.s_clone,
                c_bound=record.combined,
                d_bound=delete_bound(pair),
            )
        )
    return rows


def render_sweep_csv(points: int) -> str:
    header = "a,E_R,S_clone,C_bound,D_bound"
    return "\n".join([header] + [row.render() for row in sweep_rows(points)]) + "\n"


def _cmd_clone_bound(args) -> int:
    record = clone_bound_combined(SchmidtPair(args.a))
    print(
        " ".join(
            [
                _fmt("a", record.a),
                _fmt("E_R", record.e_r),
                _fmt("S_clone", record.s_clone),
                _fmt("combined", record.combined),
            ]
        )
    )
    return 0


def _cmd_delete_bound(args) -> int:
    pair = SchmidtPair(args.a)
    e = _pair_entropy(pair)
    print(" ".join([_fmt("a", pair.a), _fmt("E", e), _fmt("D_bound", delete_bound(pair))]))
    return 0


def _cmd_sweep(args) -> int:
    text = render_sweep_csv(args.points)
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.points} rows to {args.out}")
    return 0


def _cmd_crossover(args) -> int:
    print(_fmt("crossover", crossover(), digits=6))
    return 0


def _cmd_nogo(args) -> int:
    # as the library decides it, psi is product at Schmidt rank 1, entangled at E > 0
    a = 0.6 if args.a is None else args.a
    if args.which == "schmidt":
        check = schmidt_rank_nogo_check(SchmidtPair(a))
        note = "deletable" if check.deletable else "FAIL-to-delete"
        fields = (
            f"a={a:.9f} rank_input={check.rank_input} rank_target={check.rank_target} "
            f"deletable={str(check.deletable).lower()} note={note}"
        )
        ok = check.deletable == (check.rank_target == 1)
    elif args.which == "distill":
        cert = no_local_cloning_certificate(SchmidtPair(a))
        fields = (
            f"a={a:.9f} {_fmt('ed_input', cert.ed_input)} "
            f"{_fmt('ed_required', cert.ed_required)} "
            f"contradiction={str(cert.contradiction).lower()}"
        )
        ok = cert.contradiction == (cert.ed_input > 0)
    else:
        if args.a is None:
            draws = np.random.default_rng(0).standard_normal((MEASURE_FORGET_SAMPLES, 2, 2))
            kets = [raw / np.linalg.norm(raw) for raw in draws[:, 0] + 1j * draws[:, 1]]
            label = f"kets={MEASURE_FORGET_SAMPLES}"
        else:
            pair = SchmidtPair(args.a)
            kets, label = [np.array([pair.a, pair.b])], f"a={args.a:.9f}"
        residual = 0.0
        for ket in kets:
            system_out, env_out = measure_forget_channel(Ket(ket, (2,)))
            residual = max(residual, float(np.max(np.abs(system_out.matrix - env_out.matrix))))
        fields, ok = f"{label} max_residual={residual:.3e}", residual < RESIDUAL_TOL
    print(f"{fields} verdict={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_variational(args) -> int:
    pair = SchmidtPair(args.a)
    search = optimize_delete if args.kind == "delete" else optimize_clone
    report = search(pair, restarts=args.restarts, seed=args.seed)
    breach = report.best_objective > report.reference_bound + 1e-6
    print(
        f"kind={args.kind} a={args.a:.9f} "
        f"best_objective={report.best_objective:.12f} "
        f"reference_bound={report.reference_bound:.12f} "
        f"restarts_used={report.restarts_used} seed={report.seed} "
        f"verdict={'FAIL' if breach else 'PASS'}"
    )
    return 1 if breach else 0


def _family_a(text: str) -> float:
    """An a in [0, 1/sqrt(2)], read as the deleting bound reads it."""
    try:
        return _on_convention(SchmidtPair(float(text))).a
    except ValueError:
        raise argparse.ArgumentTypeError(f"a must be in [0, 1/sqrt(2)], got {text}") from None


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"a must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualent",
        description="Cloning- and deleting-based entanglement bounds for "
        "two-qubit pure states a|00> + b|11>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clone-bound", help="both cloning-side bounds at one a")
    p.add_argument("--a", type=_family_a, required=True)
    p.set_defaults(func=_cmd_clone_bound)

    p = sub.add_parser("delete-bound", help="the deleting bound at one a")
    p.add_argument("--a", type=_family_a, required=True)
    p.set_defaults(func=_cmd_delete_bound)

    p = sub.add_parser("sweep", help="CSV of all bounds on an a-grid")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossover", help="where the combined bound switches branch")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("nogo", help="impossibility witnesses")
    p.add_argument("which", choices=["schmidt", "measure-forget", "distill"])
    p.add_argument("--a", type=_nonneg_float, default=None)
    p.set_defaults(func=_cmd_nogo)

    p = sub.add_parser("variational", help="seeded BFGS search over local unitaries")
    p.add_argument("kind", choices=["clone", "delete"])
    p.add_argument("--a", type=_family_a, required=True)
    p.add_argument("--restarts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_variational)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
