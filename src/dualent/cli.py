"""Command-line surface: point evaluations, figure-data sweeps, the
crossover finder, no-go demonstrations, and the variational searches.

Reports are single-line ``key=value`` pairs; sweeps are CSV.  All randomness
is seeded through flags, so every command is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from . import linalg as la
from .cloning import clone_bound_combined, crossover
from .deleting import delete_bound, schmidt_rank_nogo_check
from .nogo import measure_forget_channel, no_local_cloning_certificate
from .qstate import Ket, SchmidtPair, _pair_entropy
from .variational import optimize_clone, optimize_delete

SWEEP_A_MIN = 0.01  # the a -> 0 endpoint is a product state with both bounds 0
MEASURE_FORGET_SAMPLES = 200
RESIDUAL_TOL = 1e-12
# the printed formats that differ from the writer's default
_FORMATS = {
    "crossover": ".6f", "best_objective": ".12f", "reference_bound": ".12f", "max_residual": ".3e"
}
_SWEEP_COLUMNS = ("a", "E_R", "S_clone", "C_bound", "D_bound")


def _text(name: str, value) -> str:
    """``value`` as printed under ``name``: a float to 9 decimals unless
    ``_FORMATS`` names another format, a bool in lower case, else ``str``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, _FORMATS.get(name, ".9f"))
    return str(value)


def _report(**fields) -> str:
    """A one-line ``key=value`` report, each value written by ``_text``."""
    return " ".join(f"{name}={_text(name, value)}" for name, value in fields.items())


@dataclass(frozen=True)
class SweepRow:
    """One row of the figure-reproduction CSV."""

    a: float
    e_r: float
    s_clone: float
    c_bound: float
    d_bound: float

    def render(self) -> str:
        return ",".join(map(_text, _SWEEP_COLUMNS, astuple(self)))


def sweep_rows(points: int) -> list[SweepRow]:
    """Bound data on a uniform grid over [0.01, 1/sqrt(2)]."""
    (points,) = la._integers((points,), "points")
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
    header = ",".join(_SWEEP_COLUMNS)
    return "\n".join([header] + [row.render() for row in sweep_rows(points)]) + "\n"


def _cmd_clone_bound(args) -> int:
    record = clone_bound_combined(SchmidtPair(args.a))
    print(_report(a=record.a, E_R=record.e_r, S_clone=record.s_clone, combined=record.combined))
    return 0


def _cmd_delete_bound(args) -> int:
    pair = SchmidtPair(args.a)
    print(_report(a=pair.a, E=_pair_entropy(pair), D_bound=delete_bound(pair)))
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
    print(_report(crossover=crossover()))
    return 0


def _cmd_nogo(args) -> int:
    # psi is product at Schmidt rank 1 and entangled at E > 0, and each verdict
    # checks its witness against the rule it does not use
    a = 0.6 if args.a is None else args.a
    pair = SchmidtPair(a)
    if args.which == "schmidt":
        check = schmidt_rank_nogo_check(pair)
        note = "deletable" if check.deletable else "FAIL-to-delete"
        fields = dict(a=a, **check._asdict(), note=note)
        ok = check.deletable == (_pair_entropy(pair) == 0)
    elif args.which == "distill":
        cert = no_local_cloning_certificate(pair)
        fields = dict(a=a, **cert._asdict())
        ok = cert.contradiction == (schmidt_rank_nogo_check(pair).rank_target == 2)
    else:
        if args.a is None:
            draws = np.random.default_rng(0).standard_normal((MEASURE_FORGET_SAMPLES, 2, 2))
            kets = [raw / np.linalg.norm(raw) for raw in draws[:, 0] + 1j * draws[:, 1]]
            fields = dict(kets=MEASURE_FORGET_SAMPLES)
        else:
            kets, fields = [np.array([pair.a, pair.b])], dict(a=a)
        residual = 0.0
        for ket in kets:
            system_out, env_out = measure_forget_channel(Ket(ket, (2,)))
            residual = max(residual, float(np.max(np.abs(system_out.matrix - env_out.matrix))))
        fields["max_residual"], ok = residual, residual < RESIDUAL_TOL
    print(_report(**fields, verdict="PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_variational(args) -> int:
    pair = SchmidtPair(args.a)
    search = optimize_delete if args.kind == "delete" else optimize_clone
    report = search(pair, restarts=args.restarts, seed=args.seed)
    breach = report.best_objective > report.reference_bound + 1e-6
    shown = ("best_objective", "reference_bound", "restarts_used", "seed")
    fields = {name: getattr(report, name) for name in shown}
    print(_report(kind=args.kind, a=args.a, **fields, verdict="FAIL" if breach else "PASS"))
    return 1 if breach else 0


def _schmidt_a(text: str) -> float:
    """``--a`` as ``SchmidtPair`` admits it; text it refuses is a usage error."""
    try:
        return SchmidtPair(float(text)).a
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualent",
        description="Cloning- and deleting-based entanglement bounds for "
        "two-qubit pure states a|00> + b|11>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clone-bound", help="both cloning-side bounds at one a")
    p.add_argument("--a", type=_schmidt_a, required=True)
    p.set_defaults(func=_cmd_clone_bound)

    p = sub.add_parser("delete-bound", help="the deleting bound at one a")
    p.add_argument("--a", type=_schmidt_a, required=True)
    p.set_defaults(func=_cmd_delete_bound)

    p = sub.add_parser("sweep", help="CSV of all bounds on an a-grid")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossover", help="where the combined bound switches branch")
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("nogo", help="impossibility witnesses")
    p.add_argument("which", choices=["schmidt", "measure-forget", "distill"])
    p.add_argument("--a", type=_schmidt_a, default=None)
    p.set_defaults(func=_cmd_nogo)

    p = sub.add_parser("variational", help="seeded BFGS search over local unitaries")
    p.add_argument("kind", choices=["clone", "delete"])
    p.add_argument("--a", type=_schmidt_a, required=True)
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
