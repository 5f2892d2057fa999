"""Command-line interface.

Subcommands: ``gi`` (generalized inverse of a matrix, optionally with
prescribed complements), ``conditions`` (the seven transversality conditions
for a perturbed operator), ``integrate`` (build an integral patch from a
family manifest or builtin), ``chart`` (fixed-rank chart verification) and
``verify`` (randomized suites).

Exit codes: 0 success, 1 verification failures, 2 validation error on the
inputs, 3 numerical precondition failure (ball exit, lost transversality,
degenerate splitting).
"""

import argparse
import sys

from .builtins import (
    BUILTIN_NAMES,
    builtin_family,
    default_extent,
    default_grid,
    family_from_manifest,
    sec4_context,
)
from .config import DEFAULTS
from .errors import NumericalError, ValidationError
from .frobenius import integrate, tangency_check
from .geninv import _given_inverse, gi_from_complements, moore_penrose, seven_conditions, trial_rng
from .linalg import Subspace, orth_basis
from .matio import _write_text, dump_json, load_json, matrix_to_dict, read_matrix
from .opmanifold import fixed_rank_chart_check, operator_context, sample_fixed_rank_near, tangency_fixed_rank
from .suites import SUITE_NAMES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oblique", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gi", help="generalized inverse with optional prescribed complements")
    p.add_argument("--a", required=True, help="matrix file (.json or .csv)")
    p.add_argument("--r-plus", help="matrix whose columns span the range complement (domain)")
    p.add_argument("--n-plus", help="matrix whose columns span the kernel complement (codomain)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("conditions", help="seven equivalent transversality conditions")
    p.add_argument("--a", required=True, help="base matrix file")
    p.add_argument("--ainv", help="inverse matrix file (default: pseudoinverse of A)")
    p.add_argument("--t", required=True, help="perturbed matrix file")
    p.add_argument("--out")

    p = sub.add_parser("integrate", help="integrate a subspace family into a patch")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="family manifest JSON file")
    src.add_argument("--builtin", choices=BUILTIN_NAMES)
    p.add_argument("--extent", type=float, nargs="+", help="per-axis half-widths")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--grid", type=int, help="odd node count per axis")
    p.add_argument("--emit-csv", help="also write (x..., psi...) rows here")
    p.add_argument("--out")

    p = sub.add_parser("chart", help="fixed-rank chart verification around a base operator")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--a", help="base matrix file")
    src.add_argument("--builtin", choices=("sec4_2x2",))
    p.add_argument("--k", type=int, help="expected rank (validated against A)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--curves", type=int, default=0, help="tangency curves (0 = dim of the slice + 6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, help="override tol_num (cond_tol scales with it)")
    p.add_argument("--step", type=float, help="integrator step for the frobenius suite")
    p.add_argument("--out")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = dump_json(payload, out)
    if out is None:
        sys.stdout.write(text)


def _require_at_least(args, **floors: int) -> None:
    for name, floor in floors.items():
        value = getattr(args, name)
        if value is not None and value < floor:
            raise ValidationError(f"--{name} must be at least {floor}, got {value}")


def _subspace_from_file(path: str) -> Subspace:
    return Subspace(orth_basis(read_matrix(path)))


def _cmd_gi(args) -> int:
    a = read_matrix(args.a)
    if (args.r_plus is None) != (args.n_plus is None):
        raise ValidationError("--r-plus and --n-plus must be given together")
    if args.r_plus is None:
        gi = moore_penrose(a)
    else:
        gi = gi_from_complements(a, _subspace_from_file(args.r_plus), _subspace_from_file(args.n_plus))
    _emit(
        {
            "A_plus": matrix_to_dict(gi.inverse),
            "R_plus": matrix_to_dict(gi.range_complement.basis),
            "N_plus": matrix_to_dict(gi.kernel_complement.basis),
            "residuals": gi.residuals(),
        },
        args.out,
    )
    return 0


def _cmd_conditions(args) -> int:
    a = read_matrix(args.a)
    t = read_matrix(args.t)
    if args.ainv is None:
        gi = moore_penrose(a)
    else:
        gi = _given_inverse(a, read_matrix(args.ainv))
    report = seven_conditions(a, gi, t)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_integrate(args) -> int:
    if args.builtin is not None:
        family = builtin_family(args.builtin)
        extent = args.extent if args.extent else default_extent(args.builtin)
        grid = args.grid if args.grid is not None else default_grid(args.builtin)
    else:
        family = family_from_manifest(load_json(args.manifest))
        if not args.extent:
            raise ValidationError("--extent is required with --manifest")
        extent = args.extent
        grid = args.grid
    patch = integrate(family, extent, args.step, grid_points=grid)
    tangency_check(patch, family)
    payload = patch.to_dict()
    if args.emit_csv:
        _write_patch_csv(patch, args.emit_csv)
    _emit(payload, args.out)
    return 0


def _write_patch_csv(patch, path: str) -> None:
    lines = [",".join([f"x{i}" for i in range(patch.m0_dim)] + [f"psi{i}" for i in range(patch.estar_dim)])]
    grid = patch.grid()
    psi = patch.psi_values()
    filled = patch.filled.ravel()
    for i in range(grid.shape[0]):
        if not filled[i]:
            continue
        lines.append(",".join(repr(float(v)) for v in (*grid[i], *psi[i])))
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_chart(args) -> int:
    _require_at_least(args, samples=1, curves=0, seed=0)
    if args.builtin is not None:
        ctx = sec4_context()
    else:
        ctx = operator_context(read_matrix(args.a))
    if args.k is not None and args.k != ctx.rank:
        raise ValidationError(f"--k {args.k} does not match rank {ctx.rank} of the base operator")
    rep = fixed_rank_chart_check(ctx, samples=args.samples, seed=args.seed)
    x = sample_fixed_rank_near(ctx, trial_rng(args.seed, 999))
    curves = args.curves if args.curves > 0 else ctx.dim + 6
    tan = tangency_fixed_rank(ctx, x, curves=curves, seed=args.seed)
    _emit(
        {
            "m0_dim": rep.m0_dim,
            "round_trip_max": rep.round_trip_max,
            "membership_max": rep.membership_max,
            "rank_failures": rep.rank_failures,
            "tangency_residual": tan.max_residual,
            "tangent_span_dim": tan.tangent_span_dim,
            "expected_dim": tan.expected_dim,
            "samples": args.samples,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    _require_at_least(args, trials=1, seed=0)
    cfg = DEFAULTS
    if args.tol is not None:
        if not 0 < args.tol < float("inf"):  # a NaN fails this too
            raise ValidationError(f"--tol must be positive and finite, got {args.tol}")
        cfg = cfg.replace(tol_num=args.tol, cond_tol=100.0 * args.tol)
    report = run_suite(args.suite, args.trials, args.seed, cfg, step=args.step)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gi": _cmd_gi,
        "conditions": _cmd_conditions,
        "integrate": _cmd_integrate,
        "chart": _cmd_chart,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
