"""Command line interface.

Subcommands mirror the library surface: `sylvester solve`, `subspace bound`,
`ritz estimate`, `sqroot check`, and the `bench mathieu` experiment runner.
Matrices travel in the shared text format; reports are emitted as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .harness import mathieu_model, rows_to_csv, rows_to_markdown, run_benchmark
from .matcore import (
    HermitianMatrix,
    Projection,
    hs_norm,
    load_matrix,
    op_norm,
    save_matrix,
)
from .ritz import dk_residual_bound, ritz_bounds
from .sqroot import sqrt_integral_solution, sqrt_pair
from .subspace import hs_subspace_bounds, subspace_bounds
from .sylvester import (
    WeakSylvesterProblem,
    solve_weak_quadrature,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)


def _json_default(obj):
    """``json.dump`` hook for what the reports hold beyond plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """The report as JSON text.  NaN and infinity are not JSON, so a report
    holding one raises ValueError here, before anything reaches stdout."""
    return json.dumps(payload, indent=2, default=_json_default, allow_nan=False) + "\n"


def _cmd_sylvester_solve(args) -> int:
    # --d and --tol are absent from args unless given
    options = {key: vars(args)[key] for key in ("d", "tol") if key in vars(args)}
    if options and args.method != "quadrature":
        args.usage_error("--d/--tol set the quadrature, which needs --method quadrature")
    prob = WeakSylvesterProblem(
        a=HermitianMatrix(load_matrix(args.a)),
        m=HermitianMatrix(load_matrix(args.m)),
        f=load_matrix(args.f),
    )
    if args.method == "spectral":
        t = solve_weak_spectral(prob)
    else:
        t = solve_weak_quadrature(prob, **options)
    report = {
        "method": args.method,
        "residual": weak_residual(prob, t),
        "bounds": sylvester_bounds(prob),
        "norm_t_op": op_norm(t),
        "norm_t_hs": hs_norm(t),
    }
    text = _json_text(report)
    save_matrix(args.out or sys.stdout, t)
    sys.stdout.write(text)
    return 0


def _cmd_subspace_bound(args) -> int:
    if args.d2 is None and not args.hs:
        args.usage_error("--d2 is required unless --hs is given")
    if args.hs and (args.l1 is not None or args.l2 is not None):
        args.usage_error("--l1/--l2 name band projections, which --hs does not bound")
    h = HermitianMatrix(load_matrix(args.h))
    m = HermitianMatrix(load_matrix(args.m))
    report = (hs_subspace_bounds(h, m, args.d1) if args.hs
              else subspace_bounds(h, m, args.d1, args.d2, l1=args.l1, l2=args.l2))
    sys.stdout.write(_json_text(report))
    return 0


def _cmd_ritz_estimate(args) -> int:
    h = HermitianMatrix(load_matrix(args.h))
    basis = load_matrix(args.basis)
    p = Projection.from_span(basis)
    norm = "hs" if args.hs else "op"
    est = ritz_bounds(h, p, args.next_ev, norm=norm)
    dk = dk_residual_bound(h, p.basis, args.next_ev, norm=norm)
    sys.stdout.write(_json_text({**dataclasses.asdict(est), "dk_bound": dk}))
    return 0


def _cmd_sqroot_check(args) -> int:
    h = HermitianMatrix(load_matrix(args.h))
    m = HermitianMatrix(load_matrix(args.m))
    pair = sqrt_pair(h, m)
    integral = sqrt_integral_solution(pair)
    sys.stdout.write(_json_text({
        "norm_t": pair.norm_t,
        "norm_x": pair.norm_x,
        "half_rule_margin": pair.margin,
        "integral_vs_spectral": op_norm(integral.x - pair.x),
        "exp_identity_defect": integral.identity_defect,
    }))
    return 0


def _cmd_bench_mathieu(args) -> int:
    model = mathieu_model(args.theta, args.alpha, args.K)
    ns = [int(tok) for tok in args.ns.split(",") if tok]
    rows = run_benchmark(model, ns, interp=args.interp, norm=args.norm, with_dk=args.dk)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(rows_to_markdown(rows))
    if args.strict and any(not r.hypothesis_ok for r in rows):
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; every parse starts from
    fresh defaults, so no option carries over between calls of :func:`main`."""
    parser = argparse.ArgumentParser(prog="relgap",
                                     description="relative spectral perturbation toolkit")
    parser.add_argument("--version", action="version", version=f"relgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    syl = sub.add_parser("sylvester", help="weak Sylvester equation").add_subparsers(
        dest="action", required=True)
    solve = syl.add_parser("solve", help="solve A^1/2 T M^-1/2 - A^-1/2 T M^1/2 = F")
    solve.add_argument("--a", required=True)
    solve.add_argument("--m", required=True)
    solve.add_argument("--f", required=True)
    solve.add_argument("--method", choices=("spectral", "quadrature"), default="spectral")
    solve.add_argument("--d", type=float, default=argparse.SUPPRESS, help="quadrature only")
    solve.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="quadrature only")
    solve.add_argument("--out", default=None, help="write T here instead of stdout")
    solve.set_defaults(func=_cmd_sylvester_solve, usage_error=solve.error)

    ssp = sub.add_parser("subspace", help="spectral projection bounds").add_subparsers(
        dest="action", required=True)
    bound = ssp.add_parser("bound")
    bound.add_argument("--h", required=True)
    bound.add_argument("--m", required=True)
    bound.add_argument("--d1", type=float, required=True)
    bound.add_argument("--d2", type=float, default=None, help="not read with --hs")
    bound.add_argument("--l1", type=float, default=None, help="not allowed with --hs")
    bound.add_argument("--l2", type=float, default=None, help="not allowed with --hs")
    bound.add_argument("--hs", action="store_true",
                       help="Hilbert-Schmidt bounds for the projections below d1")
    bound.set_defaults(func=_cmd_subspace_bound, usage_error=bound.error)

    rz = sub.add_parser("ritz", help="a-posteriori subspace error estimate").add_subparsers(
        dest="action", required=True)
    est = rz.add_parser("estimate")
    est.add_argument("--h", required=True)
    est.add_argument("--basis", required=True)
    est.add_argument("--next-ev", type=float, required=True, dest="next_ev")
    est.add_argument("--hs", action="store_true")
    est.set_defaults(func=_cmd_ritz_estimate)

    sq = sub.add_parser("sqroot", help="square-root perturbation check").add_subparsers(
        dest="action", required=True)
    chk = sq.add_parser("check")
    chk.add_argument("--h", required=True)
    chk.add_argument("--m", required=True)
    chk.set_defaults(func=_cmd_sqroot_check)

    bench = sub.add_parser("bench", help="model problem benchmarks").add_subparsers(
        dest="action", required=True)
    mat = bench.add_parser("mathieu")
    mat.add_argument("--theta", type=float, required=True)
    mat.add_argument("--alpha", type=float, required=True)
    mat.add_argument("--K", type=int, required=True)
    mat.add_argument("--ns", required=True, help="comma separated interpolation point counts")
    mat.add_argument("--interp", choices=("cubic", "clamped", "linear"), default="cubic")
    mat.add_argument("--norm", choices=("op", "hs"), default="hs")
    mat.add_argument("--dk", action="store_true", help="include the residual competitor bound")
    mat.add_argument("--out", default=None)
    mat.add_argument("--markdown", default=None)
    mat.add_argument("--strict", action="store_true",
                     help="exit 2 if any row fails its bound hypothesis")
    mat.set_defaults(func=_cmd_bench_mathieu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"relgap: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # ConvergenceError, or a failed internal cross-check
        print(f"relgap: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
