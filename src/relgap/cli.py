"""Command line interface.

Subcommands mirror the library surface: `sylvester solve`, `subspace bound`,
`ritz estimate`, `sqroot check`, and the `bench mathieu` experiment runner.
Matrices travel in the shared text format; reports are emitted as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .harness import mathieu_model, rows_to_csv, rows_to_markdown, run_benchmark
from .matcore import HermitianMatrix, Projection, load_matrix, save_matrix
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
from .matcore import eig_herm, spectral_projector_below


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _emit(payload) -> None:
    json.dump(_jsonable(payload), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_sylvester_solve(args) -> int:
    prob = WeakSylvesterProblem(
        a=HermitianMatrix(load_matrix(args.a)),
        m=HermitianMatrix(load_matrix(args.m)),
        f=load_matrix(args.f),
    )
    if args.method == "spectral":
        t = solve_weak_spectral(prob)
    else:
        t = solve_weak_quadrature(prob, d=args.d, tol=args.tol)
    save_matrix(args.out or sys.stdout, t)
    report = {
        "method": args.method,
        "residual": weak_residual(prob, t),
        "dichotomy": dataclasses.asdict(sylvester_bounds(prob, "dichotomy")),
        "hs": dataclasses.asdict(sylvester_bounds(prob, "hs")),
        "norm_t_op": float(np.linalg.norm(t, 2)),
        "norm_t_hs": float(np.linalg.norm(t, "fro")),
    }
    _emit(report)
    return 0


def _cmd_subspace_bound(args) -> int:
    h = HermitianMatrix(load_matrix(args.h))
    m = HermitianMatrix(load_matrix(args.m))
    if args.hs:
        q = spectral_projector_below(eig_herm(h), args.d1)
        p = spectral_projector_below(eig_herm(m), args.d1)
        _emit(hs_subspace_bounds(h, m, q, p))
        return 0
    report = subspace_bounds(h, m, args.d1, args.d2, l1=args.l1, l2=args.l2)
    _emit(report)
    return 0


def _cmd_ritz_estimate(args) -> int:
    h = HermitianMatrix(load_matrix(args.h))
    basis = load_matrix(args.basis)
    p = Projection.from_span(basis)
    norm = "hs" if args.hs else "op"
    est = ritz_bounds(h, p, args.next_ev, norm=norm)
    est = est.with_dk(dk_residual_bound(h, p.basis, args.next_ev, norm=norm))
    _emit(est)
    return 0


def _cmd_sqroot_check(args) -> int:
    h = HermitianMatrix(load_matrix(args.h))
    m = HermitianMatrix(load_matrix(args.m))
    pair = sqrt_pair(h, m)
    integral = sqrt_integral_solution(h, m)
    _emit({
        "norm_t": pair.norm_t,
        "norm_x": pair.norm_x,
        "half_rule_margin": pair.margin,
        "sylvester_defect": pair.sylvester_defect,
        "integral_vs_spectral": float(np.linalg.norm(integral.x - pair.x, 2)),
        "exp_identity_defect": integral.identity_defect,
    })
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


def build_parser() -> argparse.ArgumentParser:
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
    solve.add_argument("--d", type=float, default=None)
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--out", default=None, help="write T here instead of stdout")
    solve.set_defaults(func=_cmd_sylvester_solve)

    ssp = sub.add_parser("subspace", help="spectral projection bounds").add_subparsers(
        dest="action", required=True)
    bound = ssp.add_parser("bound")
    bound.add_argument("--h", required=True)
    bound.add_argument("--m", required=True)
    bound.add_argument("--d1", type=float, required=True)
    bound.add_argument("--d2", type=float, required=True)
    bound.add_argument("--l1", type=float, default=None)
    bound.add_argument("--l2", type=float, default=None)
    bound.add_argument("--hs", action="store_true",
                       help="Hilbert-Schmidt bounds for the projections below d1")
    bound.set_defaults(func=_cmd_subspace_bound)

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
