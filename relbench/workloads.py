"""The two workloads: what each sets up, the calls of one session, and the
check each call's output must pass.

A session is one fixed round of calls at one input size; every workload has
a small and a large session.  A call is timed by the client alone; its check
runs afterwards, outside the timer.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from typing import Callable, NamedTuple

import numpy as np

import inputs

# scripts/run_tables.py
THETA = np.pi - 1e-4
ALPHA = 0.2499
CUBIC = {"K": 64, "ns": list(range(5, 11))}
LINEAR = {"K": 320, "ns": [100, 120, 140]}

# reference rows of acceptance criteria 6 and 7 (tests/test_acceptance.py)
CUBIC_REF_TRUE = [4.4e-3, 2.0e-3, 1.1e-3, 6.0e-4, 3.7e-4, 2.4e-4]
CUBIC_REF_BOUND = [2.2e-2, 1.0e-2, 5.3e-3, 3.3e-3, 2.2e-3, 1.5e-3]
CUBIC_REF_DK = [2.0e-2, 1.4e-2, 9.6e-3, 7.2e-3, 5.5e-3, 4.4e-3]
LINEAR_REF_TRUE = [5.2024e-5, 3.6126e-5, 2.6541e-5]
LINEAR_REF_BOUND = [8.7374e-3, 6.9293e-3, 5.7302e-3]
REF_FACTOR = 3.0

QUERY_SIZES = {"small": 100, "large": 300}
ORACLE_SIZES = {"small": 6, "large": 48}
SYLVESTER_RESIDUAL_RTOL = 1e-10
REFERENCE_RTOL = 1e-8     # eta, Ritz etas and T against the plain-numpy references
ORACLE_TOL = 1e-8         # quadrature X against the spectral X


class Call(NamedTuple):
    """One public call on matrices of dimension `n`, and the check of its
    output, which returns None when the output is correct and a reason
    otherwise."""

    label: str
    n: int
    run: Callable
    check: Callable


def _within(value, reference: float) -> bool:
    return value is not None and reference / REF_FACTOR <= value <= reference * REF_FACTOR


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(1.0, float(np.max(np.abs(b))))


def _sylvester_refs(mats: dict) -> dict:
    return {"t": inputs.sylvester_reference(mats["a"], mats["ms"], mats["f"]),
            "f_norm": float(np.linalg.norm(mats["f"], 2))}


def _check_sylvester(rep: dict, out_path: str, ref: dict) -> str | None:
    """The solve's residual, and the T it wrote against the reference T."""
    if not rep["residual"] <= SYLVESTER_RESIDUAL_RTOL * ref["f_norm"]:
        return f"Sylvester residual {rep['residual']}"
    if _rel(inputs.read_matrix(pathlib.Path(out_path)), ref["t"]) > REFERENCE_RTOL:
        return "T differs from the reference T"
    return None


def run_cli(argv: list[str]) -> dict:
    """`relgap.cli.main` in process; the JSON report it prints, parsed."""
    from relgap.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"relgap {' '.join(argv[:2])} exited with {code}")
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# tables: the two model-problem tables of the paper
# ---------------------------------------------------------------------------

class Tables:
    """Deterministic: the tables have fixed model parameters, so the seed
    selects nothing."""

    name = "tables"
    sizes = {"small": 2 * CUBIC["K"] + 1, "large": 2 * LINEAR["K"] + 1}  # matrix dimensions

    def setup(self, seed: int, workdir: pathlib.Path) -> None:
        from relgap.harness import mathieu_model
        self.models = {"small": mathieu_model(THETA, ALPHA, CUBIC["K"]),
                       "large": mathieu_model(THETA, ALPHA, LINEAR["K"])}

    def references(self) -> None:
        pass

    def session(self, size: str) -> list[Call]:
        # names are looked up at call time, so a tracer's rebinding is seen
        from relgap import harness
        model = self.models[size]
        if size == "small":
            def run():
                rows = harness.run_benchmark(model, CUBIC["ns"], "cubic", norm="hs", with_dk=True)
                return rows, harness.rows_to_csv(rows), harness.rows_to_markdown(rows)
            return [Call("table cubic", self.sizes[size], run, _check_cubic)]

        def run():
            rows = harness.run_benchmark(model, LINEAR["ns"], "linear", norm="hs")
            return rows, harness.rows_to_csv(rows), harness.rows_to_markdown(rows)
        return [Call("table linear", self.sizes[size], run, _check_linear)]


def _check_rows(rows, refs_true, refs_bound) -> str | None:
    if len(rows) != len(refs_true):
        return f"{len(rows)} rows, expected {len(refs_true)}"
    for row, ref_t, ref_b in zip(rows, refs_true, refs_bound):
        if not (_within(row.true_err, ref_t) and _within(row.ritz_bound, ref_b)):
            return f"N={row.n_points}: row not within a factor 3 of the reference"
        if row.hypothesis_ok and not row.ritz_bound >= row.true_err:
            return f"N={row.n_points}: bound {row.ritz_bound} below true error {row.true_err}"
    return None


def _check_cubic(out) -> str | None:
    rows, _csv, _md = out
    bad = _check_rows(rows, CUBIC_REF_TRUE, CUBIC_REF_BOUND)
    if bad is None and not all(_within(r.dk_bound, ref) for r, ref in zip(rows, CUBIC_REF_DK)):
        bad = "DK competitor not within a factor 3 of the reference"
    return bad


def _check_linear(out) -> str | None:
    rows, csv, md = out
    bad = _check_rows(rows, LINEAR_REF_TRUE, LINEAR_REF_BOUND)
    if bad is None and any(r.dk_bound is not None for r in rows):
        bad = "linear rows carry a DK competitor"
    if bad is None and not all(line.split(",")[5] == "n/a" for line in csv.splitlines()[1:]):
        bad = "CSV does not show the DK competitor as n/a"
    if bad is None and "| residual bound | n/a | n/a | n/a |" not in md:
        bad = "Markdown does not show the DK competitor as n/a"
    return bad


# ---------------------------------------------------------------------------
# queries: dense CLI reports, then the quadrature oracles
# ---------------------------------------------------------------------------

class Queries:
    """A session runs the dense CLI reports on a seeded PSD pair of its size,
    then the quadrature oracles on a PD pair and Sylvester triple of its
    size.  The oracles ride in these sessions rather than in a workload of
    their own, so that each of the two workloads can run longer: alone, their
    short Python-bound sessions spread past the benchmark's bound from run to
    run on a shared 2-CPU host."""

    name = "queries"
    kinds = {"dense": (QUERY_SIZES, inputs.queries_inputs),
             "oracle": (ORACLE_SIZES, inputs.oracles_inputs)}

    def setup(self, seed: int, workdir: pathlib.Path) -> None:
        rng = np.random.default_rng(seed)
        self.mats, self.paths, self.out = {}, {}, {}
        for kind, (sizes, make_inputs) in self.kinds.items():
            for size, n in sizes.items():
                key = (kind, size)
                self.mats[key] = make_inputs(rng, n)
                self.paths[key] = inputs.write_inputs(workdir / f"{kind}_{size}", self.mats[key])
                self.out[key] = str(workdir / f"{kind}_{size}" / "t.mtx")

    def references(self) -> None:
        self.refs = {key: _sylvester_refs(m) for key, m in self.mats.items()}
        for size in QUERY_SIZES:
            m = self.mats[("dense", size)]
            self.refs[("dense", size)].update(eta=inputs.eta_reference(m["h"], m["m"]),
                                              etas=inputs.ritz_eta_reference(m["h"], m["basis"]))

    def session(self, size: str) -> list[Call]:
        return self._dense(size) + self._oracles(size)

    def _dense(self, size: str) -> list[Call]:
        key, n = ("dense", size), QUERY_SIZES[size]
        p = {k: str(v) for k, v in self.paths[key].items()}
        ref = self.refs[key]
        pair = ["--h", p["h"], "--m", p["m"], "--d1", str(inputs.D1), "--d2", str(inputs.D2)]
        ritz = ["ritz", "estimate", "--h", p["h"], "--basis", p["basis"],
                "--next-ev", str(inputs.NEXT_EV), "--hs"]
        solve = ["sylvester", "solve", "--a", p["a"], "--m", p["ms"], "--f", p["f"],
                 "--out", self.out[key]]

        def check_bound(rep):
            if not rep["hypothesis_ok"] or not rep["bound"] >= rep["true_value"]:
                return f"bound {rep['bound']} vs true {rep['true_value']}"
            if _rel(rep["eta"], ref["eta"]) > REFERENCE_RTOL:
                return f"eta {rep['eta']} vs reference {ref['eta']}"
            return None

        def check_hs(rep):
            if not rep["hypothesis_ok"] or not rep["bound_diff"] >= rep["true_diff"]:
                return f"HS bound {rep['bound_diff']} vs true {rep['true_diff']}"
            return None

        def check_ritz(rep):
            if not rep["hypothesis_ok"] or not rep["bound_hs"] >= rep["true_hs"]:
                return f"Ritz bound {rep['bound_hs']} vs true {rep['true_hs']}"
            if _rel(rep["etas"], ref["etas"]) > REFERENCE_RTOL:
                return "Ritz etas differ from the reference"
            return None

        return [
            Call("subspace bound", n, lambda: run_cli(["subspace", "bound"] + pair), check_bound),
            Call("subspace bound --hs", n, lambda: run_cli(["subspace", "bound"] + pair + ["--hs"]),
                 check_hs),
            Call("ritz estimate --hs", n, lambda: run_cli(ritz), check_ritz),
            Call("sylvester solve", n, lambda: run_cli(solve),
                 lambda rep: _check_sylvester(rep, self.out[key], ref)),
        ]

    def _oracles(self, size: str) -> list[Call]:
        key, n = ("oracle", size), ORACLE_SIZES[size]
        p = {k: str(v) for k, v in self.paths[key].items()}
        ref = self.refs[key]
        solve = ["sylvester", "solve", "--a", p["a"], "--m", p["ms"], "--f", p["f"],
                 "--method", "quadrature", "--out", self.out[key]]
        sqroot = ["sqroot", "check", "--h", p["h"], "--m", p["m"]]

        def check_sqroot(rep):
            if not rep["integral_vs_spectral"] <= ORACLE_TOL:
                return f"integral_vs_spectral {rep['integral_vs_spectral']}"
            if not rep["norm_x"] <= rep["norm_t"] / 2.0:
                return f"norm_x {rep['norm_x']} above norm_t/2 {rep['norm_t'] / 2.0}"
            return None

        return [Call("sylvester solve --method quadrature", n, lambda: run_cli(solve),
                     lambda rep: _check_sylvester(rep, self.out[key], ref)),
                Call("sqroot check", n, lambda: run_cli(sqroot), check_sqroot)]


WORKLOADS = {w.name: w for w in (Tables, Queries)}
