"""End-to-end benchmark on a quasi-periodic Sturm-Liouville model.

The model operator has known eigenpairs ``omega_k = (k + theta/2pi)^2 - alpha``
with exponential eigenfunctions; truncating to modes -K..K makes it an exactly
diagonal matrix, so the model's H costs no LAPACK: it decomposes by sorting
its diagonal and the Ritz LU route solves by row scaling.  Each model builds
H and that decomposition once, and every later run shares them.  Every other
product with H or its permutation eigenbasis is a row scaling, gather or
scatter, so a table row costs O(nk) in the dimension n.  The trial space is
built by equidistant interpolation of the eigenfunctions of modes 0 and -1,
the two lowest for every theta, on ``linspace(0, 2 pi, N)`` (cubic or
linear), expanded in the eigenbasis at one FFT per interpolant.  Each run
compares the true subspace error against the relative a-posteriori bound and
the residual competitor bound, row by row.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import HermitianMatrix, Projection, eig_herm, fractional_power
from .ritz import RitzEstimate, dk_bound_from_gram, ritz_bounds
from .splines import (
    PiecewisePoly,
    combine,
    cubic_spline_clamped,
    cubic_spline_not_a_knot,
    derivative,
    l2_gram,
    modal_coefficients,
    piecewise_linear,
)

TWO_PI = 2.0 * np.pi
TARGETS = (0, -1)  # the two lowest modes, so next_ev is the third eigenvalue
TRUNCATION_LOSS_TOL = 1e-6
ENERGY_LOSS_TOL = 1e-3


class TruncationWarning(UserWarning):
    """The truncated eigenbasis misses a non-negligible part of an interpolant."""


@dataclass(frozen=True)
class MathieuModel:
    """Truncated quasi-periodic model operator, diagonal in its own eigenbasis.

    Coordinates are indexed by the mode number k = -K..K (array index k + K);
    the L2 inner product is the Euclidean one on coordinates.
    """

    theta: float
    alpha: float
    trunc: int                 # K, modes -K..K
    ks: np.ndarray
    omegas: np.ndarray         # omega_k in mode order

    @cached_property
    def h(self) -> HermitianMatrix:
        """The operator ``diag(omegas)``, built once and shared with its decomposition."""
        return HermitianMatrix(np.diag(self.omegas))

    def eigenfunction_samples(self, k: int, t: np.ndarray) -> np.ndarray:
        """Normalized eigenfunction ``exp(-i (k + theta/2pi) t) / sqrt(2 pi)``."""
        nu = k + self.theta / TWO_PI
        return np.exp(-1j * nu * np.asarray(t)) / np.sqrt(TWO_PI)


def mathieu_model(theta: float, alpha: float, trunc: int) -> MathieuModel:
    """Build the truncated model; fails unless the operator is positive
    definite, i.e. ``alpha < min_k (k + theta/2pi)^2``."""
    if not 0.0 < theta < TWO_PI:
        raise ValueError(f"theta must lie in (0, 2 pi), got {theta}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not isinstance(trunc, (int, np.integer)):
        raise ValueError(f"truncation order must be an integer, got {trunc!r}")
    if trunc < 2:
        raise ValueError(f"truncation order must be >= 2, got {trunc}")
    ks = np.arange(-trunc, trunc + 1, dtype=np.int64)
    omegas = (ks + theta / TWO_PI) ** 2 - alpha
    if omegas.min() <= 0.0:
        raise ValueError(
            f"configuration is not positive definite: min omega = {omegas.min():.6e} "
            f"(alpha must be below min_k (k + theta/2pi)^2)"
        )
    omegas.setflags(write=False)  # model.h caches diag(omegas)
    return MathieuModel(theta=theta, alpha=alpha, trunc=trunc, ks=ks, omegas=omegas)


def _interpolant(model: MathieuModel, n_points: int, interp: str, k: int) -> PiecewisePoly:
    t = np.linspace(0.0, TWO_PI, n_points)
    samples = model.eigenfunction_samples(k, t)
    if interp == "cubic":
        return cubic_spline_not_a_knot(t, samples)
    if interp == "clamped":
        # exact end derivatives keep the interpolant inside the operator
        # domain; its eigenbasis coefficients then decay spectrally
        nu = k + model.theta / TWO_PI
        return cubic_spline_clamped(t, samples,
                                    -1j * nu * samples[0], -1j * nu * samples[-1])
    return piecewise_linear(t, samples)


def build_test_space(model: MathieuModel, n_points: int, interp: str) -> Projection:
    """Trial space spanned by equidistant interpolants of the eigenfunctions of
    the modes in TARGETS, expanded in the truncated eigenbasis.

    Samples sit at ``t_j = 2 pi j / (N - 1)`` including both endpoints, so the
    sampled data inherit the quasi-periodic boundary condition of the
    eigenfunctions exactly.  Emits a :class:`TruncationWarning` when the
    eigenbasis expansion drops more than 1e-6 of an interpolant's L2 mass.
    """
    if interp not in ("cubic", "clamped", "linear"):
        raise ValueError(f"interp must be 'cubic', 'clamped' or 'linear', got {interp!r}")
    if interp in ("cubic", "clamped") and n_points < 4:
        raise ValueError("cubic interpolation needs at least 4 sample points")
    if interp == "linear" and n_points < 2:
        raise ValueError("linear interpolation needs at least 2 sample points")
    pps = [_interpolant(model, n_points, interp, k) for k in TARGETS]
    masses = np.diag(l2_gram(pps)).real
    h1_masses = np.diag(l2_gram([derivative(pp) for pp in pps])).real
    coeffs = modal_coefficients(pps, model.ks, model.theta / TWO_PI) / np.sqrt(TWO_PI)
    cols = []
    for k, coeff, mass, h1_mass in zip(TARGETS, coeffs, masses, h1_masses):
        loss = (mass - float(np.sum(np.abs(coeff) ** 2))) / mass
        if loss > TRUNCATION_LOSS_TOL:
            warnings.warn(
                f"mode {k}, N={n_points}: eigenbasis truncation drops {loss:.3e} "
                f"of the interpolant's L2 mass; increase the truncation order",
                TruncationWarning,
                stacklevel=2,
            )
        energy = h1_mass - model.alpha * mass
        captured = float(np.sum(model.omegas * np.abs(coeff) ** 2))
        energy_loss = (energy - captured) / energy
        if energy_loss > ENERGY_LOSS_TOL:
            warnings.warn(
                f"mode {k}, N={n_points}: eigenbasis truncation drops {energy_loss:.3e} "
                "of the interpolant's form energy; the estimator needs a larger "
                "truncation order to be meaningful",
                TruncationWarning,
                stacklevel=2,
            )
        cols.append(coeff)
    return Projection.from_span(np.column_stack(cols))


def residual_competitor(model: MathieuModel, n_points: int, next_ev: float,
                        norm: str = "hs", interp: str = "cubic") -> float | None:
    """Residual competitor bound for a cubic trial space.

    The Rayleigh residuals ``r = -w'' - alpha w - rho w`` of the normalized
    interpolants and their Gram matrix are evaluated as exact
    piecewise-polynomial integrals in function space, so the competitor is
    free of eigenbasis-truncation effects.
    """
    if interp == "linear":
        raise ValueError("linear interpolants are outside the operator domain; "
                         "the residual competitor does not apply")
    pps = [_interpolant(model, n_points, interp, k) for k in TARGETS]
    derivs = [derivative(pp) for pp in pps]
    g = l2_gram(pps)
    scales = 1.0 / np.sqrt(np.diag(g).real)
    # Gram matrices of the normalized interpolants phi_i = s_i pp_i
    b_gram = scales[:, None] * g * scales
    a_form = scales[:, None] * l2_gram(derivs) * scales - model.alpha * b_gram
    b_ihalf = fractional_power(eig_herm(b_gram), -0.5).mat
    ritz_vals = np.linalg.eigvalsh(b_ihalf @ a_form @ b_ihalf)
    # each residual is formed as a function before its Gram is taken: it is
    # small, and expanding <r_i, r_j> through the forms would cancel
    residuals = [combine(derivative(dp), -s, pp, -s * (model.alpha + rho))
                 for pp, dp, s, rho in zip(pps, derivs, scales, np.diag(a_form).real)]
    gram = l2_gram(residuals)
    return dk_bound_from_gram(gram, float(ritz_vals[0]), float(ritz_vals[-1]),
                              next_ev, norm=norm)


@dataclass(frozen=True)
class BenchmarkRow:
    """One line of an estimator-vs-truth-vs-competitor comparison."""

    n_points: int
    interp: str
    norm: str
    true_err: float
    ritz_bound: float | None
    dk_bound: float | None
    hypothesis_ok: bool
    note: str = ""


def run_benchmark(model: MathieuModel, ns, interp: str, norm: str = "hs",
                  with_dk: bool = True) -> list[BenchmarkRow]:
    """Benchmark rows for each N: true subspace error from exact spectral
    data, the relative a-posteriori bound with ``next_ev`` set to the exact
    next eigenvalue, and (cubic trial spaces only) the residual competitor."""
    ns = list(ns)
    if not ns:
        raise ValueError("need at least one N")
    next_ev = float(eig_herm(model.h).eigenvalues[len(TARGETS)])
    rows = []
    for n_points in ns:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            p = build_test_space(model, n_points, interp)
        note = "; ".join(str(w.message) for w in caught
                         if issubclass(w.category, TruncationWarning))
        est: RitzEstimate = ritz_bounds(model.h, p, next_ev, norm=norm)
        dk = None
        if with_dk and interp != "linear":
            dk = residual_competitor(model, n_points, next_ev, norm=norm, interp=interp)
        rows.append(BenchmarkRow(
            n_points=n_points,
            interp=interp,
            norm=norm,
            true_err=est.true_value,
            ritz_bound=est.bound,
            dk_bound=dk,
            hypothesis_ok=est.hypothesis_ok,
            note=note,
        ))
    return rows


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6e}"


def rows_to_csv(rows) -> str:
    """One line per row; the note column is quoted when it holds commas."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "interp", "norm", "true_err", "ritz_bound", "dk_bound",
                     "hypothesis_ok", "note"])
    for r in rows:
        writer.writerow([r.n_points, r.interp, r.norm, f"{r.true_err:.6e}", _fmt(r.ritz_bound),
                         _fmt(r.dk_bound), str(r.hypothesis_ok).lower(), r.note])
    return buf.getvalue()


def rows_to_markdown(rows) -> str:
    """One column per N, quantities as rows, mirroring the usual table layout."""
    header = "| quantity | " + " | ".join(f"N={r.n_points}" for r in rows) + " |"
    sep = "|---" * (len(rows) + 1) + "|"
    line_true = "| true error | " + " | ".join(f"{r.true_err:.4e}" for r in rows) + " |"
    line_bound = "| relative bound | " + " | ".join(_fmt(r.ritz_bound) for r in rows) + " |"
    line_dk = "| residual bound | " + " | ".join(_fmt(r.dk_bound) for r in rows) + " |"
    line_ok = "| hypothesis ok | " + " | ".join(str(r.hypothesis_ok).lower() for r in rows) + " |"
    line_note = "| note | " + " | ".join(r.note for r in rows) + " |"
    return "\n".join([header, sep, line_true, line_bound, line_dk, line_ok, line_note]) + "\n"
