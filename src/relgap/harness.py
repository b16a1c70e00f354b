"""End-to-end benchmark on a quasi-periodic Sturm-Liouville model.

The model operator has known eigenpairs ``omega_k = (k + theta/2pi)^2 - alpha``
with exponential eigenfunctions; truncating to modes -K..K makes it a diagonal
matrix.  Each model builds H by ``HermitianMatrix.from_diagonal``, so H costs no
LAPACK: it decomposes by sorting its diagonal, once, in O(n) memory, and the
Ritz LU route solves by row scaling.  Every later run shares H and its
decomposition; no n x n array is formed unless a caller reads H's
dense matrix or eigenbasis.  Every product with H or its permutation
eigenbasis is a row scaling, gather or scatter, so a table row costs O(nk)
in the dimension n.  The trial space is
built by equidistant interpolation of the eigenfunctions of modes 0 and -1,
the two lowest for every theta, on ``linspace(0, 2 pi, N)`` (cubic or
linear), as one stack of both interpolants, expanded in the eigenbasis at one
FFT.  Each run compares the true subspace error against the relative
a-posteriori bound and the residual competitor bound, row by row.  A row
builds its stack, its derivative and their Gram matrix once and hands them to
both the trial space and the competitor.  Truncation losses come back as the row's
note, not as warnings, so threads may run tables on one shared model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .matcore import HermitianMatrix, Projection, _hermitian_part, fractional_power
from .ritz import RitzEstimate, dk_bound_from_gram, ritz_bounds
from .splines import (
    PiecewisePoly,
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


@dataclass(frozen=True, eq=False)
class MathieuModel:
    """Truncated quasi-periodic model operator, diagonal in its own eigenbasis;
    compared and hashed by identity.

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
        """The operator ``diag(omegas)``, built once from its diagonal and shared
        with its decomposition."""
        return HermitianMatrix.from_diagonal(self.omegas)

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
    omegas.setflags(write=False)
    return MathieuModel(theta=theta, alpha=alpha, trunc=trunc, ks=ks, omegas=omegas)


def _interpolants(model: MathieuModel, n_points: int, interp: str) -> PiecewisePoly:
    t = np.linspace(0.0, TWO_PI, n_points)
    modes = np.array(TARGETS)[:, None]
    samples = model.eigenfunction_samples(modes, t)
    if interp == "cubic":
        return cubic_spline_not_a_knot(t, samples)
    if interp == "clamped":
        # exact end derivatives keep the interpolants inside the operator
        # domain; their eigenbasis coefficients then decay spectrally
        nu = modes + model.theta / TWO_PI
        ends = -1j * nu * model.eigenfunction_samples(modes, np.array([0.0, TWO_PI]))
        return cubic_spline_clamped(t, samples, ends[:, 0], ends[:, 1])
    return piecewise_linear(t, samples)


@dataclass(frozen=True, eq=False)
class TrialFunctions:
    """One table row's interpolants as one stack, one function per mode of TARGETS,
    its derivative, and the L2 Gram matrix of the interpolants followed by the derivatives."""

    stack: PiecewisePoly
    derivs: PiecewisePoly
    gram: np.ndarray


def trial_functions(model: MathieuModel, n_points: int, interp: str) -> TrialFunctions:
    """Equidistant interpolants of the eigenfunctions of the modes in TARGETS,
    built as one stack, with their derivatives and one Gram matrix of both.

    Samples sit at ``t_j = 2 pi j / (N - 1)`` including both endpoints, so the
    sampled data inherit the quasi-periodic boundary condition of the
    eigenfunctions exactly.
    """
    if interp not in ("cubic", "clamped", "linear"):
        raise ValueError(f"interp must be 'cubic', 'clamped' or 'linear', got {interp!r}")
    stack = _interpolants(model, n_points, interp)
    derivs = derivative(stack)
    return TrialFunctions(stack, derivs, l2_gram([stack, derivs]))


def build_test_space(model: MathieuModel,
                     trial: TrialFunctions) -> tuple[Projection, tuple[str, ...]]:
    """Trial space spanned by a row's interpolants (see :func:`trial_functions`),
    expanded in the truncated eigenbasis, with its truncation notes as data: one
    for each interpolant whose expansion drops more than 1e-6 of its L2 mass, one for
    each that drops more than 1e-3 of its form energy, both read from the row's Gram matrix.
    """
    n_points = trial.stack.knots.size
    masses, h1_masses = np.split(np.diag(trial.gram).real, 2)
    energies = h1_masses - model.alpha * masses
    coeffs = modal_coefficients(trial.stack, model.ks, model.theta / TWO_PI) / np.sqrt(TWO_PI)
    power = np.abs(coeffs) ** 2
    losses = np.stack([(masses - power.sum(axis=1)) / masses,
                       (energies - (model.omegas * power).sum(axis=1)) / energies], axis=1)
    whats = ("L2 mass; increase the truncation order",
             "form energy; the estimator needs a larger truncation order to be meaningful")
    notes = tuple(f"mode {k}, N={n_points}: eigenbasis truncation drops "
                  f"{loss:.3e} of the interpolant's {what}"
                  for k, row in zip(TARGETS, losses)
                  for loss, tol, what in zip(row, (TRUNCATION_LOSS_TOL, ENERGY_LOSS_TOL), whats)
                  if loss > tol)
    return Projection.from_span(coeffs.T), notes


def residual_competitor(model: MathieuModel, trial: TrialFunctions, next_ev: float,
                        norm: str = "hs") -> float | None:
    """Residual competitor bound for a row's cubic trial functions, the same
    interpolants and Gram matrix that :func:`build_test_space` reads.

    The Rayleigh residuals ``r = -w'' - alpha w - rho w`` of the normalized
    interpolants and their Gram matrix are evaluated as exact
    piecewise-polynomial integrals in function space, so the competitor is
    free of eigenbasis-truncation effects.
    """
    if trial.stack.degree < 3:
        raise ValueError("interpolants of degree < 3 are outside the operator domain; "
                         "the residual competitor does not apply")
    k = len(trial.gram) // 2
    g = trial.gram[:k, :k]
    scales = 1.0 / np.sqrt(np.diag(g).real)
    # Gram matrices of the normalized interpolants phi_i = s_i pp_i
    b_gram = _hermitian_part(scales[:, None] * g * scales)  # exactly Hermitian: kept as is
    a_form = scales[:, None] * trial.gram[k:, k:] * scales - model.alpha * b_gram
    b_ihalf = fractional_power(HermitianMatrix(b_gram).decomposition, -0.5).mat
    ritz_vals = np.linalg.eigvalsh(b_ihalf @ a_form @ b_ihalf)
    # each residual is formed as a function before its Gram is taken: it is
    # small, and expanding <r_i, r_j> through the forms would cancel
    neg = -scales[:, None]
    residuals = neg * (model.alpha + np.diag(a_form).real)[:, None] * trial.stack.coeffs
    residuals[: trial.stack.degree - 1] += neg * derivative(trial.derivs).coeffs
    gram = l2_gram(PiecewisePoly(knots=trial.stack.knots, coeffs=residuals))
    return dk_bound_from_gram(gram, float(ritz_vals[0]), float(ritz_vals[-1]),
                              next_ev, norm=norm)


@dataclass(frozen=True)
class BenchmarkRow:
    """One line of an estimator-vs-truth-vs-competitor table; its fields are the columns."""

    n_points: int = field(metadata={"header": "N"})
    interp: str
    norm: str
    true_err: float = field(metadata={"label": "true error", "markdown": ".4e"})
    ritz_bound: float | None = field(metadata={"label": "relative bound"})
    dk_bound: float | None = field(metadata={"label": "residual bound"})
    hypothesis_ok: bool = field(metadata={"label": "hypothesis ok"})
    note: str = field(default="", metadata={"label": "note"})


def run_benchmark(model: MathieuModel, ns, interp: str, norm: str = "hs",
                  with_dk: bool = True) -> list[BenchmarkRow]:
    """Benchmark rows for each N: true subspace error from exact spectral
    data, the relative a-posteriori bound with ``next_ev`` set to the exact
    next eigenvalue, and (cubic trial spaces only) the residual competitor."""
    ns = list(ns)
    if not ns:
        raise ValueError("need at least one N")
    next_ev = float(model.h.decomposition.eigenvalues[len(TARGETS)])
    rows = []
    for n_points in ns:
        trial = trial_functions(model, n_points, interp)
        p, notes = build_test_space(model, trial)
        est: RitzEstimate = ritz_bounds(model.h, p, next_ev, norm=norm)
        dk = (residual_competitor(model, trial, next_ev, norm=norm)
              if with_dk and interp != "linear" else None)
        rows.append(BenchmarkRow(n_points, interp, norm, est.true_value, est.bound, dk,
                                 est.hypothesis_ok, "; ".join(notes)))
    return rows


def _cell(value, fmt: str = ".6e") -> str:
    """The one cell rule: None is n/a, a bool true/false, a float ``fmt``, the rest str."""
    if value is None or isinstance(value, bool):
        return "n/a" if value is None else str(value).lower()
    return format(value, fmt) if isinstance(value, float) else str(value)


def _columns(rows) -> tuple:
    if not rows:
        raise ValueError("empty table: a table needs at least one row")
    return fields(rows[0])


def rows_to_csv(rows) -> str:
    """One column per field of the dataclass rows, headed by its ``header`` or name."""
    columns, buf = _columns(rows), io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [[c.metadata.get("header", c.name) for c in columns],
         *([_cell(getattr(r, c.name)) for c in columns] for r in rows)])
    return buf.getvalue()


def rows_to_markdown(rows) -> str:
    """The transposed table: one column per row, keyed by its first field, and one
    line per field with a ``label``, in its ``markdown`` format if it has one.
    A cell escapes ``|`` as ``\\|`` and a newline as ``<br>``, which would split it
    or end its line; CSV quotes both instead."""
    key, *_ = columns = _columns(rows)
    head = key.metadata.get("header", key.name)
    lines = [["quantity", *(f"{head}={_cell(getattr(r, key.name))}" for r in rows)]]
    lines += [[c.metadata["label"],
               *(_cell(getattr(r, c.name), c.metadata.get("markdown", ".6e")) for r in rows)]
              for c in columns if "label" in c.metadata]
    text = ["| " + " | ".join(c.replace("|", r"\|").replace("\n", "<br>") for c in cells) + " |"
            for cells in lines]
    text.insert(1, "|---" * (len(rows) + 1) + "|")
    return "\n".join(text) + "\n"
