"""Piecewise-polynomial interpolation and exact oscillatory modal integrals.

Not-a-knot and clamped cubic splines and continuous piecewise-linear
interpolants over a knot grid.  The Fourier-type coefficients
``int p(t) exp(i f t) dt`` that expand an interpolant in a truncated
exponential eigenbasis are evaluated in closed form, piece by piece, from the
moments ``mu_r(z) = int_0^1 u^r exp(z u) du``.  L2 inner products use one
Gauss-Legendre rule per piece, which is exact for the degrees involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GL_ORDER = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
# for |z| <= 1 the Taylor terms z^n / (n! (n + r + 1)) of mu_r drop below 1e-19 by n = 20
_TAYLOR_N = np.arange(20.0)[:, None]
_INV_FACTORIALS = 1.0 / np.cumprod(np.maximum(_TAYLOR_N, 1.0))[:, None]


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial pieces ``sum_r coeffs[r, j] * (t - knots[j])**r`` on
    ``[knots[j], knots[j+1]]``."""

    knots: np.ndarray           # ascending, len m+1
    coeffs: np.ndarray          # shape (degree+1, m)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1,
                      0, self.coeffs.shape[1] - 1)
        tau = t - self.knots[idx]
        out = np.zeros(t.shape, dtype=self.coeffs.dtype)
        for r in range(self.coeffs.shape[0] - 1, -1, -1):
            out = out * tau + self.coeffs[r, idx]
        return out


def _check_grid(x, y, min_points=2, kind="", ends=()) -> tuple[np.ndarray, np.ndarray]:
    """Knots and values (plus any end derivatives) of an interpolant, checked."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not all(np.all(np.isfinite(v)) for v in (x, y, *ends)):
        raise ValueError("knots, values and end derivatives must be finite")
    if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("knots must be a strictly increasing 1-d grid")
    if y.shape != x.shape:
        raise ValueError("x and y must have equal length")
    if x.size < min_points:
        raise ValueError(f"{kind} cubic interpolation needs at least {min_points} points")
    return x, y


def piecewise_linear(x, y) -> PiecewisePoly:
    x, y = _check_grid(x, y)
    h = np.diff(x)
    coeffs = np.vstack([y[:-1], np.diff(y) / h])
    return PiecewisePoly(knots=x, coeffs=coeffs)


def _cubic_spline(x, y, first_row, last_row, rhs_first, rhs_last) -> PiecewisePoly:
    """Cubic spline from the linear system for its knot second derivatives
    ``sigma``: interior rows impose first-derivative continuity, ``first_row``
    and ``last_row`` are the leading and trailing entries of the end rows."""
    npts = x.size
    h = np.diff(x)
    slope = np.diff(y) / h
    i = np.arange(1, npts - 1)
    a = np.zeros((npts, npts), dtype=np.float64)
    a[i, i - 1] = h[:-1] / 6.0
    a[i, i] = (h[:-1] + h[1:]) / 3.0
    a[i, i + 1] = h[1:] / 6.0
    a[0, : len(first_row)] = first_row
    a[-1, npts - len(last_row):] = last_row
    sigma = np.linalg.solve(a, np.concatenate([[rhs_first], np.diff(slope), [rhs_last]]))

    c1 = slope - h * (2.0 * sigma[:-1] + sigma[1:]) / 6.0
    c3 = np.diff(sigma) / (6.0 * h)
    return PiecewisePoly(knots=x, coeffs=np.vstack([y[:-1], c1, sigma[:-1] / 2.0, c3]))


def cubic_spline_not_a_knot(x, y) -> PiecewisePoly:
    """Interpolatory cubic spline with not-a-knot end conditions.

    Real and complex data are handled alike; needs at least 4 points.
    """
    x, y = _check_grid(x, y, 4, "not-a-knot")
    h = np.diff(x)
    # third-derivative continuity across the first and last interior knots
    return _cubic_spline(x, y, (h[1], -(h[0] + h[1]), h[0]),
                         (h[-1], -(h[-2] + h[-1]), h[-2]), 0.0, 0.0)


def cubic_spline_clamped(x, y, d_first, d_last) -> PiecewisePoly:
    """Interpolatory cubic spline with prescribed endpoint derivatives."""
    x, y = _check_grid(x, y, 3, "clamped", ends=(d_first, d_last))
    h = np.diff(x)
    return _cubic_spline(x, y, (h[0] / 3.0, h[0] / 6.0), (h[-1] / 6.0, h[-1] / 3.0),
                         (y[1] - y[0]) / h[0] - d_first, d_last - (y[-1] - y[-2]) / h[-1])


def _moments(z: np.ndarray, degree: int) -> np.ndarray:
    """``mu_r(z) = int_0^1 u^r exp(z u) du`` for r = 0..degree, stacked along a
    new leading axis: the upward recurrence ``mu_r = (e^z - r mu_{r-1}) / z``
    where ``|z| > 1`` (it amplifies rounding by at most ``degree!`` there),
    the Taylor series ``sum_n z^n / (n! (n + r + 1))`` where ``|z| <= 1``."""
    small = np.abs(z) <= 1.0
    zl = np.where(small, 1.0, z)
    ez = np.exp(zl)
    mu = [(ez - 1.0) / zl]
    for r in range(1, degree + 1):
        mu.append((ez - r * mu[-1]) / zl)
    mu = np.array(mu)
    taylor = _INV_FACTORIALS / (_TAYLOR_N + np.arange(1.0, degree + 2))
    mu[:, small] = np.polynomial.polynomial.polyval(z[small], taylor)
    return mu


def modal_coefficients(pp: PiecewisePoly, freqs) -> np.ndarray:
    """``int pp(t) exp(i f t) dt`` over the full knot span, one value per
    frequency, in closed form: the piece ``[a_j, a_j + h_j]`` contributes
    ``exp(i f a_j) sum_r coeffs[r, j] h_j^(r+1) mu_r(i f h_j)``."""
    freqs = np.asarray(freqs, dtype=np.float64)
    h = np.diff(pp.knots)
    mu = _moments(1j * np.outer(freqs, h), pp.degree)
    scaled = pp.coeffs * h ** np.arange(1, pp.degree + 2)[:, None]
    phase = np.exp(1j * np.outer(freqs, pp.knots[:-1]))
    return np.einsum("fj,rfj,rj->f", phase, mu, scaled)


def l2_mass(pp: PiecewisePoly) -> float:
    """``int |pp(t)|^2 dt`` over the full knot span (exact for degree <= 3)."""
    return float(l2_inner(pp, pp).real)


def derivative(pp: PiecewisePoly) -> PiecewisePoly:
    rows = [r * pp.coeffs[r] for r in range(1, pp.coeffs.shape[0])]
    if not rows:
        rows = [np.zeros_like(pp.coeffs[0])]
    return PiecewisePoly(knots=pp.knots, coeffs=np.vstack(rows))


def h1_mass(pp: PiecewisePoly) -> float:
    """``int |pp'(t)|^2 dt`` over the full knot span."""
    return l2_mass(derivative(pp))


def l2_inner(pa: PiecewisePoly, pb: PiecewisePoly) -> complex:
    """``int conj(pa(t)) pb(t) dt`` for pieces over the same knot grid
    (exact for combined degree <= 15)."""
    if pa.knots.shape != pb.knots.shape or not np.allclose(pa.knots, pb.knots):
        raise ValueError("both piecewise polynomials must share one knot grid")
    # GL_ORDER-point Gauss-Legendre on every piece
    half = 0.5 * np.diff(pa.knots)
    t = (0.5 * (pa.knots[:-1] + pa.knots[1:]))[:, None] + half[:, None] * _GL_X
    w = half[:, None] * _GL_W
    return complex(np.sum(w * np.conj(pa(t)) * pb(t)))


def combine(pa: PiecewisePoly, ca, pb: PiecewisePoly, cb) -> PiecewisePoly:
    """The piecewise polynomial ``ca * pa + cb * pb`` on a shared knot grid."""
    if pa.knots.shape != pb.knots.shape or not np.allclose(pa.knots, pb.knots):
        raise ValueError("both piecewise polynomials must share one knot grid")
    deg = max(pa.coeffs.shape[0], pb.coeffs.shape[0])
    out = np.zeros((deg, pa.coeffs.shape[1]), dtype=np.result_type(
        pa.coeffs.dtype, pb.coeffs.dtype, type(ca), type(cb)))
    out[: pa.coeffs.shape[0]] += ca * pa.coeffs
    out[: pb.coeffs.shape[0]] += cb * pb.coeffs
    return PiecewisePoly(knots=pa.knots, coeffs=out)
