"""Piecewise-polynomial interpolation and exact oscillatory modal integrals.

Not-a-knot and clamped cubic splines and continuous piecewise-linear
interpolants over a knot grid, of one function or of a stack of functions
sampled on one grid, whose cubic system is solved once for the whole stack.
The Fourier-type coefficients ``int p(t) exp(i (k + shift) t) dt`` that expand
a stack on the grid ``linspace(0, 2 pi, J + 1)`` in a truncated exponential
eigenbasis are evaluated in closed form from the moments ``mu_r(z) = int_0^1
u^r exp(z u) du``: the sum over pieces is a length-J DFT read at ``k mod J``,
one FFT per stack.  Exact L2 Gram matrices from one Horner pass over a stack at
one Gauss-Legendre rule per piece, exact for the degrees involved, at offsets
from each piece's left knot.  A sequence of functions is stacked on entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GL_ORDER = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
# for |z| <= 1 the Taylor terms z^n / (n! (n + r + 1)) of mu_r drop below 1e-19 by n = 20
_TAYLOR_N = np.arange(20.0)[:, None]
_INV_FACTORIALS = 1.0 / np.cumprod(np.maximum(_TAYLOR_N, 1.0))[:, None]


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Polynomial pieces ``sum_r coeffs[r, ..., j] * (t - knots[j])**r`` on
    ``[knots[j], knots[j+1]]``: one function, or a stack of functions on one grid."""

    knots: np.ndarray           # ascending, len m+1
    coeffs: np.ndarray          # shape (degree+1, m) or (degree+1, count, m)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1,
                      0, self.coeffs.shape[-1] - 1)
        tau = t - self.knots[idx]
        out = np.zeros(self.coeffs.shape[1:-1] + t.shape, dtype=self.coeffs.dtype)
        for c in self.coeffs[::-1]:
            out = out * tau + c[..., idx]
        return out


def _check_grid(x, y, min_points=2, kind="linear", ends=()) -> tuple[np.ndarray, np.ndarray]:
    """Knots and values (plus any end derivatives) of an interpolant, checked;
    the builder names its ``kind`` and the fewest points it takes.  Values of
    shape ``(count, N)`` sample a stack of ``count`` functions."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not all(np.all(np.isfinite(v)) for v in (x, y, *ends)):
        raise ValueError("knots, values and end derivatives must be finite")
    if x.ndim != 1 or np.any(np.diff(x) <= 0):
        raise ValueError("knots must be a strictly increasing 1-d grid")
    if y.ndim not in (1, 2) or y.shape[-1:] != x.shape:
        raise ValueError("x and y must have equal length")
    if x.size < min_points:
        raise ValueError(f"{kind} interpolation needs at least {min_points} points")
    return x, y


def piecewise_linear(x, y) -> PiecewisePoly:
    x, y = _check_grid(x, y)
    return PiecewisePoly(knots=x, coeffs=np.stack([y[..., :-1], np.diff(y) / np.diff(x)]))


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
    rhs = np.zeros(y.shape, dtype=np.result_type(slope, rhs_first, rhs_last))
    rhs[..., 0], rhs[..., 1:-1], rhs[..., -1] = rhs_first, np.diff(slope), rhs_last
    sigma = np.linalg.solve(a, rhs.T).T

    c1 = slope - h * (2.0 * sigma[..., :-1] + sigma[..., 1:]) / 6.0
    c3 = np.diff(sigma) / (6.0 * h)
    return PiecewisePoly(knots=x, coeffs=np.stack([y[..., :-1], c1, sigma[..., :-1] / 2.0, c3]))


def cubic_spline_not_a_knot(x, y) -> PiecewisePoly:
    """Interpolatory cubic spline with not-a-knot end conditions.

    Real and complex data are handled alike; needs at least 4 points.
    """
    x, y = _check_grid(x, y, 4, "not-a-knot cubic")
    h = np.diff(x)
    # third-derivative continuity across the first and last interior knots
    return _cubic_spline(x, y, (h[1], -(h[0] + h[1]), h[0]),
                         (h[-1], -(h[-2] + h[-1]), h[-2]), 0.0, 0.0)


def cubic_spline_clamped(x, y, d_first, d_last) -> PiecewisePoly:
    """Interpolatory cubic spline with prescribed endpoint derivatives, one
    per function of the stack."""
    x, y = _check_grid(x, y, 3, "clamped cubic", ends=(d_first, d_last))
    h = np.diff(x)
    return _cubic_spline(x, y, (h[0] / 3.0, h[0] / 6.0), (h[-1] / 6.0, h[-1] / 3.0),
                         (y[..., 1] - y[..., 0]) / h[0] - d_first,
                         d_last - (y[..., -1] - y[..., -2]) / h[-1])


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
    mu[:, small] = taylor.T @ (z[small][None, :] ** _TAYLOR_N)
    return mu


def modal_coefficients(pps, ks, shift) -> np.ndarray:
    """``int_0^{2 pi} p(t) exp(i (k + shift) t) dt`` for each function ``p`` of
    the stack ``pps`` (see :func:`_stacked`) and each integer ``k`` of ``ks``,
    one row per function and one column per ``k``, in closed form.

    The shared knots must be exactly ``linspace(0, 2 pi, J + 1)``.  With
    ``h = 2 pi / J``, piece ``j`` contributes ``exp(2 pi i k j / J) exp(i shift j h)
    sum_r coeffs[r, j] h^(r+1) mu_r(i (k + shift) h)``, so the sum over pieces is a
    length-J inverse DFT of the rows ``coeffs[r] h^(r+1) exp(i shift j h)``, read
    at ``k mod J``: one FFT for the stack, and the moments evaluated once.
    """
    knots, coeffs = _stacked(pps)
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.dtype.kind not in "iu":
        raise ValueError(f"ks must be a 1-d array of integers, got {ks.dtype} {ks.shape}")
    shift = float(shift)
    if not np.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    pieces = knots.size - 1
    if not np.array_equal(knots, np.linspace(0.0, 2.0 * np.pi, pieces + 1)):
        raise ValueError("modal coefficients need the knots linspace(0, 2 pi, J + 1)")
    h = 2.0 * np.pi / pieces
    mu = _moments(1j * h * (ks + shift), coeffs.shape[0] - 1)
    factor = np.exp(1j * shift * knots[:-1]) * h ** np.arange(1, mu.shape[0] + 1)[:, None]
    # norm="forward" leaves the inverse transform unscaled: the plain sum over j
    spectra = np.fft.ifft(coeffs * factor[:, None], norm="forward")[..., ks % pieces]
    return np.einsum("rf,rcf->cf", mu, spectra)


def derivative(pp: PiecewisePoly) -> PiecewisePoly:
    r = np.arange(1, pp.degree + 1).reshape((-1,) + (1,) * (pp.coeffs.ndim - 1))
    return PiecewisePoly(knots=pp.knots, coeffs=r * pp.coeffs[1:] if r.size else 0 * pp.coeffs)


def _stacked(pps) -> tuple[np.ndarray, np.ndarray]:
    """Knots and coefficients ``(degree + 1, count, pieces)`` of one stack, or of
    a sequence of functions and stacks on one knot grid taken in order and
    zero-padded to the highest degree."""
    pps = [pps] if isinstance(pps, PiecewisePoly) else list(pps)
    if not pps:
        raise ValueError("empty batch: need at least one piecewise polynomial")
    knots = pps[0].knots
    if not all(np.array_equal(pp.knots, knots) for pp in pps[1:]):
        raise ValueError("the piecewise polynomials must share one knot grid")
    blocks = [pp.coeffs.reshape(pp.coeffs.shape[0], -1, knots.size - 1) for pp in pps]
    if len(blocks) == 1:
        return knots, blocks[0]
    out = np.zeros((max(map(len, blocks)), sum(b.shape[1] for b in blocks), knots.size - 1),
                   dtype=np.result_type(*blocks))
    start = 0
    for b in blocks:
        out[: len(b), start: start + b.shape[1]] = b
        start += b.shape[1]
    return knots, out


def l2_gram(pps) -> np.ndarray:
    """Gram matrix ``G[i, j] = int conj(p_i(t)) p_j(t) dt`` of the functions of
    the stack ``pps`` (see :func:`_stacked`), exact for combined degree <= 15.

    One Horner pass over the stacked coefficients evaluates every function at
    the ``GL_ORDER`` Gauss-Legendre nodes of each piece, taken as offsets
    ``half_j (1 + x_q)`` from its left knot, so no knot search is made.
    """
    knots, coeffs = _stacked(pps)
    half = 0.5 * np.diff(knots)
    tau = half[:, None] * (1.0 + _GL_X)
    vals = np.zeros(coeffs.shape[1:] + _GL_X.shape, dtype=coeffs.dtype)
    for c in coeffs[::-1]:
        vals = vals * tau + c[..., None]
    vals = vals.reshape(coeffs.shape[1], -1)
    w = (half[:, None] * _GL_W).ravel()
    return (vals.conj() * w) @ vals.T
