"""The weakly formulated Sylvester equation in finite dimensions.

Solves ``A^{1/2} T M^{-1/2} - A^{-1/2} T M^{1/2} = F`` for positive definite
A and M by two independent routes (division in the eigenbases of A and M, and
a contour integral evaluated by adaptive quadrature) and evaluates a-priori
norm bounds for the solution: the spectral-dichotomy bound, its two-interval
variant and the Hilbert-Schmidt relative-gap bound.  On the eigenvector pair
of ``lam`` (A) and ``mu`` (M) the operator multiplies by the relative
difference ``r = (lam - mu) / sqrt(lam mu)`` (:func:`_relative_difference`):
the gap is ``min |r|``, the solve divides by r and every gap coefficient here
and in the subspace and Ritz bounds is ``1 / r``, so none changes when both
operators are scaled by one c > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    ConvergenceError,
    HermitianMatrix,
    SpectralDecomposition,
    _matrix,
    _pow2_scale,
    fractional_power,
    hs_norm,
    op_norm,
    require_positive,
)
from .quadrature import integrate_adaptive

RESONANCE_TOL = 1e-10  # relative gap below this counts as a singular problem


def relative_gap(spectrum_a, spectrum_m) -> float:
    """min over pairs of ``|mu - lambda| / sqrt(mu lambda)`` for two positive
    spectra; zero iff the spectra intersect."""
    sa = np.asarray(spectrum_a, dtype=np.float64).ravel()
    sm = np.asarray(spectrum_m, dtype=np.float64).ravel()
    if sa.size == 0 or sm.size == 0:
        raise ValueError("relative_gap needs two nonempty spectra")
    both = np.concatenate([sa, sm])
    if not np.all(np.isfinite(both)):
        raise ValueError(f"relative_gap needs finite spectra, got {both[~np.isfinite(both)]}")
    if np.any(sa <= 0) or np.any(sm <= 0):
        raise ValueError("relative_gap is defined for positive spectra only")
    return float(np.abs(_relative_difference(sa[:, None], sm[None, :])).min())


def _relative_difference(a, b):
    """``(a - b) / sqrt(a b)`` for positive a and b, as a product of square
    roots: ``sqrt(a b)`` would overflow past 1.3e154 and underflow below 1.5e-154."""
    return (a - b) / (np.sqrt(a) * np.sqrt(b))


@dataclass(frozen=True, eq=False)
class WeakSylvesterProblem:
    """Coefficients of one weak Sylvester instance: A, M positive definite,
    F of shape (dim A, dim M), with spectra separated in the relative metric."""

    a: HermitianMatrix
    m: HermitianMatrix
    f: np.ndarray
    dec_a: SpectralDecomposition = field(init=False, repr=False)
    dec_m: SpectralDecomposition = field(init=False, repr=False)
    gap: float = field(init=False)  # relative gap between the spectra of A and M

    def __post_init__(self):
        object.__setattr__(self, "f", _matrix(self.f, copy=True))
        if self.f.shape != (self.a.n, self.m.n):
            raise ValueError(
                f"F must have shape ({self.a.n}, {self.m.n}), got {self.f.shape}"
            )
        object.__setattr__(self, "dec_a", self.a.decomposition)
        object.__setattr__(self, "dec_m", self.m.decomposition)
        require_positive(self.dec_a, "A", definite=True)
        require_positive(self.dec_m, "M", definite=True)
        la, lm = self.dec_a.eigenvalues, self.dec_m.eigenvalues
        dist = np.abs(_relative_difference(la[:, None], lm[None, :]))
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        object.__setattr__(self, "gap", float(dist[i, j]))
        if self.gap < RESONANCE_TOL:
            raise ValueError(
                f"near-singular problem: eigenvalue {la[i]:.12e} of A and "
                f"{lm[j]:.12e} of M have relative gap {self.gap:.3e} < {RESONANCE_TOL:.0e}"
            )

    @property
    def dichotomy_interval(self) -> tuple[float, float]:
        """(||M||, 1/||A^{-1}||); nonempty iff the dichotomy condition holds."""
        return float(self.dec_m.eigenvalues.max()), float(self.dec_a.eigenvalues.min())


def _two_sided(p: WeakSylvesterProblem, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``V_A (weights o (V_A* X V_M)) V_M*``; the real weights scale the core in place."""
    va, vm = p.dec_a.vectors, p.dec_m.vectors
    core = va.conj().T @ (x @ vm)
    core *= weights
    left = va @ core
    del core  # one n x n array fewer at the second product
    return left @ vm.conj().T


def solve_weak_spectral(p: WeakSylvesterProblem) -> np.ndarray:
    """Unique solution by division in the eigenbases of A and M:
    ``t_ij = f_ij / r(lam_i, mu_j)`` with r the :func:`_relative_difference`."""
    lam, mu = p.dec_a.eigenvalues[:, None], p.dec_m.eigenvalues[None, :]
    return _two_sided(p, 1.0 / _relative_difference(lam, mu), p.f)


def solve_weak_quadrature(p: WeakSylvesterProblem, d: float | None = None,
                          tol: float = 1e-10) -> np.ndarray:
    """Verification backend: evaluate the contour-integral representation

        T = -(1/2 pi) * int (A - i z - d)^{-1} G (M - i z - d)^{-1} dz,  G = A^{1/2} F M^{1/2}

    (each square root commutes with its resolvent, so G is formed once) by
    adaptive Gauss-Kronrod quadrature after the substitution z = d tan(s).
    Requires the dichotomy ``||M|| < d < 1/||A^{-1}||``.  When A, M and F are
    all real the integrand satisfies ``g(-s) = conj(g(s))``, so only
    ``[0, pi/2]`` is integrated and T is ``-Re(.)/pi`` of that half.  ``tol``
    bounds the entrywise error estimate of T: the integral, which is T times
    pi (2 pi over the full contour), gets that multiple of it, capped at the
    largest float.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    m_norm, big_d = p.dichotomy_interval
    if d is None:
        d = 0.5 * (m_norm + big_d)
    if not (m_norm < d < big_d):
        raise ValueError(
            f"shift d={d} violates the dichotomy interval ({m_norm:.6e}, {big_d:.6e})"
        )
    # T is unchanged when A and M are scaled by one c > 0: solved at c = root^2, which
    # brings min sigma(A) into [1/4, 1) (sqrt rounds correctly), the resolvents neither
    # over- nor underflow, and every scaling is exact
    root = 1.0 / _pow2_scale(np.sqrt(big_d))
    d = d * root * root
    a_half = fractional_power(p.dec_a, 0.5).mat * root
    m_half = fractional_power(p.dec_m, 0.5).mat * root
    g = (a_half @ p.f @ m_half).astype(np.complex128)  # cast once, not per (15, n, n) stack
    amat, mmat = p.a.mat * root * root, p.m.mat * root * root
    eye_a = np.eye(p.a.n)
    eye_m = np.eye(p.m.n)

    def integrand(s: np.ndarray) -> np.ndarray:
        w = (d + 1j * d * np.tan(s))[:, None, None]
        left = np.linalg.solve(amat - w * eye_a, np.broadcast_to(g, s.shape + g.shape))
        # left (M - w)^{-1}, solved as the transpose system
        full = np.linalg.solve(np.swapaxes(mmat - w * eye_m, 1, 2),
                               np.swapaxes(left, 1, 2))
        del left  # at most three (15, n, n) stacks are live at once
        return np.swapaxes(full, 1, 2) * (d / np.cos(s) ** 2)[:, None, None]

    real = not (np.iscomplexobj(p.f) or np.iscomplexobj(amat) or np.iscomplexobj(mmat))
    lo, scale = (0.0, np.pi) if real else (-np.pi / 2, 2.0 * np.pi)
    try:
        total, _err = integrate_adaptive(integrand, lo, np.pi / 2,
                                         tol=min(tol * scale, np.finfo(float).max))
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"quadrature Sylvester solve did not reach tol={tol!r} on T "
            f"(the integral's tol is {scale:.6g} times it): {exc}") from exc
    return -(total.real if real else total) / scale


def weak_residual(p: WeakSylvesterProblem, t: np.ndarray) -> float:
    """Operator-norm defect of a candidate solution in the weak equation."""
    t = _matrix(t)
    if t.shape != p.f.shape:
        raise ValueError(f"T must have shape {p.f.shape}, got {t.shape}")
    root_a, root_m = np.sqrt(p.dec_a.eigenvalues)[:, None], np.sqrt(p.dec_m.eigenvalues)
    r = _two_sided(p, root_a / root_m - root_m / root_a, t)  # the defining spelling
    # in place unless a real r meets a complex F
    return op_norm(np.subtract(r, p.f, out=r if r.dtype == np.result_type(r, p.f) else None))


def _dichotomy_coefficient(a: float, b: float) -> float:
    """The gap coefficient ``sqrt(a b) / (b - a) = 1 / r(b, a)``, positive for ``0 < a < b``."""
    return 1.0 / _relative_difference(b, a)


@dataclass(frozen=True)
class SylvesterBounds:
    """A-priori bounds for the weak Sylvester solution.  A ``None`` bound
    means its spectral-arrangement hypothesis failed (see notes); bounds are
    never fabricated from inapplicable formulas."""

    gap: float
    dichotomy_bound: float | None = None
    two_interval_bound: float | None = None
    hs_bound: float | None = None
    notes: tuple[str, ...] = ()


def sylvester_bounds(p: WeakSylvesterProblem, d_minus: float | None = None,
                     d_plus: float | None = None) -> SylvesterBounds:
    """Every a-priori bound whose hypothesis can be checked, each verified
    from the actual spectra:

    dichotomy:     ||T||    <= sqrt(D ||M||)/(D - ||M||) * ||F||,  D = 1/||A^{-1}||
    two-interval:  ||T||    <= (low-gap + high-gap coefficient) * ||F||
                   for sigma(A) split around sigma(M) at (d_minus, d_plus),
                   evaluated only when both are given
    HS:            |||T|||_HS <= |||F|||_HS / gap(sigma(A), sigma(M))
    """
    if (d_minus is None) != (d_plus is None):
        raise ValueError("the two-interval bound needs both d_minus and d_plus")
    lam = p.dec_a.eigenvalues
    m_norm, big_d = p.dichotomy_interval
    notes: list[str] = []
    coefs: dict[str, float] = {}

    if m_norm < big_d:
        coefs["dichotomy_bound"] = _dichotomy_coefficient(m_norm, big_d)
    else:
        notes.append(f"dichotomy fails: ||M||={m_norm:.6e} >= 1/||A^-1||={big_d:.6e}")

    if d_minus is not None:
        failed: list[str] = []
        m_min = float(p.dec_m.eigenvalues.min())
        if not (0.0 < d_minus < d_plus):
            failed.append("need 0 < d_minus < d_plus")
        if np.any((lam > d_minus) & (lam < d_plus)):
            failed.append("sigma(A) intersects (d_minus, d_plus)")
        if not d_minus < m_min:
            failed.append(f"d_minus={d_minus} not below min sigma(M)={m_min:.6e}")
        if not m_norm < d_plus:
            failed.append(f"||M||={m_norm:.6e} not below d_plus={d_plus}")
        notes += failed
        if np.all(lam >= d_plus) or np.all(lam <= d_minus):
            # degenerates to one-sided dichotomy; the formula still applies
            notes.append("sigma(A) lies on one side only")
        if not failed:
            coefs["two_interval_bound"] = (_dichotomy_coefficient(d_minus, m_min)
                                           + _dichotomy_coefficient(m_norm, d_plus))

    f_op = op_norm(p.f) if coefs else 0.0
    return SylvesterBounds(gap=p.gap, hs_bound=hs_norm(p.f) / p.gap, notes=tuple(notes),
                           **{name: coef * f_op for name, coef in coefs.items()})
