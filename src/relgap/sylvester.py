"""The weakly formulated Sylvester equation in finite dimensions.

Solves ``A^{1/2} T M^{-1/2} - A^{-1/2} T M^{1/2} = F`` for positive definite
A and M by two independent routes (eigenbasis kernel division and a contour
integral evaluated by adaptive quadrature) and evaluates a-priori norm bounds
for the solution: the spectral-dichotomy bound, its two-interval variant, the
Hilbert-Schmidt relative-gap bound and the symmetric-norm bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpectralDecomposition,
    _tidy_field,
    coupling_kernel,
    eig_herm,
    fractional_power,
    hs_norm,
    op_norm,
    require_positive,
    two_sided_fn,
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
    if np.any(sa <= 0) or np.any(sm <= 0):
        raise ValueError("relative_gap is defined for positive spectra only")
    return float(_relative_distances(sa, sm).min())


def _relative_distances(sa: np.ndarray, sm: np.ndarray) -> np.ndarray:
    return np.abs(sa[:, None] - sm[None, :]) / np.sqrt(sa[:, None] * sm[None, :])


@dataclass(frozen=True)
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
        object.__setattr__(self, "f", _tidy_field(np.atleast_2d(self.f)))
        if self.f.shape != (self.a.n, self.m.n):
            raise ValueError(
                f"F must have shape ({self.a.n}, {self.m.n}), got {self.f.shape}"
            )
        object.__setattr__(self, "dec_a", eig_herm(self.a))
        object.__setattr__(self, "dec_m", eig_herm(self.m))
        require_positive(self.dec_a, "A", definite=True)
        require_positive(self.dec_m, "M", definite=True)
        la, lm = self.dec_a.eigenvalues, self.dec_m.eigenvalues
        dist = _relative_distances(la, lm)
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


def solve_weak_spectral(p: WeakSylvesterProblem) -> np.ndarray:
    """Unique solution via kernel division in the eigenbases of A and M:
    ``t_ij = f_ij * sqrt(lam_i mu_j) / (lam_i - mu_j)``."""
    return two_sided_fn(p.dec_a, p.dec_m, lambda lam, mu: np.sqrt(lam * mu) / (lam - mu), p.f)


def solve_weak_quadrature(p: WeakSylvesterProblem, d: float | None = None,
                          tol: float = 1e-10, max_panels: int = 4096) -> np.ndarray:
    """Verification backend: evaluate the contour-integral representation

        T = -(1/2 pi) * int A^{1/2} (A - i z - d)^{-1} F (M - i z - d)^{-1} M^{1/2} dz

    by adaptive Gauss-Kronrod quadrature after the substitution z = d tan(s).
    Requires the dichotomy ``||M|| < d < 1/||A^{-1}||``.
    """
    m_norm, big_d = p.dichotomy_interval
    if d is None:
        d = 0.5 * (m_norm + big_d)
    if not (m_norm < d < big_d):
        raise ValueError(
            f"shift d={d} violates the dichotomy interval ({m_norm:.6e}, {big_d:.6e})"
        )
    a_half = fractional_power(p.dec_a, 0.5).mat
    m_half = fractional_power(p.dec_m, 0.5).mat
    amat, mmat, f = p.a.mat, p.m.mat, p.f
    eye_a = np.eye(p.a.n)
    eye_m = np.eye(p.m.n)

    def integrand(s: float) -> np.ndarray:
        w = d + 1j * d * np.tan(s)
        left = np.linalg.solve(amat - w * eye_a, f)
        full = np.linalg.solve((mmat - w * eye_m).T, left.T).T
        return (a_half @ full @ m_half) * (d / np.cos(s) ** 2)

    total, _err = integrate_adaptive(integrand, -np.pi / 2, np.pi / 2,
                                     tol=tol * 2.0 * np.pi, max_panels=max_panels)
    t = -total / (2.0 * np.pi)
    if not (np.iscomplexobj(f) or np.iscomplexobj(amat) or np.iscomplexobj(mmat)):
        t = t.real
    return t


def weak_residual(p: WeakSylvesterProblem, t: np.ndarray) -> float:
    """Operator-norm defect of a candidate solution in the weak equation."""
    t = np.atleast_2d(np.asarray(t))
    if t.shape != p.f.shape:
        raise ValueError(f"T must have shape {p.f.shape}, got {t.shape}")
    return op_norm(two_sided_fn(p.dec_a, p.dec_m, coupling_kernel, t) - p.f)


def _dichotomy_coefficient(m_norm: float, big_d: float) -> float:
    return np.sqrt(big_d * m_norm) / (big_d - m_norm)


@dataclass(frozen=True)
class SylvesterBounds:
    """A-priori bounds for the weak Sylvester solution.  A ``None`` bound
    means its spectral-arrangement hypothesis failed (see notes); bounds are
    never fabricated from inapplicable formulas."""

    gap: float
    dichotomy_bound: float | None = None
    two_interval_bound: float | None = None
    hs_bound: float | None = None
    symmetric_bound: float | None = None
    notes: tuple[str, ...] = ()


def sylvester_bounds(p: WeakSylvesterProblem, mode: str,
                     d_minus: float | None = None, d_plus: float | None = None,
                     f_norm: float | None = None) -> SylvesterBounds:
    """Evaluate one of the a-priori bounds, verifying its hypothesis from the
    actual spectra.

    mode 'dichotomy':     ||T||    <= sqrt(D ||M||)/(D - ||M||) * ||F||,  D = 1/||A^{-1}||
    mode 'two_interval':  ||T||    <= (low-gap + high-gap coefficient) * ||F||
                          for sigma(A) split around sigma(M) at (d_minus, d_plus)
    mode 'hs':            |||T|||_HS <= |||F|||_HS / gap(sigma(A), sigma(M))
    mode 'symmetric':     |||T|||   <= sqrt(D ||M||)/(D - ||M||) * f_norm
                          for any caller-supplied symmetric norm value of F
    """
    lam = p.dec_a.eigenvalues
    mu = p.dec_m.eigenvalues
    m_norm, big_d = p.dichotomy_interval
    gap = p.gap
    notes: list[str] = []

    if mode == "dichotomy":
        if m_norm < big_d:
            bound = _dichotomy_coefficient(m_norm, big_d) * op_norm(p.f)
            return SylvesterBounds(gap=gap, dichotomy_bound=bound)
        notes.append(f"dichotomy fails: ||M||={m_norm:.6e} >= 1/||A^-1||={big_d:.6e}")
        return SylvesterBounds(gap=gap, notes=tuple(notes))

    if mode == "two_interval":
        if d_minus is None or d_plus is None:
            raise ValueError("two_interval mode needs d_minus and d_plus")
        m_min = float(mu.min())
        ok = True
        if not (0.0 < d_minus < d_plus):
            ok = False
            notes.append("need 0 < d_minus < d_plus")
        if np.any((lam > d_minus) & (lam < d_plus)):
            ok = False
            notes.append("sigma(A) intersects (d_minus, d_plus)")
        if not d_minus < m_min:
            ok = False
            notes.append(f"d_minus={d_minus} not below min sigma(M)={m_min:.6e}")
        if not m_norm < d_plus:
            ok = False
            notes.append(f"||M||={m_norm:.6e} not below d_plus={d_plus}")
        if np.all(lam >= d_plus) or np.all(lam <= d_minus):
            # degenerates to one-sided dichotomy; the formula still applies
            notes.append("sigma(A) lies on one side only")
        if not ok:
            return SylvesterBounds(gap=gap, notes=tuple(notes))
        coef = (np.sqrt(m_min * d_minus) / (m_min - d_minus)
                + np.sqrt(d_plus * m_norm) / (d_plus - m_norm))
        return SylvesterBounds(gap=gap, two_interval_bound=coef * op_norm(p.f),
                               notes=tuple(notes))

    if mode == "hs":
        return SylvesterBounds(gap=gap, hs_bound=hs_norm(p.f) / gap)

    if mode == "symmetric":
        if f_norm is None:
            raise ValueError("symmetric mode needs the norm value of F")
        if m_norm < big_d:
            bound = _dichotomy_coefficient(m_norm, big_d) * f_norm
            return SylvesterBounds(gap=gap, symmetric_bound=bound)
        notes.append(f"dichotomy fails: ||M||={m_norm:.6e} >= 1/||A^-1||={big_d:.6e}")
        return SylvesterBounds(gap=gap, notes=tuple(notes))

    raise ValueError(f"unknown bound mode {mode!r}")
