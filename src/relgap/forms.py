"""Closeness of two nonnegative forms.

Quantifies how far two positive semidefinite operators H and M are from each
other in the form-relative sense: the smallest eta with
``|h(u,v) - m(u,v)| <= eta * sqrt(h[u] m[v])``, the two-sided constant eps
with ``(1-eps) m[u] <= h[u] <= (1+eps) m[u]``, and per-eigenvalue matching
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpectralDecomposition,
    ZERO_TOL,
    coupling_kernel,
    eig_herm,
    fractional_power,
    op_norm,
    require_positive,
    two_sided_fn,
)

KERNEL_ANGLE_TOL = 1e-8


def _range_mask(dec: SpectralDecomposition) -> np.ndarray:
    """Eigenvalues above the pseudo-inverse rank cutoff; the rest span the kernel."""
    lam = np.abs(dec.eigenvalues)
    return lam > ZERO_TOL * np.max(lam)


@dataclass(frozen=True)
class FormPair:
    """Two positive semidefinite matrices of the same dimension.

    ``dec_h`` and ``dec_m`` are the matrices' own cached eigendecompositions,
    shared with every other consumer of the same objects.
    """

    h: HermitianMatrix
    m: HermitianMatrix
    dec_h: SpectralDecomposition = field(init=False, repr=False)
    dec_m: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        if self.h.n != self.m.n:
            raise ValueError(f"dimension mismatch: {self.h.n} vs {self.m.n}")
        object.__setattr__(self, "dec_h", eig_herm(self.h))
        object.__setattr__(self, "dec_m", eig_herm(self.m))
        require_positive(self.dec_h, "H", definite=False)
        require_positive(self.dec_m, "M", definite=False)

    @property
    def n(self) -> int:
        return self.h.n

    def kernel_angle(self) -> float:
        """Sine of the largest principal angle between ker(H) and ker(M)."""
        kh = self.dec_h.vectors[:, ~_range_mask(self.dec_h)]
        km = self.dec_m.vectors[:, ~_range_mask(self.dec_m)]
        if kh.shape[1] != km.shape[1]:
            return 1.0
        if kh.shape[1] == 0:
            return 0.0
        resid = km - kh @ (kh.conj().T @ km)
        return min(1.0, op_norm(resid))

    def ensure_shared_kernel(self) -> None:
        angle = self.kernel_angle()
        if angle > KERNEL_ANGLE_TOL:
            raise ValueError(
                "H and M must share their kernel for the form-closeness operator "
                f"to exist; largest kernel principal angle {angle:.3e} exceeds "
                f"{KERNEL_ANGLE_TOL:.0e}"
            )


@dataclass(frozen=True)
class ClosenessReport:
    """Exact eta, the two-sided epsilon when available, and the S operator."""

    eta: float
    s_matrix: np.ndarray
    epsilon: float | None
    eta_from_eps: float | None

    @property
    def two_sided_comparable(self) -> bool:
        return self.epsilon is not None and self.epsilon < 1.0


def eta_from_epsilon(eps: float) -> float:
    """Map the two-sided constant to a form-closeness eta: eps / sqrt(1 - eps)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {eps}")
    return eps / np.sqrt(1.0 - eps)


def s_operator(fp: FormPair) -> np.ndarray:
    """The matrix ``H^{1/2} M^{+1/2} - H^{+1/2} M^{1/2}`` (pseudo powers)."""
    fp.ensure_shared_kernel()
    return two_sided_fn(fp.dec_h, fp.dec_m, coupling_kernel)


def epsilon_two_sided(fp: FormPair) -> float:
    """The smallest eps with ``(1-eps) m[u] <= h[u] <= (1+eps) m[u]`` on the
    common range: max over pencil eigenvalues nu of ``|nu - 1|``.

    A value >= 1 means the pair is not two-sided comparable.
    """
    fp.ensure_shared_kernel()
    r = fp.dec_m.vectors[:, _range_mask(fp.dec_m)]
    if r.shape[1] == 0:
        raise ValueError("M has numerical rank 0; the pencil (H, M) is empty")
    m_ihalf = fractional_power(fp.dec_m, -0.5).mat
    c = m_ihalf @ fp.h.mat @ m_ihalf
    nu = np.linalg.eigvalsh(r.conj().T @ c @ r)
    return float(np.max(np.abs(nu - 1.0)))


def eta_exact(fp: FormPair) -> ClosenessReport:
    """Exact smallest eta for the pair, together with the S operator and,
    when the pair is two-sided comparable, the epsilon route value."""
    s = s_operator(fp)
    eta = op_norm(s)
    try:
        eps = epsilon_two_sided(fp)
    except ValueError:
        eps = None
    eta_eps = eta_from_epsilon(eps) if eps is not None and eps < 1.0 else None
    return ClosenessReport(eta=eta, s_matrix=s, epsilon=eps, eta_from_eps=eta_eps)


@dataclass(frozen=True)
class SpectralComparison:
    """Per-index eigenvalue matching diagnostics for a two-sided comparable pair.

    ``gap_ok_max`` / ``gap_ok_min`` evaluate the cluster-gap condition with the
    tie-break constant 1 aggregated by max respectively min; neither reading is
    preferred, both are reported.
    """

    epsilon: float
    eta: float
    lam_h: np.ndarray
    lam_m: np.ndarray
    rel_err_vs_m: np.ndarray
    rel_err_vs_h: np.ndarray
    rel_vs_m_ok: bool
    rel_vs_h_ok: bool
    argmin_map: np.ndarray
    gap_ok_max: np.ndarray
    gap_ok_min: np.ndarray
    pairing_margins: np.ndarray  # eta/|<u,v>| - |lam-mu|/sqrt(lam mu); nan if <u,v> ~ 0


INNER_PRODUCT_FLOOR = 1e-8


def _cluster_gap_terms(lam: np.ndarray, i: int, rtol: float = 1e-12) -> list[float]:
    """Relative gaps from eigenvalue i's cluster to the nearest distinct
    neighbors above and below."""
    scale = lam[-1] if lam.size else 0.0
    same = np.abs(lam - lam[i]) <= rtol * max(scale, 1e-300)
    idx = np.nonzero(same)[0]
    lo, hi = idx[0], idx[-1]
    terms = []
    if hi + 1 < lam.size:
        up = lam[hi + 1]
        terms.append((up - lam[i]) / (up + lam[i]))
    if lo > 0:
        dn = lam[lo - 1]
        terms.append((lam[i] - dn) / (lam[i] + dn))
    return terms


def spectral_comparison(fp: FormPair) -> SpectralComparison:
    """Eigenvalue matching report: relative error bounds, the argmin index
    map, cluster-gap conditions, and per-eigenpair closeness margins."""
    eps = epsilon_two_sided(fp)
    if eps >= 1.0:
        raise ValueError(
            f"spectral comparison requires a two-sided comparable pair (eps={eps:.4f} >= 1)"
        )
    eta = op_norm(s_operator(fp))

    lam_h_all, lam_m_all = fp.dec_h.eigenvalues, fp.dec_m.eigenvalues
    keep_h, keep_m = _range_mask(fp.dec_h), _range_mask(fp.dec_m)
    lam_h = lam_h_all[keep_h]
    lam_m = lam_m_all[keep_m]
    if lam_h.size != lam_m.size:  # cannot happen once kernels agree
        raise ValueError("positive spectra have different cardinality")

    diff = np.abs(lam_h - lam_m)
    rel_m = diff / lam_m
    rel_h = diff / lam_h
    slack = 1e-9
    ratio = eps / (1.0 - eps)

    argmin_map = np.array([int(np.argmin(np.abs(lh - lam_m))) for lh in lam_h])

    gap_max = np.zeros(lam_h.size, dtype=bool)
    gap_min = np.zeros(lam_h.size, dtype=bool)
    for i in range(lam_h.size):
        terms = _cluster_gap_terms(lam_h, i) + [1.0]
        gap_max[i] = ratio < max(terms)
        gap_min[i] = ratio < min(terms)

    vec_h = fp.dec_h.vectors[:, keep_h]
    vec_m = fp.dec_m.vectors[:, keep_m]
    overlap = np.abs(vec_m.conj().T @ vec_h)  # overlap[j, i] = |<u_j, v_i>|
    dist = np.abs(lam_m[:, None] - lam_h[None, :]) / np.sqrt(lam_m[:, None] * lam_h[None, :])
    with np.errstate(divide="ignore"):
        margins = np.where(overlap > INNER_PRODUCT_FLOOR, eta / overlap - dist, np.nan)

    return SpectralComparison(
        epsilon=eps,
        eta=eta,
        lam_h=lam_h,
        lam_m=lam_m,
        rel_err_vs_m=rel_m,
        rel_err_vs_h=rel_h,
        rel_vs_m_ok=bool(np.all(rel_m <= eps + slack)),
        rel_vs_h_ok=bool(np.all(rel_h <= ratio + slack)),
        argmin_map=argmin_map,
        gap_ok_max=gap_max,
        gap_ok_min=gap_min,
        pairing_margins=margins,
    )
