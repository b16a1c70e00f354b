"""A-posteriori subspace error estimation for Rayleigh-Ritz approximations.

Given a positive definite H and a trial subspace range(P), builds the
block-diagonal comparison operator H_P, computes the invariance-defect
spectrum eta_i by two independent routes, and evaluates the relative
subspace-error bound together with the residual-based competitor bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matcore import (
    HermitianMatrix,
    Projection,
    eig_herm,
    fractional_power,
    hs_norm,
    op_norm,
    require_positive,
    spectral_projector_below,
    svd,
)

ETA_CROSS_CHECK_TOL = 1e-7


def build_hp(h: HermitianMatrix, p: Projection) -> HermitianMatrix:
    """Block-diagonal part of H with respect to range(P):
    ``H_P = P H P + P_perp H P_perp``.  Positive definite whenever H is, and
    range(P) reduces it."""
    require_positive(eig_herm(h), "H", definite=True)
    proj = p.projector
    perp = np.eye(p.n) - proj
    return HermitianMatrix(proj @ h.mat @ proj + perp @ h.mat @ perp)


def eta_routes(h: HermitianMatrix, p: Projection) -> tuple[np.ndarray, np.ndarray]:
    """The invariance-defect values by both routes, each ascending.

    Route one: singular values of ``delta * P`` for the normalized defect
    ``delta = H_P^{-1/2} (H - H_P) H_P^{-1/2}``.  Route two: square roots of
    the eigenvalues of the pencil ``(W*(H^{-1} - H_P^{-1})W, W* H^{-1} W)``
    on the trial basis W.  The pencil compressions are evaluated through
    their block (Schur complement) representations,

        W* H^{-1} W = (H11 - H12 H22^{-1} H21)^{-1},
        W* H_P^{-1} W = H11^{-1},

    which keeps their relative accuracy independent of the conditioning of H.
    """
    require_positive(eig_herm(h), "H", definite=True)
    if p.rank == 0:
        empty = np.zeros(0)
        return empty, empty
    hp = build_hp(h, p)
    dec_hp = eig_herm(hp)

    hp_ihalf = fractional_power(dec_hp, -0.5).mat
    delta = hp_ihalf @ (h.mat - hp.mat) @ hp_ihalf
    svals = svd(delta @ p.projector)[0]
    eta_svd = np.sort(svals[: p.rank])

    w = p.basis
    wp = p.complement().basis
    h11 = w.conj().T @ h.mat @ w
    h21 = wp.conj().T @ h.mat @ w
    h22 = wp.conj().T @ h.mat @ wp
    cross = h21.conj().T @ np.linalg.solve(h22, h21)
    cross = (cross + cross.conj().T) / 2.0
    schur = h11 - cross
    g2 = np.linalg.inv(schur)                       # W* H^{-1} W
    g1 = g2 @ cross @ np.linalg.inv(h11)            # W* (H^{-1} - H_P^{-1}) W
    g1 = (g1 + g1.conj().T) / 2.0
    lam2, v2 = np.linalg.eigh(g2)
    g2_ihalf = (v2 / np.sqrt(lam2)) @ v2.conj().T
    nu = np.linalg.eigvalsh(g2_ihalf @ g1 @ g2_ihalf)
    eta_pencil = np.sqrt(np.maximum(nu, 0.0))
    return eta_svd, np.sort(eta_pencil)


def _cross_checked_etas(h: HermitianMatrix, p: Projection) -> tuple[np.ndarray, float, float]:
    """The singular-value route's etas, their largest disagreement with the
    pencil route, and the tolerance that disagreement was checked against.

    The pencil route works through H^{-1}, so its forward error grows with
    the conditioning of H; the consistency threshold scales accordingly.
    """
    eta_svd, eta_pencil = eta_routes(h, p)
    lam = eig_herm(h).eigenvalues
    cond = lam[-1] / lam[0]
    tol = max(ETA_CROSS_CHECK_TOL, 100.0 * np.finfo(float).eps * cond)
    gap = float(np.max(np.abs(eta_svd - eta_pencil))) if eta_svd.size else 0.0
    if gap > tol:
        raise RuntimeError(
            "internal consistency failure: the singular-value and pencil routes "
            f"disagree by {gap:.3e} (> {tol:.3e}); this indicates an implementation bug"
        )
    return eta_svd, gap, float(tol)


def eta_spectrum(h: HermitianMatrix, p: Projection) -> np.ndarray:
    """Ascending invariance-defect values eta_1 <= ... <= eta_k for the trial
    space, cross-checked between the two routes."""
    return _cross_checked_etas(h, p)[0]


@dataclass(frozen=True)
class RitzEstimate:
    """Defect spectrum, Ritz values, the relative subspace-error bounds, and
    the true error computed from exact spectral data for validation."""

    etas: np.ndarray
    eta_disagreement: float  # largest gap between the two eta routes
    eta_tol: float         # the tolerance that gap was checked against
    ritz_min: float        # smallest Ritz value (d_P)
    ritz_max: float        # largest Ritz value (D_P)
    next_ev: float         # caller's lower bound for the (k+1)-st eigenvalue
    norm: str              # op | hs
    bound_op: float | None
    bound_hs: float | None
    hypothesis_ok: bool
    true_op: float
    true_hs: float
    dk_bound: float | None = None
    notes: tuple[str, ...] = ()

    @property
    def bound(self) -> float | None:
        return self.bound_hs if self.norm == "hs" else self.bound_op

    @property
    def true_value(self) -> float:
        return self.true_hs if self.norm == "hs" else self.true_op

    def with_dk(self, dk: float | None) -> "RitzEstimate":
        return replace(self, dk_bound=dk)


def ritz_bounds(h: HermitianMatrix, p: Projection, next_ev: float,
                norm: str = "hs") -> RitzEstimate:
    """Relative a-posteriori bound for ``|||(E_H(lambda_k))_perp P|||``:

        sqrt(next_ev * D_P) / (next_ev - D_P) * |||delta P||| / sqrt(1 - eta_k)

    where ``|||delta P|||`` is eta_k for the operator norm and
    ``sqrt(eta_1^2 + ... + eta_k^2)`` for the Hilbert-Schmidt norm.  The
    smallness hypothesis ``eta_k/(1-eta_k) < (next_ev - D_P)/(next_ev + D_P)``
    is checked and flagged, never assumed.
    """
    if norm not in ("op", "hs"):
        raise ValueError(f"norm must be 'op' or 'hs', got {norm!r}")
    if p.rank == 0:
        raise ValueError("trial space must have rank >= 1")
    etas, eta_gap, eta_tol = _cross_checked_etas(h, p)
    k = p.rank
    ritz_vals = np.linalg.eigvalsh(p.basis.conj().T @ h.mat @ p.basis)
    ritz_min, ritz_max = float(ritz_vals[0]), float(ritz_vals[-1])
    eta_k = float(etas[-1])

    notes: list[str] = []
    bound_op = bound_hs = None
    if next_ev <= ritz_max:
        notes.append(f"next_ev={next_ev:.6e} does not exceed largest Ritz value {ritz_max:.6e}")
    elif eta_k >= 1.0:
        notes.append(f"eta_k={eta_k:.6e} >= 1, bound formula not applicable")
    else:
        prefix = np.sqrt(next_ev * ritz_max) / (next_ev - ritz_max)
        bound_op = prefix * eta_k / np.sqrt(1.0 - eta_k)
        bound_hs = prefix * float(np.sqrt(np.sum(etas ** 2))) / np.sqrt(1.0 - eta_k)
    hyp = (next_ev > ritz_max and eta_k < 1.0
           and eta_k / (1.0 - eta_k) < (next_ev - ritz_max) / (next_ev + ritz_max))

    dec_h = eig_herm(h)
    lam_k = dec_h.eigenvalues[k - 1]
    q = spectral_projector_below(dec_h, lam_k)
    mixed = q.complement().basis.conj().T @ p.basis
    return RitzEstimate(
        etas=etas,
        eta_disagreement=eta_gap,
        eta_tol=eta_tol,
        ritz_min=ritz_min,
        ritz_max=ritz_max,
        next_ev=next_ev,
        norm=norm,
        bound_op=bound_op,
        bound_hs=bound_hs,
        hypothesis_ok=bool(hyp),
        true_op=op_norm(mixed),
        true_hs=hs_norm(mixed),
        notes=tuple(notes),
    )


def single_vector_bound(next_ev: float, ritz_min: float, eta_k: float) -> float | None:
    """Spectral-norm variant of the relative bound built on the smallest Ritz
    value, for single-vector approximation estimates."""
    if not (0.0 <= eta_k < 1.0) or next_ev <= ritz_min:
        return None
    return float(np.sqrt(next_ev * ritz_min) / (next_ev - ritz_min)
                 * eta_k / np.sqrt(1.0 - eta_k))


def dk_bound_from_gram(gram: np.ndarray, ritz_min: float, ritz_max: float,
                       next_ev: float, norm: str = "hs") -> float | None:
    """Residual competitor bound given the residual Gram matrix
    ``R_ij = (r_i, r_j)`` and the extreme Ritz values of the same vectors.

    hs: ``sqrt(s_1(R) + ... + s_k(R)) / (next_ev - D_P)``;
    op: ``sqrt(s_1(R)) / (next_ev - d_P)``.
    Returns None when the denominator is not positive.
    """
    if norm not in ("op", "hs"):
        raise ValueError(f"norm must be 'op' or 'hs', got {norm!r}")
    gram = np.atleast_2d(np.asarray(gram))
    s = np.linalg.eigvalsh(gram)[::-1]
    if norm == "hs":
        denom = next_ev - ritz_max
        num = np.sqrt(max(float(np.sum(s)), 0.0))
    else:
        denom = next_ev - ritz_min
        num = np.sqrt(max(float(s[0]), 0.0))
    if denom <= 0.0:
        return None
    return float(num / denom)


def dk_residual_bound(h: HermitianMatrix, w: np.ndarray, next_ev: float,
                      norm: str = "hs") -> float | None:
    """Residual (Davis-Kahan style) competitor bound from the Rayleigh
    residuals ``r_i = H w_i - (w_i, H w_i) w_i`` of the trial vectors."""
    w = np.atleast_2d(np.asarray(w))
    k = w.shape[1]
    if k == 0:
        raise ValueError("need at least one trial vector")
    gram_defect = np.linalg.norm(w.conj().T @ w - np.eye(k))
    if gram_defect > 1e-10:
        raise ValueError(f"trial vectors are not orthonormal (defect {gram_defect:.3e})")
    hw = h.mat @ w
    rho = np.real(np.sum(w.conj() * hw, axis=0))
    resid = hw - w * rho
    gram = resid.conj().T @ resid
    ritz_vals = np.linalg.eigvalsh(w.conj().T @ h.mat @ w)
    return dk_bound_from_gram(gram, float(ritz_vals[0]), float(ritz_vals[-1]),
                              next_ev, norm=norm)
