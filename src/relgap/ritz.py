"""A-posteriori subspace error estimation for Rayleigh-Ritz approximations.

Given a positive definite H and a trial subspace range(P), computes the
invariance-defect spectrum eta_i of H against its block-diagonal part H_P on
n-by-k blocks, cross-checked between two independent applications of H^{-1},
and evaluates the relative subspace-error bound together with the
residual-based competitor bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    HermitianMatrix,
    Projection,
    _hermitian_part,
    _matrix,
    _pow2_scale,
    hs_norm,
    op_norm,
    require_positive,
)
from .sylvester import _dichotomy_coefficient

ETA_CROSS_CHECK_TOL = 1e-7


def _next_ev_too_high(lam: np.ndarray, k: int, next_ev: float) -> bool:
    """Whether ``next_ev`` exceeds the (k+1)-st of the ascending eigenvalues
    ``lam`` by more than ``n eps max|lam|``; never when ``k >= n``."""
    return k < lam.size and next_ev > lam[k] + lam.size * np.finfo(float).eps * np.abs(lam).max()


def eta_routes(h: HermitianMatrix, p: Projection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The invariance-defect values by both routes, each ascending, and the
    ascending eigenvalues ``lam11`` of ``H11``, the Ritz values.

    With ``H11 = W* H W = V11 diag(lam11) V11*`` on the trial basis W and the
    congruence factor ``G = V11 diag(lam11^{-1/2})`` (``G G* = H11^{-1}``),
    the ``eta^2`` are the eigenvalues of ``G* H12 H22^{-1} H21 G``, the squared
    singular values of ``delta P`` for ``delta = H_P^{-1/2} (H - H_P) H_P^{-1/2}``.
    For the residual ``R = H W - W H11``, ``Z = H^{-1} R`` and ``Y = H^{-1} W``,
    ``X = Z - Y (W* Y)^{-1} W* Z`` gives ``R* X = H12 H22^{-1} H21`` without
    cancellation (``H11 - (W* H^{-1} W)^{-1}`` would lose ``eps cond / eta``
    absolute accuracy in eta).  The two routes differ only in how they apply
    ``H^{-1}``: the eigenbasis route through H's cached eigendecomposition,
    the LU route through ``HermitianMatrix.solve``, which never reads the
    eigenbasis (on a ``from_diagonal`` H, a row scaling by the LU's pivots).
    The rest runs once, on the stack of both ``H^{-1} [R W]``.
    """
    dec = h.decomposition
    require_positive(dec, "H", definite=True)
    if p.rank == 0:
        empty = np.zeros(0)
        return empty, empty, empty
    w, wt = p.basis, p.basis.conj().T
    hw = h.apply(w)
    h11 = _hermitian_part(wt @ hw)
    # no check of its own: H is definite, so by Cauchy interlacing lam11 >= lam_min(H)
    # > 0; a NaN lam11 makes both routes' etas NaN, which fails the cross-check
    s11 = _pow2_scale(h11)  # solved at H11 / s11 and scaled back, like a decomposition
    lam11, v11 = np.linalg.eigh(h11 / s11)
    lam11 *= s11
    g = v11 / np.sqrt(lam11)
    r = hw - w @ h11
    rw = np.hstack([r, w])
    # V diag(1 / lam) V* [R W] stacked over the LU route's H^{-1} [R W]
    eig_inv = dec.from_eigenbasis(dec.to_eigenbasis(rw) * (1.0 / dec.eigenvalues)[:, None])
    h_inv_rw = np.stack([eig_inv, h.solve(rw)])
    z, y = h_inv_rw[..., :p.rank], h_inv_rw[..., p.rank:]
    cross = r.conj().T @ (z - y @ np.linalg.solve(wt @ y, wt @ z))
    nu = np.linalg.eigvalsh(g.conj().T @ _hermitian_part(cross) @ g)
    eta_eig, eta_lu = np.sqrt(np.maximum(nu, 0.0))
    return eta_eig, eta_lu, lam11


@dataclass(frozen=True, eq=False)
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
    notes: tuple[str, ...] = ()

    @property
    def bound(self) -> float | None:
        return self.bound_hs if self.norm == "hs" else self.bound_op

    @property
    def true_value(self) -> float:
        return self.true_hs if self.norm == "hs" else self.true_op


def ritz_bounds(h: HermitianMatrix, p: Projection, next_ev: float,
                norm: str = "hs") -> RitzEstimate:
    """Relative a-posteriori bound for ``|||(E_H(lambda_k))_perp P|||``:

        sqrt(next_ev * D_P) / (next_ev - D_P) * |||delta P||| / sqrt(1 - eta_k)

    where ``|||delta P|||`` is eta_k for the operator norm and
    ``sqrt(eta_1^2 + ... + eta_k^2)`` for the Hilbert-Schmidt norm.  The
    smallness hypothesis ``eta_k/(1-eta_k) < (next_ev - D_P)/(next_ev + D_P)``
    and ``next_ev <= lambda_{k+1}(H)`` (up to ``n eps max|lambda|``, read from
    the cached decomposition) are checked and noted, never assumed.
    """
    if norm not in ("op", "hs"):
        raise ValueError(f"norm must be 'op' or 'hs', got {norm!r}")
    if p.rank == 0:
        raise ValueError("trial space must have rank >= 1")
    if not np.isfinite(next_ev):
        raise ValueError(f"next_ev must be finite, got {next_ev}")
    etas, eta_lu, ritz_vals = eta_routes(h, p)
    dec_h = h.decomposition
    lam = dec_h.eigenvalues
    # the LU route's forward error grows with the conditioning of H; a NaN gap fails
    eta_tol = float(max(ETA_CROSS_CHECK_TOL, 100.0 * np.finfo(float).eps * (lam[-1] / lam[0])))
    eta_gap = float(np.max(np.abs(etas - eta_lu)))
    if not eta_gap <= eta_tol:
        raise RuntimeError(
            "internal consistency failure: the eigenbasis and LU routes "
            f"disagree by {eta_gap:.3e} (> {eta_tol:.3e}); this indicates an implementation bug"
        )
    k = p.rank
    ritz_min, ritz_max = float(ritz_vals[0]), float(ritz_vals[-1])
    eta_k = float(etas[-1])

    notes: list[str] = []
    bound_op = bound_hs = None
    hyp = False
    if next_ev <= ritz_max:
        notes.append(f"next_ev={next_ev:.6e} does not exceed largest Ritz value {ritz_max:.6e}")
    elif eta_k >= 1.0:
        notes.append(f"eta_k={eta_k:.6e} >= 1, bound formula not applicable")
    else:
        prefix = _dichotomy_coefficient(ritz_max, next_ev)
        bound_op = prefix * eta_k / np.sqrt(1.0 - eta_k)
        bound_hs = prefix * float(np.sqrt(np.sum(etas ** 2))) / np.sqrt(1.0 - eta_k)
        small, room = eta_k / (1.0 - eta_k), (next_ev - ritz_max) / (next_ev + ritz_max)
        hyp = small < room
        if not hyp:
            notes.append(f"eta_k/(1-eta_k)={small:.6e} not below "
                         f"(next_ev-D_P)/(next_ev+D_P)={room:.6e}")

    if _next_ev_too_high(lam, k, next_ev):
        notes.append(f"next_ev={next_ev:.6e} exceeds the (k+1)-st eigenvalue {lam[k]:.6e} of H")
        hyp = False
    above = lam > lam[k - 1]   # (E_H(lambda_k))_perp
    mixed = dec_h.to_eigenbasis(p.basis)[above]
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
    for name, value in (("gram", gram), ("ritz_min", ritz_min), ("ritz_max", ritz_max),
                        ("next_ev", next_ev)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    gram = _matrix(gram)
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
    residuals ``r_i = H w_i - (w_i, H w_i) w_i`` of the trial vectors, the
    columns of the 2-d ``w``, which must pass :class:`Projection`'s orthonormality check.

    Returns None when the denominator is not positive, or when ``next_ev``
    exceeds the (k+1)-st eigenvalue of H (the rule :func:`ritz_bounds` notes,
    read from H's cached decomposition), where the formula bounds nothing.
    ``H w`` and ``next_ev`` are divided by :func:`~relgap.matcore._pow2_scale`
    of H's eigenvalues first: the Gram squares H's scale, and the bound is a ratio.
    """
    w = Projection(w).basis
    k = w.shape[1]
    if k == 0:
        raise ValueError("need at least one trial vector")
    lam = h.decomposition.eigenvalues
    scale = 1.0 / _pow2_scale(lam)
    hw = h.apply(w) * scale
    rho = np.real(np.sum(w.conj() * hw, axis=0))
    resid = hw - w * rho
    gram = resid.conj().T @ resid
    ritz_vals = np.linalg.eigvalsh(w.conj().T @ hw)
    bound = dk_bound_from_gram(gram, float(ritz_vals[0]), float(ritz_vals[-1]),
                               next_ev * scale, norm=norm)
    return None if _next_ev_too_high(lam, k, next_ev) else bound
