"""Projection-pair geometry and sin-theta type bounds for spectral projections
of two form-close operators, in the operator and Hilbert-Schmidt norms.

The two bounds name the spectral projections by eigenvalue masks of the
cached eigendecompositions and read every true value and coupling from
eigenvector blocks; the Hilbert-Schmidt bound reads its relative gaps from the
eigenvalues on either side of the cut ``d1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FormPair, eta_exact
from .matcore import (
    HermitianMatrix,
    Projection,
    SpectralDecomposition,
    eig_herm,
    hs_norm,
    op_norm,
)
from .sylvester import _dichotomy_coefficient, relative_gap

KATO_STRICT = 1e-12


@dataclass(frozen=True)
class ProjectionPairReport:
    """The three mixed projection norms and which side of the projection-pair
    alternative the pair falls on."""

    norm_p_qperp: float
    norm_q_pperp: float
    norm_diff: float
    hs_diff: float
    case: str  # isomorphic | strict-inclusion | inconclusive


def pair_analysis(p: Projection, q: Projection) -> ProjectionPairReport:
    """Classify a projection pair: with ``||P(I-Q)|| < 1`` the ranges are
    either isomorphic (equal ranks, all three norms coincide) or range(P)
    embeds strictly into range(Q) and ``||P-Q|| = 1``."""
    if p.n != q.n:
        raise ValueError(f"ambient dimensions differ: {p.n} vs {q.n}")
    pp, qq = p.projector, q.projector
    eye = np.eye(p.n)
    n_pq = op_norm(pp @ (eye - qq))
    n_qp = op_norm(qq @ (eye - pp))
    diff = pp - qq
    n_diff = op_norm(diff)
    if n_pq < 1.0 - KATO_STRICT and p.rank == q.rank:
        case = "isomorphic"
    elif n_pq < 1.0 - KATO_STRICT and p.rank < q.rank:
        case = "strict-inclusion"
    else:
        case = "inconclusive"
    return ProjectionPairReport(
        norm_p_qperp=n_pq,
        norm_q_pperp=n_qp,
        norm_diff=n_diff,
        hs_diff=hs_norm(diff),
        case=case,
    )


def _mixed_blocks(dec_h: SpectralDecomposition, dec_m: SpectralDecomposition,
                  a: float, b: float):
    """The masks ``in_H``, ``in_M`` of ``Q = E_H[a, b]``, ``P = E_M[a, b]`` and the
    blocks ``V_H[:, ~in_H]* V_M[:, in_M]``, ``V_M[:, ~in_M]* V_H[:, in_H]``, which are
    ``(I - Q) W_P`` and ``(I - P) W_Q`` in eigencoordinates; a NaN bound raises ValueError."""
    if not a <= b:
        raise ValueError(f"interval bounds out of order or NaN: [{a}, {b}]")
    in_h, in_m = ((d.eigenvalues >= a) & (d.eigenvalues <= b) for d in (dec_h, dec_m))
    return (in_h, in_m, dec_h.to_eigenbasis(dec_m.vectors[:, in_m])[~in_h],
            dec_m.to_eigenbasis(dec_h.vectors[:, in_h])[~in_m])


@dataclass(frozen=True)
class BoundReport:
    """A bound value, whether its hypotheses were verified, and (when
    computable) the true quantity it dominates."""

    bound: float | None
    hypothesis_ok: bool
    true_value: float | None
    eta: float
    notes: tuple[str, ...] = ()


def subspace_bounds(h: HermitianMatrix, m: HermitianMatrix, d1: float, d2: float,
                    l1: float | None = None, l2: float | None = None) -> BoundReport:
    """Sin-theta type bound on spectral projection differences, with eta from
    the difference pencil.

    Single-interval mode (``l1``/``l2`` omitted): compares ``E_H(d1)`` with
    ``E_M(d1)`` given the spectral-free interval ``[d1, d2]`` and returns
    ``sqrt(d2 d1)/(d2 - d1) * eta`` together with the true ``||P - Q||``.

    Double-interval mode: two spectral-free intervals ``[l1, l2]`` and
    ``[d1, d2]`` produce the additive coefficient bound for the band
    projections ``E[l2, d1]``, the spectral cluster the two gaps isolate.
    These are the only bands the hypotheses cover.
    """
    if not 0.0 < d1 < d2 < np.inf:
        raise ValueError(f"need 0 < d1 < d2 < inf, got d1={d1}, d2={d2}")
    dec_h, dec_m = eig_herm(h), eig_herm(m)
    eta = eta_exact(FormPair(h, m)).eta
    notes: list[str] = []
    double = l1 is not None or l2 is not None
    if double and (l1 is None or l2 is None):
        raise ValueError("double-interval mode needs both l1 and l2")

    def spectrum_free(a: float, b: float) -> bool:
        free = not any(np.any((d.eigenvalues >= a) & (d.eigenvalues <= b)) for d in (dec_h, dec_m))
        if not free:
            notes.append(f"[{a}, {b}] intersects a spectrum")
        return free

    resolvent_ok = spectrum_free(d1, d2)
    if not double:
        coef = _dichotomy_coefficient(d1, d2)
        small_ok = eta < 1.0 / coef
        if not small_ok:
            notes.append(f"eta={eta:.6e} not below (d2-d1)/sqrt(d2 d1)={1.0 / coef:.6e}")
        hypothesis_ok = resolvent_ok and small_ok
        band = (-np.inf, d1)
    else:
        if not 0.0 < l1 < l2 < d1:
            raise ValueError(f"need 0 < l1 < l2 < d1 < d2, got {l1}, {l2}, {d1}, {d2}")
        low_ok = spectrum_free(l1, l2)
        coef = _dichotomy_coefficient(d1, d2) + _dichotomy_coefficient(l1, l2)
        small_ok = coef * eta < 1.0
        if not small_ok:
            notes.append(f"coefficient * eta = {coef * eta:.6e} not below 1")
        hypothesis_ok = resolvent_ok and low_ok and small_ok
        band = (l2, d1)
        notes.append(f"band projections E[{l2}, {d1}]")

    # ||P - Q|| = max(||(I-Q) W_P||, ||(I-P) W_Q||) for any two orthogonal projections
    _, _, qperp_p, pperp_q = _mixed_blocks(dec_h, dec_m, *band)
    true = max(op_norm(qperp_p), op_norm(pperp_q))
    return BoundReport(bound=coef * eta, hypothesis_ok=hypothesis_ok,
                       true_value=true, eta=eta, notes=tuple(notes))


@dataclass(frozen=True)
class HsSubspaceBounds:
    """Hilbert-Schmidt bounds for the spectral projections below a cut and
    their true counterparts; ``|||P - Q|||^2 = |||Q_perp P|||^2 + |||P_perp Q|||^2``."""

    bound_qperp_p: float | None
    bound_pperp_q: float | None
    bound_diff: float | None
    bound_combined: float | None
    true_qperp_p: float
    true_pperp_q: float
    true_diff: float
    gap_low: float | None   # gap(sigma(Q_perp H Q_perp), sigma(P M P))
    gap_high: float | None  # gap(sigma(P_perp M P_perp), sigma(Q H Q))
    hypothesis_ok: bool
    notes: tuple[str, ...] = ()


def hs_subspace_bounds(h: HermitianMatrix, m: HermitianMatrix, d1: float) -> HsSubspaceBounds:
    """HS-norm subspace bounds for the spectral projections ``Q = E_H(d1)`` of H
    and ``P = E_M(d1)`` of M.

    The mixed products are controlled through the S operator and the relative
    gaps between the parts of sigma(H) and sigma(M) on either side of ``d1``,
    read from the cached eigenvalues: the block compressions of H and M by Q,
    P and their complements have exactly those spectra.  S is never formed: the
    couplings are the HS norms of the blocks ``S_hat[~in_H, in_M]`` and
    ``S_hat[in_H, ~in_M]`` of S in eigencoordinates, ``FormPair.s_hat``, and
    ``|||S||| = |||S_hat|||``.  A NaN ``d1`` and a pair whose kernels differ
    raise ValueError.
    """
    fp = FormPair(h, m)
    lam_h, lam_m = fp.dec_h.eigenvalues, fp.dec_m.eigenvalues
    in_h, in_m, qperp_p, pperp_q = _mixed_blocks(fp.dec_h, fp.dec_m, -np.inf, d1)
    true_qperp_p = hs_norm(qperp_p)
    true_pperp_q = hs_norm(pperp_q)
    true_diff = float(np.hypot(true_qperp_p, true_pperp_q))

    notes: list[str] = []

    def _gap_or_none(lam_x: np.ndarray, lam_y: np.ndarray, label: str) -> float | None:
        if lam_x.size == 0 or lam_y.size == 0:
            notes.append(f"{label}: a compression is trivial, gap not defined")
            return None
        try:
            return relative_gap(lam_x, lam_y)
        except ValueError:
            notes.append(f"{label}: compression spectrum not positive")
            return None

    gap_low = _gap_or_none(lam_h[~in_h], lam_m[in_m], "gap(sigma(A), sigma(M))")
    gap_high = _gap_or_none(lam_m[~in_m], lam_h[in_h], "gap(sigma(W), sigma(Hc))")

    def _rhs(coupling: np.ndarray, gap: float | None) -> float | None:
        if coupling.size == 0:  # Q = I or P = 0 (Q = 0 or P = I): the mixed product is 0
            return 0.0
        return None if gap is None else hs_norm(coupling) / gap

    b1 = _rhs(fp.s_hat[np.ix_(~in_h, in_m)], gap_low)
    b2 = _rhs(fp.s_hat[np.ix_(in_h, ~in_m)], gap_high)
    b_diff = None if (b1 is None or b2 is None) else float(np.hypot(b1, b2))

    gaps = [g for g in (gap_low, gap_high) if g is not None]
    b_comb = hs_norm(fp.s_hat) / min(gaps) if len(gaps) == 2 else None

    return HsSubspaceBounds(
        bound_qperp_p=b1,
        bound_pperp_q=b2,
        bound_diff=b_diff,
        bound_combined=b_comb,
        true_qperp_p=true_qperp_p,
        true_pperp_q=true_pperp_q,
        true_diff=true_diff,
        gap_low=gap_low,
        gap_high=gap_high,
        hypothesis_ok=b_diff is not None,
        notes=tuple(notes),
    )
