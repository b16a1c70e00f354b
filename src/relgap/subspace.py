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
    ``(I - Q) W_P`` and ``(I - P) W_Q`` in eigencoordinates; the callers check ``a <= b``."""
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
    double = l1 is not None or l2 is not None
    if double and (l1 is None or l2 is None):
        raise ValueError("double-interval mode needs both l1 and l2")
    if double and not 0.0 < l1 < l2 < d1:
        raise ValueError(f"need 0 < l1 < l2 < d1 < d2, got {l1}, {l2}, {d1}, {d2}")
    fp = FormPair(h, m)
    eta = eta_exact(fp).eta

    gaps = [(d1, d2), (l1, l2)] if double else [(d1, d2)]
    notes = [f"[{a}, {b}] intersects a spectrum" for a, b in gaps
             if any(np.any((d.eigenvalues >= a) & (d.eigenvalues <= b))
                    for d in (fp.dec_h, fp.dec_m))]
    coef = sum(_dichotomy_coefficient(a, b) for a, b in gaps)
    small_ok = coef * eta < 1.0
    hypothesis_ok = not notes and small_ok
    if not small_ok:
        notes.append(f"coefficient * eta = {coef * eta:.6e} not below 1")
    band = (l2, d1) if double else (-np.inf, d1)
    if double:
        notes.append(f"band projections E[{l2}, {d1}]")

    # ||P - Q|| = max(||(I-Q) W_P||, ||(I-P) W_Q||) for any two orthogonal projections
    _, _, qperp_p, pperp_q = _mixed_blocks(fp.dec_h, fp.dec_m, *band)
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
    P and their complements have exactly those spectra.  S_hat vanishes on the
    shared kernel, so the gaps and couplings read only the ranges, the pair's masks
    ``range_h`` and ``range_m``.  A cut that splits the shared kernel, as ``d1 = 0``
    may when its eigenvalues round to either sign, gives no bound.  S is never
    formed: the couplings are the HS norms of the blocks ``S_hat[~in_H, in_M]`` and
    ``S_hat[in_H, ~in_M]`` of ``FormPair.s_hat``, and ``|||S||| = |||S_hat|||``.
    A NaN ``d1`` (checked first) and a pair whose kernels differ raise ValueError.
    """
    if np.isnan(d1):
        raise ValueError(f"interval bounds out of order or NaN: [-inf, {d1}]")
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
        return relative_gap(lam_x, lam_y)

    live_h, live_m = fp.range_h, fp.range_m
    kernel_sides = np.concatenate([in_h[~live_h], in_m[~live_m]])
    if kernel_sides.any() and not kernel_sides.all():
        # the kernel eigenvalues round to either sign: no cut separates them
        notes.append(f"d1 = {d1} splits the shared kernel")
        gap_low = gap_high = b1 = b2 = b_diff = b_comb = None
    else:
        lo_h, hi_h, lo_m, hi_m = in_h & live_h, ~in_h & live_h, in_m & live_m, ~in_m & live_m
        gap_low = _gap_or_none(lam_h[hi_h], lam_m[lo_m], "gap(sigma(A), sigma(M))")
        gap_high = _gap_or_none(lam_m[hi_m], lam_h[lo_h], "gap(sigma(W), sigma(Hc))")

        def _rhs(coupling: np.ndarray, gap: float | None) -> float | None:
            # an empty coupling: off the shared kernel, Q = I or P = 0 (Q = 0 or
            # P = I), and the mixed product is 0
            if coupling.size == 0:
                return 0.0
            return None if gap is None else hs_norm(coupling) / gap

        b1 = _rhs(fp.s_hat[np.ix_(hi_h, lo_m)], gap_low)
        b2 = _rhs(fp.s_hat[np.ix_(lo_h, hi_m)], gap_high)
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
