"""Projection-pair geometry and sin-theta type bounds for spectral projections
of two form-close operators, in the operator and Hilbert-Schmidt norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FormPair, eta_exact, s_operator
from .matcore import (
    HermitianMatrix,
    Projection,
    SpectralDecomposition,
    ZERO_TOL,
    coupling_kernel,
    eig_herm,
    hs_norm,
    op_norm,
    spectral_projector,
    spectral_projector_below,
    two_sided_fn,
)
from .sylvester import relative_gap

KATO_STRICT = 1e-12
COMMUTE_RTOL = 1e-10


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


@dataclass(frozen=True)
class BlockCompression:
    """Compressions of H by range(Q)^perp / range(Q) and of M by range(P) /
    range(P)^perp, plus the defect of the compressed-Sylvester identity that
    couples them through the S operator."""

    a: np.ndarray      # Q_perp H Q_perp on range(Q_perp)
    hc: np.ndarray     # Q H Q on range(Q)
    m: np.ndarray      # P M P on range(P)
    w: np.ndarray      # P_perp M P_perp on range(P_perp)
    identity_defect: float
    singular_blocks: tuple[str, ...]


def _compression(x: HermitianMatrix, basis: np.ndarray) -> np.ndarray:
    """``B* X B`` on the columns of ``basis``, symmetrized exactly."""
    blk = basis.conj().T @ x.mat @ basis
    return (blk + blk.conj().T) / 2.0


def _compress(h: HermitianMatrix, m: HermitianMatrix, q: Projection, p: Projection):
    """The block compression plus what :func:`hs_subspace_bounds` reuses: S,
    the complement bases of Q and P, and the spectra of the A and M blocks."""
    if not (h.n == m.n == q.n == p.n):
        raise ValueError("H, M, Q, P must share one ambient dimension")
    bqp, bpp = q.complement().basis, p.complement().basis
    a, mc = _compression(h, bqp), _compression(m, p.basis)
    s = s_operator(FormPair(h, m))
    dec_a, dec_m = (eig_herm(blk) if blk.size else SpectralDecomposition(np.zeros(0), blk)
                    for blk in (a, mc))
    rhs = two_sided_fn(dec_a, dec_m, coupling_kernel, bqp.conj().T @ p.basis)
    defect = op_norm(bqp.conj().T @ s @ p.basis - rhs)
    singular = tuple(name for name, lam in (("A", dec_a.eigenvalues), ("M", dec_m.eigenvalues))
                     if lam.size and lam[0] <= ZERO_TOL * max(np.max(np.abs(lam)), 1e-300))
    block = BlockCompression(a=a, hc=_compression(h, q.basis), m=mc, w=_compression(m, bpp),
                             identity_defect=defect, singular_blocks=singular)
    return block, s, bqp, bpp, dec_a.eigenvalues, dec_m.eigenvalues


def block_compress(h: HermitianMatrix, m: HermitianMatrix,
                   q: Projection, p: Projection) -> BlockCompression:
    """Compress H and M to the four subspaces determined by Q and P and report
    the defect of ``Q_perp S P = A^{1/2} T M^{-1/2} - A^{-1/2} T M^{1/2}``
    with ``T = Q_perp P`` (exact when Q commutes with H and P with M)."""
    return _compress(h, m, q, p)[0]


@dataclass(frozen=True)
class BoundReport:
    """A bound value, whether its hypotheses were verified, and (when
    computable) the true quantity it dominates."""

    bound: float | None
    hypothesis_ok: bool
    true_value: float | None
    eta: float
    notes: tuple[str, ...] = ()


def _interval_in_resolvent(lam: np.ndarray, a: float, b: float) -> bool:
    return not np.any((lam >= a) & (lam <= b))


def subspace_bounds(h: HermitianMatrix, m: HermitianMatrix, d1: float, d2: float,
                    eta: float | None = None,
                    l1: float | None = None, l2: float | None = None,
                    band: tuple[float, float] | None = None) -> BoundReport:
    """Sin-theta type bound on spectral projection differences.

    Single-interval mode (``l1``/``l2`` omitted): compares ``E_H(d1)`` with
    ``E_M(d1)`` given the spectral-free interval ``[d1, d2]`` and returns
    ``sqrt(d2 d1)/(d2 - d1) * eta`` together with the true ``||P - Q||``.

    Double-interval mode: two spectral-free intervals ``[l1, l2]`` and
    ``[d1, d2]`` produce the additive coefficient bound.  The compared band
    projections are not pinned down by the hypotheses alone; the band
    defaults to ``[l2, d1]`` (the spectral cluster separated by the two
    gaps) and may be overridden via ``band``.
    """
    if not 0.0 < d1 < d2:
        raise ValueError(f"need 0 < d1 < d2, got d1={d1}, d2={d2}")
    dec_h, dec_m = eig_herm(h), eig_herm(m)
    if eta is None:
        eta = eta_exact(FormPair(h, m)).eta
    notes: list[str] = []
    double = l1 is not None or l2 is not None
    if double and (l1 is None or l2 is None):
        raise ValueError("double-interval mode needs both l1 and l2")

    resolvent_ok = (_interval_in_resolvent(dec_h.eigenvalues, d1, d2)
                    and _interval_in_resolvent(dec_m.eigenvalues, d1, d2))
    if not resolvent_ok:
        notes.append(f"[{d1}, {d2}] intersects a spectrum")

    if not double:
        coef = np.sqrt(d2 * d1) / (d2 - d1)
        small_ok = eta < 1.0 / coef
        if not small_ok:
            notes.append(f"eta={eta:.6e} not below (d2-d1)/sqrt(d2 d1)={1.0 / coef:.6e}")
        q = spectral_projector_below(dec_h, d1)
        p = spectral_projector_below(dec_m, d1)
        true = op_norm(p.projector - q.projector)
        return BoundReport(bound=coef * eta, hypothesis_ok=resolvent_ok and small_ok,
                           true_value=true, eta=eta, notes=tuple(notes))

    if not 0.0 < l1 < l2 < d1:
        raise ValueError(f"need 0 < l1 < l2 < d1 < d2, got {l1}, {l2}, {d1}, {d2}")
    low_ok = (_interval_in_resolvent(dec_h.eigenvalues, l1, l2)
              and _interval_in_resolvent(dec_m.eigenvalues, l1, l2))
    if not low_ok:
        notes.append(f"[{l1}, {l2}] intersects a spectrum")
    coef = np.sqrt(d2 * d1) / (d2 - d1) + np.sqrt(l2 * l1) / (l2 - l1)
    small_ok = coef * eta < 1.0
    if not small_ok:
        notes.append(f"coefficient * eta = {coef * eta:.6e} not below 1")
    if band is None:
        band = (l2, d1)
        notes.append(f"band projections default to E[{l2}, {d1}]")
    q = spectral_projector(dec_h, band[0], band[1])
    p = spectral_projector(dec_m, band[0], band[1])
    true = op_norm(p.projector - q.projector)
    return BoundReport(bound=coef * eta, hypothesis_ok=resolvent_ok and low_ok and small_ok,
                       true_value=true, eta=eta, notes=tuple(notes))


@dataclass(frozen=True)
class HsSubspaceBounds:
    """Hilbert-Schmidt bounds for a commuting projection pair, their true
    counterparts, and the Pythagorean split of ``|||P - Q|||^2``."""

    bound_qperp_p: float | None
    bound_pperp_q: float | None
    bound_diff: float | None
    bound_combined: float | None
    true_qperp_p: float
    true_pperp_q: float
    true_diff: float
    gap_low: float | None   # gap(sigma(Q_perp H Q_perp), sigma(P M P))
    gap_high: float | None  # gap(sigma(P_perp M P_perp), sigma(Q H Q))
    pythagorean_defect: float
    hypothesis_ok: bool
    notes: tuple[str, ...] = ()


def _commutes(h: HermitianMatrix, q: Projection) -> bool:
    """``||HQ - QH|| = ||(I - Q) H W||`` for the orthonormal basis W of range(Q),
    measured against ``||H||``."""
    w = q.basis
    hw = h.mat @ w
    lam = eig_herm(h).eigenvalues
    h_norm = max(abs(lam[0]), abs(lam[-1]))
    return op_norm(hw - w @ (w.conj().T @ hw)) <= COMMUTE_RTOL * max(h_norm, 1e-300)


def hs_subspace_bounds(h: HermitianMatrix, m: HermitianMatrix,
                       q: Projection, p: Projection) -> HsSubspaceBounds:
    """HS-norm subspace bounds for spectral projections Q of H and P of M.

    Q must commute with H and P with M; the involved mixed products are then
    controlled through the S operator and the relative gaps of the block
    compressions.
    """
    if not _commutes(h, q):
        raise ValueError("Q does not commute with H (tolerance 1e-10 * ||H||)")
    if not _commutes(m, p):
        raise ValueError("P does not commute with M (tolerance 1e-10 * ||M||)")

    block, s, bqp, bpp, lam_a, lam_m = _compress(h, m, q, p)
    bq, bp = q.basis, p.basis

    true_qperp_p = hs_norm(bqp.conj().T @ bp)
    true_pperp_q = hs_norm(bpp.conj().T @ bq)
    true_diff = hs_norm(p.projector - q.projector)
    pyth_defect = abs(true_diff ** 2 - (true_qperp_p ** 2 + true_pperp_q ** 2))

    notes: list[str] = []

    def _gap_or_none(lam_x: np.ndarray, lam_y: np.ndarray, label: str) -> float | None:
        if lam_x.size == 0 or lam_y.size == 0:
            notes.append(f"{label}: a compression is trivial, gap not defined")
            return None
        try:
            g = relative_gap(lam_x, lam_y)
        except ValueError:
            notes.append(f"{label}: compression spectrum not positive")
            return None
        if g <= 0.0:
            notes.append(f"{label}: relative gap is zero")
            return None
        return g

    gap_low = _gap_or_none(lam_a, lam_m, "gap(sigma(A), sigma(M))")
    gap_high = _gap_or_none(np.linalg.eigvalsh(block.w), np.linalg.eigvalsh(block.hc),
                            "gap(sigma(W), sigma(Hc))")

    f_low = hs_norm(bqp.conj().T @ s @ bp)
    f_high = hs_norm(bq.conj().T @ s @ bpp)

    def _rhs(f_hs: float, gap: float | None, trivial: bool) -> float | None:
        if trivial:
            return 0.0
        return None if gap is None else f_hs / gap

    b1 = _rhs(f_low, gap_low, bqp.shape[1] == 0 or bp.shape[1] == 0)
    b2 = _rhs(f_high, gap_high, bq.shape[1] == 0 or bpp.shape[1] == 0)
    b_diff = None if (b1 is None or b2 is None) else float(np.hypot(b1, b2))

    gaps = [g for g in (gap_low, gap_high) if g is not None]
    b_comb = hs_norm(s) / min(gaps) if len(gaps) == 2 else None

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
        pythagorean_defect=pyth_defect,
        hypothesis_ok=b_diff is not None,
        notes=tuple(notes),
    )
