import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

import relgap.ritz
from relgap.forms import FormPair, s_operator
from relgap.matcore import (
    HermitianMatrix,
    Projection,
    hs_norm,
    op_norm,
    require_positive,
)
from relgap.ritz import (
    ETA_CROSS_CHECK_TOL,
    dk_bound_from_gram,
    dk_residual_bound,
    eta_routes,
    ritz_bounds,
)

from conftest import (
    hermitian_from_spectrum,
    make_rng,
    perp,
    random_pd,
    random_pd_logcond,
    random_projection,
)


HAND_H = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
E1 = Projection(np.eye(2)[:, :1])


def build_hp(h: HermitianMatrix, p: Projection) -> HermitianMatrix:
    """Definition-level oracle for the block-diagonal part of H with respect
    to range(P), ``H_P = P H P + P_perp H P_perp``; the eta routes work on
    n-by-k blocks and never form it."""
    require_positive(h.decomposition, "H", definite=True)
    proj = p.projector
    perp = np.eye(p.n) - proj
    return HermitianMatrix(proj @ h.mat @ proj + perp @ h.mat @ perp)


class TestBuildHp:
    def test_commuting_projection_leaves_h(self, rng):
        h = random_pd(rng, 5, complex_field=True)
        dec = h.decomposition
        p = Projection(dec.vectors[:, :2])
        np.testing.assert_allclose(build_hp(h, p).mat, h.mat, atol=1e-12)

    def test_hand_case(self):
        np.testing.assert_allclose(build_hp(HAND_H, E1).mat, np.diag([2.0, 2.0]), atol=1e-14)

    def test_rank_zero(self):
        p = Projection(np.zeros((2, 0)))
        np.testing.assert_allclose(build_hp(HAND_H, p).mat, HAND_H.mat, atol=1e-14)

    def test_requires_pd(self):
        h = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive definite"):
            build_hp(h, E1)

    def test_range_reduces_hp(self, rng):
        h = random_pd(rng, 6)
        p = random_projection(rng, 6, 2)
        hp = build_hp(h, p)
        # P H_P = H_P P: range(P) is invariant for H_P
        comm = p.projector @ hp.mat - hp.mat @ p.projector
        assert op_norm(comm) <= 1e-12 * op_norm(hp)

    def test_hp_positive_definite(self, rng):
        h = random_pd(rng, 6, complex_field=True)
        p = random_projection(rng, 6, 3, complex_field=True)
        assert np.linalg.eigvalsh(build_hp(h, p).mat).min() > 0


class TestEtaSpectrum:
    def test_invariant_subspace_zero(self, rng):
        h = random_pd(rng, 6)
        p = Projection(h.decomposition.vectors[:, 2:4])
        np.testing.assert_allclose(eta_routes(h, p)[0], 0.0, atol=1e-12)

    def test_hand_case(self):
        hp = build_hp(HAND_H, E1)
        etas = eta_routes(HAND_H, E1)[0]
        np.testing.assert_allclose(etas, [0.5], atol=1e-14)
        # the normalized defect itself is (1/2) * offdiagonal swap
        dec = hp.decomposition
        hp_ihalf = (dec.vectors / np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
        delta = hp_ihalf @ (HAND_H.mat - hp.mat) @ hp_ihalf
        np.testing.assert_allclose(delta, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-14)

    def test_routes_agree_random(self):
        # rank(P) <= n/2 keeps min(k, n-k) = k, so no eta_i is a structural
        # zero (those are only resolvable to sqrt(eps) through eta^2)
        for trial in range(100):
            rng = make_rng(trial)
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(n // 2, 4) + 1))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            p = random_projection(rng, n, k, complex_field=bool(trial % 2))
            a, b, _ = eta_routes(h, p)
            assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize("space", ["random", "near-invariant"])
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [64, 200])
    def test_routes_agree_large_ill_conditioned(self, n, complex_field, space):
        # the eigenbasis route applies H^{-1} through the eigendecomposition,
        # the LU route through an LU solve; they must agree at conditioning up
        # to 1e8, also on the small-eta trial spaces an estimator sees
        for trial in range(10):
            rng = make_rng(1000 * n + 100 * complex_field + trial)
            h = random_pd_logcond(rng, n, 8.0, complex_field=complex_field)
            k = int(rng.integers(1, 5))
            if space == "random":
                p = random_projection(rng, n, k, complex_field=complex_field)
            else:
                p = _tilted_eigenspace(rng, h, k, (0.0, 1e-8, 1e-6, 1e-4)[trial % 4])
            a, b, _ = eta_routes(h, p)
            assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize("tilt", [3e-3, 1e-3])
    def test_routes_match_decimal_reference(self, tilt):
        # diagonal H with a Mathieu-like spectrum (nu_m^2 - alpha, cond ~1e9)
        # and a k = 2 basis tilted off the two lowest modes by an
        # interpolation-error-like tail
        trunc = 40
        ks = np.arange(-trunc, trunc + 1)
        nu = ks + 0.5 - 1e-4 / (2.0 * np.pi)
        lam = nu ** 2 - (nu[trunc] ** 2 - 1.6e-6)
        assert 1e8 < lam.max() / lam.min() < 1e10
        basis = np.zeros((lam.size, 2))
        for j, mode in enumerate((0, -1)):
            basis[:, j] = tilt * (-1.0) ** ks / (1.0 + np.abs(ks - mode)) ** 2
            basis[trunc + mode, j] = 1.0
        w = np.linalg.qr(basis)[0]
        ref = _decimal_etas(lam, w)
        for route in eta_routes(HermitianMatrix.from_diagonal(lam), Projection(w))[:2]:
            np.testing.assert_allclose(route, ref, rtol=1e-12, atol=0.0)

    def test_rank_zero_empty(self, rng):
        h = random_pd(rng, 4)
        assert eta_routes(h, Projection(np.zeros((4, 0))))[0].size == 0

    def test_form_inequality(self):
        # |h(phi, psi) - h_P(phi, psi)| <= eta_k sqrt(h_P[phi] h_P[psi])
        for trial in range(50):
            rng = make_rng(600 + trial)
            n = int(rng.integers(2, 8))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            p = random_projection(rng, n, int(rng.integers(1, n)),
                                  complex_field=bool(trial % 2))
            hp = build_hp(h, p)
            eta_k = float(eta_routes(h, p)[0][-1])
            delta = h.mat - hp.mat
            for _ in range(5):
                phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                lhs = abs(phi.conj() @ delta @ psi)
                rhs = eta_k * np.sqrt((phi.conj() @ hp.mat @ phi).real
                                      * (psi.conj() @ hp.mat @ psi).real)
                assert lhs <= rhs + 1e-9

    def test_operator_closeness_chain(self):
        # |||S Q||| <= |||delta Q||| / sqrt(1 - eta_k) for S of (H, H_P),
        # in both norms, for random projectors Q
        for trial in range(40):
            rng = make_rng(700 + trial)
            n = int(rng.integers(2, 7))
            h = random_pd(rng, n)
            p = random_projection(rng, n, int(rng.integers(1, n)))
            hp = build_hp(h, p)
            etas = eta_routes(h, p)[0]
            eta_k = float(etas[-1])
            if eta_k >= 1.0:
                continue
            s = s_operator(FormPair(h, hp))
            dec = hp.decomposition
            hp_ihalf = (dec.vectors / np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
            delta = hp_ihalf @ (h.mat - hp.mat) @ hp_ihalf
            q = random_projection(rng, n, int(rng.integers(1, n + 1))).projector
            denom = np.sqrt(1.0 - eta_k)
            assert op_norm(s @ q) <= op_norm(delta @ q) / denom + 1e-9
            assert hs_norm(s @ q) <= hs_norm(delta @ q) / denom + 1e-9

    def test_inverse_difference_rank(self):
        # H^{-1} - H_P^{-1} has rank at most 2 * rank(P)
        for trial in range(30):
            rng = make_rng(800 + trial)
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, max(2, n // 2 + 1)))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            p = random_projection(rng, n, k, complex_field=bool(trial % 2))
            hp = build_hp(h, p)
            diff = np.linalg.inv(h.mat) - np.linalg.inv(hp.mat)
            s = np.linalg.svd(diff, compute_uv=False)
            scale = max(s[0], 1e-30)
            assert np.all(s[2 * k:] <= 1e-10 * scale)


def _tilted_eigenspace(rng, h: HermitianMatrix, k: int, tilt: float) -> Projection:
    """Span of the k lowest eigenvectors of h, each tilted by a random
    perturbation of norm ``tilt``."""
    vectors = h.decomposition.vectors
    pert = rng.standard_normal((h.n, k))
    if np.iscomplexobj(vectors):
        pert = pert + 1j * rng.standard_normal((h.n, k))
    return Projection.from_span(vectors[:, :k] + tilt * pert / np.linalg.norm(pert, axis=0))


def _decimal_etas(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ascending defect values of span(w) for H = diag(lam), k = 2, in 50-digit
    decimal arithmetic: ``eta^2 = eig(I - H11^{-1} M G2^{-1} M)`` with
    ``H11 = w^T H w``, ``G2 = w^T H^{-1} w`` and ``M = w^T w``.  For an exactly
    orthonormal w (M = I) this is ``eig(H11^{-1} (H11 - G2^{-1}))``; keeping M
    makes the reference exact for the stored floating-point basis."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = [Decimal(float(x)) for x in lam]
        cols = [[Decimal(float(x)) for x in w[:, j]] for j in range(2)]

        def form(weights):
            return [[sum(a * c * b for a, c, b in zip(cols[i], weights, cols[j]))
                     for j in range(2)] for i in range(2)]

        def inv(m):
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]

        def mul(a, b):
            return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]

        h11, g2, gram = form(d), form([1 / x for x in d]), form([Decimal(1)] * len(d))
        prod = mul(mul(inv(h11), gram), mul(inv(g2), gram))
        t = [[int(i == j) - prod[i][j] for j in range(2)] for i in range(2)]
        half_trace = (t[0][0] + t[1][1]) / 2
        disc = (half_trace ** 2 - (t[0][0] * t[1][1] - t[0][1] * t[1][0])).sqrt()
        return np.array([float((half_trace - disc).sqrt()), float((half_trace + disc).sqrt())])


class TestRitzBounds:
    def test_invariant_subspace(self, rng):
        h = random_pd(rng, 6)
        dec = h.decomposition
        p = Projection(dec.vectors[:, :2])
        est = ritz_bounds(h, p, float(dec.eigenvalues[2]), norm="hs")
        assert est.true_hs == pytest.approx(0.0, abs=1e-10)
        assert est.bound_hs == pytest.approx(0.0, abs=1e-10)
        assert est.hypothesis_ok

    def test_hand_case_hypothesis_fails(self):
        est = ritz_bounds(HAND_H, E1, 3.0, norm="op")
        assert est.ritz_max == pytest.approx(2.0)
        np.testing.assert_allclose(est.etas, [0.5])
        # eta/(1-eta) = 1 against (D - D_P)/(D + D_P) = 0.2
        assert not est.hypothesis_ok
        assert est.notes == ("eta_k/(1-eta_k)=1.000000e+00 not below "
                             "(next_ev-D_P)/(next_ev+D_P)=2.000000e-01",)
        assert est.bound_op == pytest.approx(np.sqrt(6.0) / 1.0 * 0.5 / np.sqrt(0.5))

    @pytest.mark.parametrize("excess, noted", [(0.0, False), (4e-15, False),
                                               (1e-12, True), (1.0, True)])
    def test_next_ev_checked_against_the_spectrum(self, excess, noted):
        # next_ev may exceed lambda_{k+1}(H) = 2 only by n eps max|lambda| (9.8e-15)
        h = HermitianMatrix(np.diag([1.0, 2.0, 10.0, 11.0]))
        w = np.array([[np.cos(0.01)], [0.0], [np.sin(0.01)], [0.0]])
        est = ritz_bounds(h, Projection(w), 2.0 + excess)
        note = f"next_ev={2.0 + excess:.6e} exceeds the (k+1)-st eigenvalue {2.0:.6e} of H"
        assert est.notes == ((note,) if noted else ())
        assert est.hypothesis_ok is not noted
        assert est.bound_hs is not None

    def test_next_ev_unchecked_for_the_whole_space(self):
        est = ritz_bounds(HermitianMatrix(np.diag([1.0, 2.0])), Projection(np.eye(2)), 100.0)
        assert est.hypothesis_ok and est.notes == ()

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_ritz_values_are_the_h11_spectrum(self, rng, complex_field):
        # the extreme Ritz values come from the defect pass's eigh of H11
        h = random_pd(rng, 9, complex_field=complex_field)
        p = random_projection(rng, 9, 3, complex_field=complex_field)
        est = ritz_bounds(h, p, 50.0)
        lam11 = eta_routes(h, p)[2]
        assert (est.ritz_min, est.ritz_max) == (lam11[0], lam11[-1])
        ref = np.linalg.eigvalsh(p.basis.conj().T @ h.mat @ p.basis)
        np.testing.assert_allclose(lam11, ref, rtol=1e-13)

    def test_dominance_when_hypothesis_holds(self):
        checked = 0
        for trial in range(120):
            rng = make_rng(900 + trial)
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(n, 4)))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            dec = h.decomposition
            # perturb an invariant subspace a little to keep eta small
            basis = dec.vectors[:, :k] + 0.05 * rng.standard_normal((n, k))
            p = Projection.from_span(basis)
            next_ev = float(dec.eigenvalues[k])
            if next_ev <= dec.eigenvalues[k - 1] + 1e-9:
                continue
            est = ritz_bounds(h, p, next_ev, norm="hs")
            if not est.hypothesis_ok:
                continue
            checked += 1
            assert est.true_hs <= est.bound_hs + 1e-12
            assert est.true_op <= est.bound_op + 1e-12
        assert checked >= 40

    def test_cross_check_diagnostics(self, rng):
        h = random_pd(rng, 8, complex_field=True)
        p = random_projection(rng, 8, 3, complex_field=True)
        est = ritz_bounds(h, p, 20.0)
        eta_eig, eta_lu, _ = eta_routes(h, p)
        assert est.eta_disagreement == pytest.approx(np.max(np.abs(eta_eig - eta_lu)), abs=1e-15)
        assert ETA_CROSS_CHECK_TOL <= est.eta_tol
        assert est.eta_disagreement <= est.eta_tol

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("log10_cond", [3, 5, 8])
    def test_near_invariant_ill_conditioned(self, log10_cond, complex_field):
        # dense H at a fixed conditioning and trial spaces close to its lowest
        # eigenspace: the cross-check must pass and, where the smallness
        # hypothesis holds, the bound must too
        for trial, tilt in enumerate((0.0, 1e-8, 1e-6, 1e-4) * 2):
            rng = make_rng(2000 + 10 * log10_cond + 100 * complex_field + trial)
            eigs = 10.0 ** rng.uniform(-log10_cond / 2.0, log10_cond / 2.0, size=120)
            eigs[:2] = 10.0 ** (-log10_cond / 2.0), 10.0 ** (log10_cond / 2.0)
            h = hermitian_from_spectrum(rng, eigs, complex_field)
            k = int(rng.integers(1, 5))
            p = _tilted_eigenspace(rng, h, k, tilt)
            est = ritz_bounds(h, p, float(h.decomposition.eigenvalues[k]))
            np.testing.assert_array_equal(est.etas, eta_routes(h, p)[0])
            assert est.eta_disagreement <= est.eta_tol
            assert not est.hypothesis_ok or est.bound_hs >= est.true_hs

    def test_nan_route_gap_raises(self, rng, monkeypatch):
        h = random_pd(rng, 6)
        p = random_projection(rng, 6, 2)
        monkeypatch.setattr(relgap.ritz, "eta_routes",
                            lambda h, p: (np.array([0.1, np.nan]), np.array([0.1, 0.2]),
                                          np.array([1.0, 2.0])))
        with pytest.raises(RuntimeError, match="disagree by nan"):
            ritz_bounds(h, p, 20.0)

    def test_next_ev_below_ritz_flagged(self):
        est = ritz_bounds(HAND_H, E1, 1.5, norm="hs")
        assert est.bound_hs is None
        assert not est.hypothesis_ok
        assert any("Ritz" in note for note in est.notes)

    def test_rank_zero_rejected(self, rng):
        h = random_pd(rng, 3)
        with pytest.raises(ValueError, match="rank"):
            ritz_bounds(h, Projection(np.zeros((3, 0))), 1.0)

    @pytest.mark.parametrize("next_ev", [np.nan, np.inf, -np.inf])
    def test_nonfinite_next_ev_rejected(self, next_ev):
        with pytest.raises(ValueError, match="next_ev must be finite"):
            ritz_bounds(HAND_H, E1, next_ev)
        with pytest.raises(ValueError, match="next_ev must be finite"):
            dk_bound_from_gram(np.eye(1), 1.0, 2.0, next_ev)

    @pytest.mark.parametrize("norm", ["op", "hs"])
    @pytest.mark.parametrize("gram, ritz_min, ritz_max, name", [
        ([[np.nan]], 1.0, 1.5, "gram"),
        ([[np.inf]], 1.0, 1.5, "gram"),
        ([[1e-4]], np.nan, 1.5, "ritz_min"),
        ([[1e-4]], 1.0, np.nan, "ritz_max"),
        ([[1e-4]], 1.0, np.inf, "ritz_max"),
    ])
    def test_nonfinite_gram_input_rejected(self, gram, ritz_min, ritz_max, name, norm):
        with pytest.raises(ValueError, match=name):
            dk_bound_from_gram(np.array(gram), ritz_min, ritz_max, 2.0, norm=norm)

    def test_bad_norm_rejected(self, rng):
        h = random_pd(rng, 3)
        with pytest.raises(ValueError, match="norm"):
            ritz_bounds(h, Projection(np.eye(3)[:, :1]), 10.0, norm="nuclear")

    def test_gram_bad_norm_rejected(self):
        with pytest.raises(ValueError, match="norm must be 'op' or 'hs', got 'fro'"):
            dk_bound_from_gram(np.eye(2), 1.0, 2.0, 3.0, norm="fro")


class TestDkResidualBound:
    def test_exact_eigenvectors_zero(self, rng):
        h = random_pd(rng, 5, complex_field=True)
        dec = h.decomposition
        w = dec.vectors[:, :2]
        assert dk_residual_bound(h, w, float(dec.eigenvalues[2])) == pytest.approx(0.0, abs=1e-12)

    def test_denominator_not_positive(self, rng):
        h = random_pd(rng, 4)
        dec = h.decomposition
        assert dk_residual_bound(h, dec.vectors[:, :2], 0.0) is None

    def test_orthonormality_required(self, rng):
        h = random_pd(rng, 4)
        w = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="orthonormal"):
            dk_residual_bound(h, w, 10.0)

    def test_rejects_no_trial_vector(self):
        with pytest.raises(ValueError, match="need at least one trial vector"):
            dk_residual_bound(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), np.zeros((3, 0)), 2.5)

    def test_nan_trial_vector_rejected(self, rng):
        h = random_pd(rng, 4)
        w = h.decomposition.vectors[:, :2].copy()
        w[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            dk_residual_bound(h, w, 10.0)

    @pytest.mark.parametrize("w", [np.array([0.6, 0.8]), np.eye(2)[:, :1, None]],
                             ids=["1-d", "3-d"])
    def test_rejects_non_matrix(self, w):
        # a vector was read as one row, "2 orthonormal columns in dimension 1"
        h = HermitianMatrix(np.diag([2.0, 4.0]))
        with pytest.raises(ValueError, match=re.escape(f"expected a 2-d matrix, got shape {w.shape}")):
            dk_residual_bound(h, w, 3.0)

    def test_row_mismatch_on_diagonal_h_rejected(self):
        # the diagonal row scaling broadcast a 1 x 1 H over five rows: bound 0.0
        with pytest.raises(ValueError, match=r"shape \(5, 2\) does not match dimension 1"):
            dk_residual_bound(HermitianMatrix.from_diagonal([2.0]), np.eye(5)[:, :2], 3.5)

    def test_op_mode_uses_smallest_ritz(self, rng):
        h = HermitianMatrix(np.diag([1.0, 2.0, 10.0]))
        w = np.eye(3)[:, :2]
        # residuals vanish, but denominators differ by mode
        assert dk_residual_bound(h, w, 5.0, norm="hs") == 0.0
        assert dk_residual_bound(h, w, 5.0, norm="op") == 0.0

    def test_dominates_truth_for_domain_vectors(self):
        # in finite dimensions every vector is in the domain; the residual
        # bound then dominates the true subspace error
        for trial in range(40):
            rng = make_rng(1100 + trial)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 3))
            h = random_pd(rng, n)
            dec = h.decomposition
            if dec.eigenvalues[k] - dec.eigenvalues[k - 1] < 0.3:
                continue
            basis = dec.vectors[:, :k] + 0.02 * rng.standard_normal((n, k))
            p = Projection.from_span(basis)
            next_ev = float(dec.eigenvalues[k])
            dk = dk_residual_bound(h, p.basis, next_ev, norm="hs")
            if dk is None:
                continue
            true_hs = hs_norm(perp(Projection(dec.vectors[:, :k]), p.basis))
            assert true_hs <= dk + 1e-10


@pytest.mark.parametrize("bound", [
    lambda h, w: ritz_bounds(h, Projection(w), 10.0),
    lambda h, w: dk_residual_bound(h, w, 10.0),
], ids=["ritz_bounds", "dk_residual_bound"])
def test_row_mismatch_on_dense_h_rejected(rng, bound):
    h = random_pd(rng, 3)
    w = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    with pytest.raises(ValueError, match=r"shape \(4, 2\) does not match dimension 3"):
        bound(h, w)

