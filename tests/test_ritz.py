import numpy as np
import pytest

from relgap.forms import FormPair, eta_exact
from relgap.matcore import HermitianMatrix, Projection, eig_herm, hs_norm, op_norm, svd
from relgap.ritz import (
    ETA_CROSS_CHECK_TOL,
    build_hp,
    dk_residual_bound,
    eta_routes,
    eta_spectrum,
    ritz_bounds,
    single_vector_bound,
)

from conftest import make_rng, random_pd, random_projection


HAND_H = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
E1 = Projection(np.eye(2)[:, :1])


class TestBuildHp:
    def test_commuting_projection_leaves_h(self, rng):
        h = random_pd(rng, 5, complex_field=True)
        dec = eig_herm(h)
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
        p = Projection(eig_herm(h).vectors[:, 2:4])
        np.testing.assert_allclose(eta_spectrum(h, p), 0.0, atol=1e-12)

    def test_hand_case(self):
        hp = build_hp(HAND_H, E1)
        etas = eta_spectrum(HAND_H, E1)
        np.testing.assert_allclose(etas, [0.5], atol=1e-14)
        # the normalized defect itself is (1/2) * offdiagonal swap
        dec = eig_herm(hp)
        hp_ihalf = (dec.vectors / np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
        delta = hp_ihalf @ (HAND_H.mat - hp.mat) @ hp_ihalf
        np.testing.assert_allclose(delta, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-14)

    def test_routes_agree_random(self):
        # rank(P) <= n/2 keeps min(k, n-k) = k, so no eta_i is a structural
        # zero (those are only resolvable to sqrt(eps) through the squared
        # pencil)
        for trial in range(100):
            rng = make_rng(trial)
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(n // 2, 4) + 1))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            p = random_projection(rng, n, k, complex_field=bool(trial % 2))
            a, b = eta_routes(h, p)
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_rank_zero_empty(self, rng):
        h = random_pd(rng, 4)
        assert eta_spectrum(h, Projection(np.zeros((4, 0)))).size == 0

    def test_form_inequality(self):
        # |h(phi, psi) - h_P(phi, psi)| <= eta_k sqrt(h_P[phi] h_P[psi])
        for trial in range(50):
            rng = make_rng(600 + trial)
            n = int(rng.integers(2, 8))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            p = random_projection(rng, n, int(rng.integers(1, n)),
                                  complex_field=bool(trial % 2))
            hp = build_hp(h, p)
            eta_k = float(eta_spectrum(h, p)[-1])
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
            etas = eta_spectrum(h, p)
            eta_k = float(etas[-1])
            if eta_k >= 1.0:
                continue
            s = eta_exact(FormPair(h, hp)).s_matrix
            dec = eig_herm(hp)
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
            s = svd(diff)[0]
            scale = max(s[0], 1e-30)
            assert np.all(s[2 * k:] <= 1e-10 * scale)


class TestRitzBounds:
    def test_invariant_subspace(self, rng):
        h = random_pd(rng, 6)
        dec = eig_herm(h)
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
        assert est.bound_op == pytest.approx(np.sqrt(6.0) / 1.0 * 0.5 / np.sqrt(0.5))

    def test_dominance_when_hypothesis_holds(self):
        checked = 0
        for trial in range(120):
            rng = make_rng(900 + trial)
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(n, 4)))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            dec = eig_herm(h)
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
        eta_svd, eta_pencil = eta_routes(h, p)
        assert est.eta_disagreement == pytest.approx(np.max(np.abs(eta_svd - eta_pencil)), abs=1e-15)
        assert ETA_CROSS_CHECK_TOL <= est.eta_tol
        assert est.eta_disagreement <= est.eta_tol

    def test_next_ev_below_ritz_flagged(self):
        est = ritz_bounds(HAND_H, E1, 1.5, norm="hs")
        assert est.bound_hs is None
        assert not est.hypothesis_ok
        assert any("Ritz" in note for note in est.notes)

    def test_rank_zero_rejected(self, rng):
        h = random_pd(rng, 3)
        with pytest.raises(ValueError, match="rank"):
            ritz_bounds(h, Projection(np.zeros((3, 0))), 1.0)

    def test_bad_norm_rejected(self, rng):
        h = random_pd(rng, 3)
        with pytest.raises(ValueError, match="norm"):
            ritz_bounds(h, Projection(np.eye(3)[:, :1]), 10.0, norm="nuclear")


class TestDkResidualBound:
    def test_exact_eigenvectors_zero(self, rng):
        h = random_pd(rng, 5, complex_field=True)
        dec = eig_herm(h)
        w = dec.vectors[:, :2]
        assert dk_residual_bound(h, w, float(dec.eigenvalues[2])) == pytest.approx(0.0, abs=1e-12)

    def test_denominator_not_positive(self, rng):
        h = random_pd(rng, 4)
        dec = eig_herm(h)
        assert dk_residual_bound(h, dec.vectors[:, :2], 0.0) is None

    def test_orthonormality_required(self, rng):
        h = random_pd(rng, 4)
        w = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="orthonormal"):
            dk_residual_bound(h, w, 10.0)

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
            dec = eig_herm(h)
            if dec.eigenvalues[k] - dec.eigenvalues[k - 1] < 0.3:
                continue
            basis = dec.vectors[:, :k] + 0.02 * rng.standard_normal((n, k))
            p = Projection.from_span(basis)
            next_ev = float(dec.eigenvalues[k])
            dk = dk_residual_bound(h, p.basis, next_ev, norm="hs")
            if dk is None:
                continue
            true_hs = hs_norm(
                Projection(dec.vectors[:, :k]).complement().basis.conj().T @ p.basis)
            assert true_hs <= dk + 1e-10


def test_single_vector_bound_values():
    assert single_vector_bound(3.0, 2.0, 0.0) == 0.0
    val = single_vector_bound(3.0, 2.0, 0.1)
    assert val == pytest.approx(np.sqrt(6.0) * 0.1 / np.sqrt(0.9))
    assert single_vector_bound(1.5, 2.0, 0.1) is None
    assert single_vector_bound(3.0, 2.0, 1.0) is None
