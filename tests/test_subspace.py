import sys

import numpy as np
import pytest

from relgap.forms import FormPair, s_operator
from relgap.matcore import (
    HermitianMatrix,
    Projection,
    eig_herm,
    hs_norm,
    op_norm,
)
from relgap.subspace import (
    hs_subspace_bounds,
    pair_analysis,
    subspace_bounds,
)
from relgap.sylvester import WeakSylvesterProblem, relative_gap, solve_weak_spectral

from conftest import (
    hermitian_from_spectrum,
    make_rng,
    perp,
    random_pd,
    random_projection,
    random_unitary,
    spectral_projector,
)


def _congruent_pair(rng, eigs, strength=0.05, complex_field=False):
    """M with the given spectrum and H = M^{1/2}(I + E)M^{1/2}, ||E|| <= strength."""
    m = hermitian_from_spectrum(rng, eigs, complex_field)
    dec = eig_herm(m)
    m_half = (dec.vectors * np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
    z = rng.standard_normal((len(eigs), len(eigs)))
    if complex_field:
        z = z + 1j * rng.standard_normal((len(eigs), len(eigs)))
    e = (z + z.conj().T) / 2.0
    e *= strength / op_norm(e)
    h = HermitianMatrix(m_half @ (np.eye(len(eigs)) + e) @ m_half)
    return h, m


class TestPairAnalysis:
    def test_equal(self, rng):
        p = random_projection(rng, 6, 2, complex_field=True)
        rep = pair_analysis(p, p)
        assert rep.case == "isomorphic"
        assert rep.norm_diff <= 1e-12 and rep.hs_diff <= 1e-12

    def test_orthogonal_ranges(self):
        p = Projection(np.array([[1.0], [0.0]]))
        q = Projection(np.array([[0.0], [1.0]]))
        rep = pair_analysis(p, q)
        assert rep.case == "inconclusive"
        assert rep.norm_p_qperp == pytest.approx(1.0)
        assert rep.norm_q_pperp == pytest.approx(1.0)
        assert rep.norm_diff == pytest.approx(1.0)

    def test_rotated_line(self):
        th = np.pi / 6
        p = Projection(np.array([[1.0], [0.0]]))
        q = Projection(np.array([[np.cos(th)], [np.sin(th)]]))
        rep = pair_analysis(p, q)
        assert rep.case == "isomorphic"
        assert rep.norm_diff == pytest.approx(np.sin(th))
        assert rep.norm_p_qperp == pytest.approx(np.sin(th))

    def test_strict_inclusion(self, rng):
        q = random_projection(rng, 6, 3)
        p = Projection(q.basis[:, :2])
        rep = pair_analysis(p, q)
        assert rep.case == "strict-inclusion"
        assert rep.norm_diff == pytest.approx(1.0, abs=1e-10)
        assert rep.norm_q_pperp == pytest.approx(1.0, abs=1e-10)

    def test_kato_equality_random(self):
        # equal ranks with ||P(1-Q)|| < 1: the three norms coincide, and the
        # Pythagorean split of |||P-Q|||^2 holds
        done = 0
        trial = 0
        while done < 100:
            assert trial < 500, "random pair generation kept missing the hypothesis"
            rng = make_rng(trial)
            trial += 1
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            p = random_projection(rng, n, k, complex_field=bool(trial % 2))
            q = random_projection(rng, n, k, complex_field=bool(trial % 2))
            rep = pair_analysis(p, q)
            if rep.case != "isomorphic":
                continue
            done += 1
            assert abs(rep.norm_p_qperp - rep.norm_q_pperp) <= 1e-10
            assert abs(rep.norm_p_qperp - rep.norm_diff) <= 1e-10
            qp, pq = perp(q, p.basis), perp(p, q.basis)
            assert abs(rep.hs_diff ** 2 - (hs_norm(qp) ** 2 + hs_norm(pq) ** 2)) <= 1e-10


def _compression_oracle(h, m, d1):
    """Gaps and bounds of the HS subspace bound from the block compressions,
    formed inline: range(Q) from the eigenvectors of H below ``d1``, its
    complement from a complete QR of that basis, and likewise for P and M."""
    s = s_operator(FormPair(h, m))
    sides = []
    for x in (h, m):
        dec = eig_herm(x)
        basis = dec.vectors[:, dec.eigenvalues <= d1]
        perp = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]
        sides.append((basis, perp))
    (bq, bq_perp), (bp, bp_perp) = sides

    def spectrum(x, basis):
        blk = basis.conj().T @ x.mat @ basis
        return np.linalg.eigvalsh((blk + blk.conj().T) / 2.0)

    def gap(lam_x, lam_y):
        if lam_x.size == 0 or lam_y.size == 0 or min(lam_x.min(), lam_y.min()) <= 0.0:
            return None
        return relative_gap(lam_x, lam_y)

    gap_low = gap(spectrum(h, bq_perp), spectrum(m, bp))
    gap_high = gap(spectrum(m, bp_perp), spectrum(h, bq))
    b1 = 0.0 if bq_perp.shape[1] == 0 or bp.shape[1] == 0 else (
        None if gap_low is None else hs_norm(bq_perp.conj().T @ s @ bp) / gap_low)
    b2 = 0.0 if bq.shape[1] == 0 or bp_perp.shape[1] == 0 else (
        None if gap_high is None else hs_norm(bp_perp.conj().T @ s.conj().T @ bq) / gap_high)
    return {
        "gap_low": gap_low,
        "gap_high": gap_high,
        "bound_qperp_p": b1,
        "bound_pperp_q": b2,
        "bound_diff": None if b1 is None or b2 is None else float(np.hypot(b1, b2)),
        "bound_combined": (None if gap_low is None or gap_high is None
                           else hs_norm(s) / min(gap_low, gap_high)),
    }


class TestBlockCompress:
    # the block compressions of H and M by spectral projections, read
    # through the gaps of hs_subspace_bounds and formed inline

    def test_spectral_projector_of_same_operator(self, rng):
        h = random_pd(rng, 5, complex_field=True)
        lam = eig_herm(h).eigenvalues
        rep = hs_subspace_bounds(h, h, (lam[1] + lam[2]) / 2.0)
        gap = relative_gap(lam[2:], lam[:2])
        assert rep.gap_low == pytest.approx(gap, abs=1e-10)
        assert rep.gap_high == pytest.approx(gap, abs=1e-10)
        assert rep.bound_diff == pytest.approx(0.0, abs=1e-10)

    def test_commuting_pair_multiset(self):
        # for spectral projections the compressions' spectra are the split
        # pieces of sigma(H) and sigma(M): the gaps and bounds read from the
        # cached eigenvalues match those of the compressions formed inline, on
        # real and complex pairs, a quarter with a 1e-9-wide cluster, cut
        # anywhere in the spectrum
        for trial in range(200):
            rng = make_rng(100 + trial)
            n = int(rng.integers(3, 12))
            complex_field = bool(trial % 2)
            h = random_pd(rng, n, complex_field)
            eigs = rng.uniform(0.5, 10.0, size=n)
            if rng.random() < 0.25:
                eigs[:3] = eigs[0] * (1.0 + 1e-9 * np.arange(3))
            m = hermitian_from_spectrum(rng, eigs, complex_field)
            lam = np.concatenate([eig_herm(h).eigenvalues, eig_herm(m).eigenvalues])
            d1 = rng.uniform(0.9 * lam.min(), 1.1 * lam.max())
            rep = hs_subspace_bounds(h, m, d1)
            for name, want in _compression_oracle(h, m, d1).items():
                got = getattr(rep, name)
                assert (got is None) == (want is None), (trial, name)
                if want is not None:
                    assert abs(got - want) <= 1e-12 * abs(want), (trial, name, got, want)

    def test_solver_recovers_projection_product(self, rng):
        # the compressed data form a weak Sylvester problem whose unique
        # solution is exactly the compressed product Q_perp P
        h, m = _congruent_pair(rng, [0.5, 0.8, 3.0, 4.0], strength=0.04)
        dec_h, dec_m = eig_herm(h), eig_herm(m)
        p = Projection(dec_m.vectors[:, :2])
        bqp = dec_h.vectors[:, 2:]
        a = bqp.conj().T @ h.mat @ bqp
        m_c = p.basis.conj().T @ m.mat @ p.basis
        s = s_operator(FormPair(h, m))
        f_small = bqp.conj().T @ s @ p.basis
        prob = WeakSylvesterProblem(HermitianMatrix((a + a.conj().T) / 2.0),
                                    HermitianMatrix((m_c + m_c.conj().T) / 2.0), f_small)
        t = solve_weak_spectral(prob)
        np.testing.assert_allclose(t, bqp.conj().T @ p.basis, atol=1e-9)


class TestSubspaceBounds:
    def test_aligned_diagonal_case(self):
        h = HermitianMatrix(np.diag([1.0, 4.0]))
        m = HermitianMatrix(np.diag([1.1, 3.9]))
        rep = subspace_bounds(h, m, 1.5, 3.5)
        assert rep.hypothesis_ok
        assert rep.true_value == pytest.approx(0.0, abs=1e-12)
        assert rep.bound == pytest.approx(np.sqrt(3.5 * 1.5) / 2.0 * rep.eta)

    def test_equal_operators(self, rng):
        h = hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0])
        rep = subspace_bounds(h, h, 1.5, 2.5)
        assert rep.bound == pytest.approx(0.0, abs=1e-12)
        assert rep.true_value == pytest.approx(0.0, abs=1e-10)

    def test_interval_hitting_spectrum_flagged(self, rng):
        h = hermitian_from_spectrum(rng, [1.0, 2.0, 4.0])
        rep = subspace_bounds(h, h, 1.5, 2.5)
        assert not rep.hypothesis_ok
        assert any("intersects" in n for n in rep.notes)

    def test_rotated_instances_bound_dominates(self):
        for trial in range(100):
            rng = make_rng(200 + trial)
            n = int(rng.integers(4, 9))
            low = rng.uniform(0.3, 1.0, size=n // 2)
            high = rng.uniform(3.0, 8.0, size=n - n // 2)
            h, m = _congruent_pair(rng, np.concatenate([low, high]),
                                   strength=0.04, complex_field=bool(trial % 2))
            rep = subspace_bounds(h, m, 1.5, 2.5)
            assert rep.hypothesis_ok, rep.notes
            assert rep.true_value <= rep.bound + 1e-12

    def test_double_interval_mode(self, rng):
        h, m = _congruent_pair(rng, [0.2, 0.3, 1.0, 1.1, 5.0, 6.0], strength=0.01)
        rep = subspace_bounds(h, m, 2.0, 4.0, l1=0.45, l2=0.8)
        coef = np.sqrt(2.0 * 4.0) / 2.0 + np.sqrt(0.45 * 0.8) / 0.35
        assert rep.bound == pytest.approx(coef * rep.eta)
        assert rep.hypothesis_ok
        # the band projections: the cluster between the two gaps
        assert any("band" in n for n in rep.notes)
        assert rep.true_value <= rep.bound + 1e-12

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_double_interval_truth_is_the_band_projector_gap(self, rng, complex_field):
        # E_H[l2, d1] against E_M[l2, d1]: the mixing with the eigenvalues
        # below l2 counts as much as that with those above d1
        h, m = _congruent_pair(rng, [0.2, 0.3, 1.0, 1.1, 5.0, 6.0], strength=0.05,
                               complex_field=complex_field)
        rep = subspace_bounds(h, m, 2.0, 4.0, l1=0.45, l2=0.8)
        q = spectral_projector(eig_herm(h), 0.8, 2.0)
        p = spectral_projector(eig_herm(m), 0.8, 2.0)
        assert (q.rank, p.rank) == (2, 2)
        assert abs(rep.true_value - op_norm(p.projector - q.projector)) <= 1e-14

    def test_semidefinite_pair_with_shared_kernel(self, rng):
        # the common kernel sits inside both projections and drops out of
        # P - Q; eta comes from the pseudo powers on the common range
        u = random_unitary(rng, 4, complex_field=False)
        m = HermitianMatrix(u @ np.diag([0.0, 0.0, 0.6, 4.0]) @ u.T)
        dec = eig_herm(m)
        m_half = (dec.vectors * np.sqrt(np.maximum(dec.eigenvalues, 0.0))) @ dec.vectors.conj().T
        z = rng.standard_normal((4, 4))
        e = (z + z.T) / 2.0
        e *= 0.03 / op_norm(e)
        h = HermitianMatrix(m_half @ (np.eye(4) + e) @ m_half)
        rep = subspace_bounds(h, m, 1.5, 3.0)
        assert rep.hypothesis_ok, rep.notes
        assert rep.true_value <= rep.bound + 1e-12

    def test_double_interval_small_eta_fails(self, rng):
        # M = U H U* with U turning the eigenvectors of 1.1 and 5.0 into each
        # other by 0.3 rad across the gap [2, 4]: the spectra are equal, so both
        # intervals stay spectral-free, and only coef * eta < 1 fails
        # (coefficient 3.13, pencil eta about 0.49)
        v = random_unitary(rng, 6, complex_field=False)
        turn = np.eye(6)
        turn[3:5, 3:5] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
        u = v @ turn @ v.T
        h = HermitianMatrix((v * [0.2, 0.3, 1.0, 1.1, 5.0, 6.0]) @ v.T)
        m = HermitianMatrix(u @ h.mat @ u.T)
        rep = subspace_bounds(h, m, 2.0, 4.0, l1=0.45, l2=0.8)
        assert not rep.hypothesis_ok
        assert rep.bound > 1.0 and rep.true_value == pytest.approx(np.sin(0.3))
        assert [n for n in rep.notes if not n.startswith("band")] == [
            f"coefficient * eta = {rep.bound:.6e} not below 1"]

    def test_double_interval_bad_order_rejected(self, rng):
        h = hermitian_from_spectrum(rng, [0.2, 1.0, 5.0])
        with pytest.raises(ValueError, match="0 < l1 < l2 < d1 < d2"):
            subspace_bounds(h, h, 2.0, 4.0, l1=0.8, l2=0.45)

    def test_double_interval_needs_both_ends(self, rng):
        h = hermitian_from_spectrum(rng, [0.2, 1.0, 5.0])
        with pytest.raises(ValueError, match="both l1 and l2"):
            subspace_bounds(h, h, 2.0, 4.0, l1=0.5)

    def test_bad_order_rejected(self, rng):
        h = hermitian_from_spectrum(rng, [0.2, 1.0, 5.0])
        with pytest.raises(ValueError, match="0 < d1 < d2"):
            subspace_bounds(h, h, 3.0, 2.0)

    def test_infinite_d2_rejected(self, rng):
        # d2 = inf made the coefficient inf / inf, a NaN bound
        h = hermitian_from_spectrum(rng, [0.2, 1.0, 5.0])
        with pytest.raises(ValueError, match="0 < d1 < d2 < inf"):
            subspace_bounds(h, h, 3.0, np.inf)


def test_reports_form_no_s_and_no_projection(rng, monkeypatch):
    # both reports read every block in eigencoordinates, and still reject a
    # NaN cut and a pair whose kernels differ
    def forbidden(*args, **kwargs):
        raise AssertionError("formed S or built a Projection")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "relgap" and hasattr(module, "s_operator"):
            monkeypatch.setattr(module, "s_operator", forbidden)
    monkeypatch.setattr(Projection, "__post_init__", forbidden)
    reports = {
        "single": lambda h, m, d1: subspace_bounds(h, m, d1, 4.0),
        "band": lambda h, m, d1: subspace_bounds(h, m, d1, 4.0, l1=0.45, l2=0.8),
        "hs": hs_subspace_bounds,
    }
    h, m = _congruent_pair(rng, [0.2, 0.3, 1.0, 1.1, 5.0, 6.0], strength=0.01)
    h0, m0 = HermitianMatrix(np.diag([0.0, 1.0, 5.0])), HermitianMatrix(np.diag([1.0, 0.0, 5.0]))
    for name, report in reports.items():
        assert report(h, m, 2.0).hypothesis_ok, name
        with pytest.raises(ValueError, match="NaN|0 < d1 < d2"):
            report(h, m, np.nan)
        with pytest.raises(ValueError, match="share their kernel"):
            report(h0, m0, 2.0)


def test_scalar_arguments_checked_before_any_decomposition(monkeypatch):
    # a lone l1, out-of-order l1/l2 and a NaN cut are refused before H or M is
    # decomposed, with the messages they had when the refusal came later
    def forbidden(self):
        raise AssertionError("decomposed before the scalar arguments were checked")

    h = HermitianMatrix(np.diag([0.2, 1.0, 5.0]))
    monkeypatch.setattr(HermitianMatrix, "decomposition", property(forbidden))
    for l1, l2 in ((0.5, None), (None, 0.5)):
        with pytest.raises(ValueError, match="double-interval mode needs both l1 and l2"):
            subspace_bounds(h, h, 2.0, 4.0, l1=l1, l2=l2)
    for l1, l2 in ((0.8, 0.5), (0.5, 3.0), (np.nan, 0.5)):
        with pytest.raises(ValueError, match=r"need 0 < l1 < l2 < d1 < d2"):
            subspace_bounds(h, h, 2.0, 4.0, l1=l1, l2=l2)
    with pytest.raises(ValueError, match=r"interval bounds out of order or NaN: \[-inf, nan\]"):
        hs_subspace_bounds(h, h, np.nan)


class TestHsSubspaceBounds:
    def test_identical_commuting(self, rng):
        h = random_pd(rng, 5)
        lam = eig_herm(h).eigenvalues
        rep = hs_subspace_bounds(h, h, (lam[1] + lam[2]) / 2.0)
        assert rep.true_diff == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_diff == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_zero_coupling(self):
        h = HermitianMatrix(np.diag([1.0, 4.0]))
        m = HermitianMatrix(np.diag([1.2, 3.8]))
        rep = hs_subspace_bounds(h, m, 2.0)
        assert rep.bound_qperp_p == pytest.approx(0.0, abs=1e-14)
        assert rep.bound_pperp_q == pytest.approx(0.0, abs=1e-14)
        assert rep.true_diff == pytest.approx(0.0, abs=1e-14)

    def test_nan_cut_rejected(self):
        # a NaN cut fails every comparison, which would select rank-0 projections
        h = HermitianMatrix(np.diag([1.0, 4.0]))
        with pytest.raises(ValueError, match="NaN"):
            hs_subspace_bounds(h, h, np.nan)

    def test_shared_kernel_below_the_cut(self):
        # the shared kernel e1 lies below the cut, in range(Q) and range(P);
        # S_hat vanishes on it, so it drops out of the gaps and the bounds hold
        h = HermitianMatrix(np.diag([0.0, 1.0, 4.0]))
        m = HermitianMatrix(np.diag([0.0, 1.1, 3.9]))
        rep = hs_subspace_bounds(h, m, 2.0)
        assert rep.hypothesis_ok and rep.notes == ()
        assert rep.gap_low == relative_gap([4.0], [1.1])
        assert rep.gap_high == relative_gap([3.9], [1.0])
        assert rep.bound_diff == rep.true_diff == 0.0 and rep.bound_combined > 0.0

    @pytest.mark.parametrize("rotated", [False, True])
    def test_shared_kernel_pair(self, rotated):
        # op mode holds on this pair; the HS bound once read the kernel as a
        # compression eigenvalue 0 and returned None
        h, m = np.diag([0.0, 1.0, 1.2, 5.0, 6.0]), np.diag([0.0, 1.05, 1.25, 5.2, 6.1])
        if rotated:
            u = random_unitary(make_rng(19), 5, complex_field=True)
            h, m = (u @ x @ u.conj().T for x in (h, m))
            h, m = ((x + x.conj().T) / 2.0 for x in (h, m))
        h, m = HermitianMatrix(h), HermitianMatrix(m)
        assert subspace_bounds(h, m, 2.0, 4.0).hypothesis_ok
        rep = hs_subspace_bounds(h, m, 3.0)
        assert rep.hypothesis_ok and rep.notes == ()
        assert rep.true_diff <= rep.bound_diff + 1e-12
        assert rep.gap_low == pytest.approx(relative_gap([5.0, 6.0], [1.05, 1.25]), rel=1e-12)
        assert rep.gap_high == pytest.approx(relative_gap([5.2, 6.1], [1.0, 1.2]), rel=1e-12)

    @pytest.mark.parametrize("d1", [0.0, 1e-20])
    def test_cut_at_the_shared_kernel(self, d1):
        # rotated, the kernel eigenvalues of H and M round to about +-1e-16; when
        # their signs differ the cut splits the kernel and no bound is given
        # (true_diff is 1), otherwise both sides hold the whole kernel
        split = 0
        for seed in range(12):
            h, m = np.diag([0.0, 1.0, 1.2, 5.0, 6.0]), np.diag([0.0, 1.05, 1.25, 5.2, 6.1])
            u = random_unitary(make_rng(seed), 5, complex_field=True)
            h, m = (u @ x @ u.conj().T for x in (h, m))
            h, m = (HermitianMatrix((x + x.conj().T) / 2.0) for x in (h, m))
            rep = hs_subspace_bounds(h, m, d1)
            if rep.hypothesis_ok:
                assert rep.true_diff <= rep.bound_diff + 1e-12
            else:
                split += 1
                assert rep.notes == (f"d1 = {d1} splits the shared kernel",)
                assert rep.bound_diff is None and rep.bound_combined is None
        assert 0 < split < 12

    def test_differing_kernels_at_the_cut_raise(self):
        # ker(H) = e1 and ker(M) = e2 are orthogonal; their eigenvalues round to
        # either side of d1 = 0, which once read as a cut through a shared kernel
        h = HermitianMatrix(np.diag([-1e-17, 1.0, 5.0]))
        m = HermitianMatrix(np.diag([1.0, 1e-17, 5.0]))
        with pytest.raises(ValueError, match="share their kernel"):
            hs_subspace_bounds(h, m, 0.0)

    def test_shared_kernel_congruent_pairs(self):
        # H = M^{1/2} (I + E) M^{1/2} shares the kernel of M and differs from it on
        # the range, so the true difference is nonzero and the bound must hold
        eigs = np.array([0.0, 0.5, 0.8, 4.0, 5.0])
        for trial in range(10):
            rng = make_rng(700 + trial)
            u = random_unitary(rng, 5, complex_field=bool(trial % 2))
            m_half = (u * np.sqrt(eigs)) @ u.conj().T
            e = rng.standard_normal((5, 5))
            e = 0.05 * (e + e.T) / op_norm(e + e.T)
            h, m = (m_half @ x @ m_half for x in (np.eye(5) + e, np.eye(5)))
            h, m = (HermitianMatrix((x + x.conj().T) / 2.0) for x in (h, m))
            rep = hs_subspace_bounds(h, m, 2.0)
            assert rep.hypothesis_ok and rep.notes == ()
            assert 0.0 < rep.true_diff <= rep.bound_diff + 1e-12

    def test_huge_spectra_keep_their_gaps(self):
        # eigenvalue products past the float range once read as a zero gap
        h = HermitianMatrix(np.diag([1e160, 2e160]))
        m = HermitianMatrix(np.diag([1e160, 2.0000001e160]))
        rep = hs_subspace_bounds(h, m, 1.5e160)
        assert rep.gap_low == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert rep.gap_high == pytest.approx(1.0000001 / np.sqrt(2.0000001), rel=1e-12)
        assert rep.hypothesis_ok and rep.notes == ()
        assert rep.bound_diff == pytest.approx(0.0, abs=1e-14)

    def test_rotated_instances_all_inequalities(self):
        applicable = 0
        for trial in range(100):
            rng = make_rng(300 + trial)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n))
            eigs = np.sort(rng.uniform(0.3, 6.0, size=n))
            while np.min(np.diff(eigs)) < 0.05:
                eigs = np.sort(rng.uniform(0.3, 6.0, size=n))
            h, m = _congruent_pair(rng, eigs, strength=0.02,
                                   complex_field=bool(trial % 2))
            rep = hs_subspace_bounds(h, m, np.sqrt(eigs[k - 1] * eigs[k]))
            if not rep.hypothesis_ok:
                continue
            applicable += 1
            assert rep.true_qperp_p <= rep.bound_qperp_p + 1e-12
            assert rep.true_pperp_q <= rep.bound_pperp_q + 1e-12
            assert rep.true_diff <= rep.bound_diff + 1e-12
            assert rep.true_diff <= rep.bound_combined + 1e-12
            assert rep.bound_diff <= rep.bound_combined + 1e-12
        assert applicable >= 80

    def test_pythagorean_identity_any_pair(self):
        for trial in range(50):
            rng = make_rng(400 + trial)
            n = int(rng.integers(2, 10))
            p = random_projection(rng, n, int(rng.integers(0, n + 1)),
                                  complex_field=bool(trial % 2))
            q = random_projection(rng, n, int(rng.integers(0, n + 1)),
                                  complex_field=bool(trial % 2))
            diff2 = hs_norm(p.projector - q.projector) ** 2
            qp = hs_norm(perp(q, p.basis)) ** 2
            pq = hs_norm(perp(p, q.basis)) ** 2
            assert abs(diff2 - (qp + pq)) <= 1e-10


ANGLE_N = 40
ANGLE_SHAPE = np.array([1.0, 0.5, 1e-3, 0.0])  # principal angles relative to the largest


def _angled_pair(rng, angles, kq, kp, complex_field):
    """H and M whose spectral projectors below 1.5 have ranks kq and kp and
    ranges meeting at the given principal angles: range(E_M(1.5)) is spanned
    by u_0..u_{kp-1}, range(E_H(1.5)) by u_i cos t_i + u_{4+i} sin t_i."""
    n = ANGLE_N
    u = random_unitary(rng, n, complex_field)
    rot = np.eye(n)
    for i, t in enumerate(angles):
        j = len(ANGLE_SHAPE) + i
        rot[[i, j, i, j], [i, i, j, j]] = np.cos(t), np.sin(t), -np.sin(t), np.cos(t)
    v = u @ rot

    def spectrum(k):
        return np.where(np.arange(n) < k, rng.uniform(0.5, 1.0, n), rng.uniform(3.0, 10.0, n))

    h = HermitianMatrix((v * spectrum(kq)) @ v.conj().T)
    m = HermitianMatrix((u * spectrum(kp)) @ u.conj().T)
    return h, m


class TestProjectionPairTruths:
    """The true values of both subspace bounds come from n-by-k blocks; they
    must match the principal angles and a dense ``P - Q`` oracle to
    double-precision accuracy, down to tiny angles."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kq, kp, theta", [
        *((4, 4, theta) for theta in (1e-12, 1e-8, 1e-4, 0.1, 1.0, np.pi / 2)),
        (4, 3, 0.3), (3, 4, 1e-10), (4, 0, 0.0), (0, 4, 0.0),
    ])
    def test_truths_match_angles_and_dense_oracle(self, kq, kp, theta, complex_field):
        angles = theta * ANGLE_SHAPE[:min(kq, kp)]
        h, m = _angled_pair(make_rng(500), angles, kq, kp, complex_field)
        q = spectral_projector(eig_herm(h), -np.inf, 1.5)
        p = spectral_projector(eig_herm(m), -np.inf, 1.5)
        assert (q.rank, p.rank) == (kq, kp)
        sines = np.sin(angles)
        op_exact = np.max(sines, initial=0.0) if kq == kp else 1.0
        hs_exact = np.sqrt(abs(kq - kp) + 2.0 * np.sum(sines ** 2))
        diff = p.projector - q.projector

        rep = subspace_bounds(h, m, 1.5, 2.5)
        assert abs(rep.true_value - op_exact) <= 1e-12
        assert abs(rep.true_value - op_norm(diff)) <= 1e-14
        hs = hs_subspace_bounds(h, m, 1.5)
        assert abs(hs.true_diff - hs_exact) <= 1e-12
        assert abs(hs.true_diff - hs_norm(diff)) <= 1e-14
