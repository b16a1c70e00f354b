import numpy as np
import pytest
from hypothesis import given, strategies as st

from relgap import forms, sylvester
from relgap.forms import FormPair, _pencil, eta_exact, s_operator
from relgap.matcore import HermitianMatrix, eig_herm, hs_norm, op_norm
from relgap.sqroot import sqrt_integral_solution, sqrt_pair
from relgap.subspace import hs_subspace_bounds

from conftest import make_rng, random_pd, random_unitary


def _pair(h, m):
    return FormPair(HermitianMatrix(h), HermitianMatrix(m))


def _comparable_pair(rng, n, max_eps=0.8, complex_field=False):
    """H = M^1/2 (I + E) M^1/2 with ||E|| <= max_eps, so eps < 1 by design."""
    m = random_pd(rng, n, complex_field=complex_field)
    e = random_pd(rng, n, complex_field=complex_field).mat
    e = e / op_norm(e) * rng.uniform(0.1, max_eps)
    dec = eig_herm(m)
    m_half = (dec.vectors * np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
    sign = rng.choice([-1.0, 1.0])
    h = m_half @ (np.eye(n) + sign * e) @ m_half
    return _pair(h, m.mat)


class TestEtaExact:
    def test_equal_pair_is_zero(self, rng):
        m = random_pd(rng, 5, complex_field=True)
        fp = _pair(m.mat, m.mat)
        assert eta_exact(fp).eta <= 1e-12
        np.testing.assert_allclose(s_operator(fp), 0.0, atol=1e-12)

    def test_scalar_channels(self):
        fp = _pair(np.array([[4.0]]), np.array([[1.0]]))
        assert eta_exact(fp).eta == pytest.approx(1.5)
        np.testing.assert_allclose(s_operator(fp), [[1.5]])

    def test_s_never_formed(self, rng, monkeypatch):
        # eta and eps come from the difference pencil alone
        fp = _pair(random_pd(rng, 5).mat, random_pd(rng, 5).mat)
        ref = eta_exact(fp)

        def forbidden(*args):
            raise AssertionError("eta_exact formed S")

        monkeypatch.setattr(forms, "s_operator", forbidden)
        monkeypatch.setattr(FormPair, "s_hat", property(forbidden))
        assert eta_exact(fp) == ref

    def test_two_diagonal_channels(self):
        rep = eta_exact(_pair(np.diag([4.0, 1.0]), np.diag([1.0, 4.0])))
        assert rep.eta == pytest.approx(1.5)

    def test_kernel_mismatch_rejected(self):
        h = np.diag([1.0, 0.0])
        m = np.diag([1.0, 1.0])
        with pytest.raises(ValueError, match="kernel"):
            eta_exact(_pair(h, m))

    def test_shared_kernel_pseudo_powers(self, rng):
        u = random_unitary(rng, 4, complex_field=False)
        h = u @ np.diag([2.0, 1.0, 0.0, 0.0]) @ u.T
        m = u @ np.diag([2.2, 0.9, 0.0, 0.0]) @ u.T
        rep = eta_exact(_pair(h, m))
        expected = max(abs(2.0 - 2.2) / np.sqrt(2.0 * 2.2), abs(1.0 - 0.9) / np.sqrt(0.9))
        assert rep.eta == pytest.approx(expected, abs=1e-10)

    def test_symmetry_under_swap(self):
        for trial in range(50):
            rng = make_rng(trial)
            fp = _comparable_pair(rng, int(rng.integers(2, 7)), complex_field=bool(trial % 2))
            fwd = eta_exact(fp).eta
            rev = eta_exact(FormPair(fp.m, fp.h)).eta
            assert fwd == pytest.approx(rev, abs=1e-10)

    def test_scale_covariance(self, rng):
        fp = _comparable_pair(rng, 5)
        base = eta_exact(fp).eta
        for c in (1e-3, 7.0, 1e4):
            scaled = eta_exact(_pair(c * fp.h.mat, c * fp.m.mat)).eta
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_dominated_by_epsilon_route(self):
        # 200 random comparable pairs: eta <= eps / sqrt(1 - eps)
        for trial in range(200):
            rng = make_rng(10_000 + trial)
            fp = _comparable_pair(rng, int(rng.integers(2, 8)), complex_field=bool(trial % 3 == 0))
            rep = eta_exact(fp)
            assert rep.epsilon is not None and rep.epsilon < 1.0
            assert rep.eta <= rep.eta_from_eps + 1e-10

    def test_eigenpair_distance_bound(self):
        # |lam - mu| / sqrt(lam mu) * |<u, v>| <= eta for all eigenpair combos
        for trial in range(100):
            rng = make_rng(20_000 + trial)
            n = int(rng.integers(2, 8))
            fp = _comparable_pair(rng, n, complex_field=bool(trial % 2))
            eta = eta_exact(fp).eta
            dh, dm = fp.dec_h, fp.dec_m
            overlap = np.abs(dm.vectors.conj().T @ dh.vectors)
            lam = dh.eigenvalues[None, :]
            mu = dm.eigenvalues[:, None]
            dist = np.abs(lam - mu) / np.sqrt(lam * mu)
            assert np.all(dist * overlap <= eta + 1e-10)


def _scalar_pair(eps):
    """The 1x1 pair h = 1 + eps, m = 1: its pencil eigenvalue is eps."""
    return _pair(np.array([[1.0 + eps]]), np.array([[1.0]]))


class TestEpsilon:
    def test_equal_pair(self, rng):
        m = random_pd(rng, 4)
        assert eta_exact(_pair(m.mat, m.mat)).epsilon == pytest.approx(0.0, abs=1e-12)

    def test_scaling(self, rng):
        m = random_pd(rng, 4, complex_field=True)
        assert eta_exact(_pair(1.2 * m.mat, m.mat)).epsilon == pytest.approx(0.2, abs=1e-10)

    def test_diagonal_pencil(self):
        eps = eta_exact(_pair(np.diag([0.5, 1.5]), np.eye(2))).epsilon
        assert eps == pytest.approx(0.5, abs=1e-12)

    def test_zero_rank_rejected(self):
        # an M of rank 0 leaves the pencil empty: no eps, and eta is 0
        rep = eta_exact(_pair(np.zeros((2, 2)), np.zeros((2, 2))))
        assert rep.epsilon is None and rep.eta_from_eps is None
        assert rep.eta == 0.0


class TestEtaFromEpsilon:
    # ClosenessReport.eta_from_eps = eps / sqrt(1 - eps), for eps < 1
    def test_values(self):
        assert eta_exact(_pair(np.eye(2), np.eye(2))).eta_from_eps == 0.0
        rep = eta_exact(_pair(np.diag([1.5, 1.0]), np.eye(2)))
        assert rep.epsilon == 0.5
        assert rep.eta_from_eps == pytest.approx(0.5 / np.sqrt(0.5))
        rep = eta_exact(_pair(np.diag([1.0, 0.25]), np.eye(2)))
        assert rep.epsilon == 0.75
        assert rep.eta_from_eps == pytest.approx(1.5)

    def test_domain(self):
        # eps = 1 exactly: the eps route gives no eta, while eta stays exact
        rep = eta_exact(_pair(np.diag([2.0, 1.0]), np.eye(2)))
        assert rep.epsilon == 1.0 and rep.eta_from_eps is None
        assert rep.eta == pytest.approx(1.0 / np.sqrt(2.0))

    @given(eps=st.floats(min_value=0.0, max_value=0.999))
    def test_dominates_epsilon(self, eps):
        rep = eta_exact(_scalar_pair(eps))
        assert rep.eta_from_eps >= rep.epsilon

    @given(a=st.floats(min_value=0.0, max_value=0.998),
           delta=st.floats(min_value=1e-6, max_value=1e-3))
    def test_monotone(self, a, delta):
        assert (eta_exact(_scalar_pair(a + delta)).eta_from_eps
                > eta_exact(_scalar_pair(a)).eta_from_eps)


class TestSpectralComparison:
    def test_close_diagonal_pair(self):
        # (1 - eps) m[u] <= h[u] <= (1 + eps) m[u] puts every eigenvalue of H
        # within relative eps of the matching one of M (minimax)
        fp = _pair(np.diag([1.0, 10.0]), np.diag([1.05, 10.5]))
        eps = eta_exact(fp).epsilon
        lam_h, lam_m = fp.dec_h.eigenvalues, fp.dec_m.eigenvalues
        assert eps == pytest.approx(0.05 / 1.05)
        assert np.all(np.abs(lam_h - lam_m) <= eps * lam_m + 1e-12)

    def test_requires_comparable(self):
        # eps = 3: not two-sided comparable, so no eta from eps; eta is exact
        rep = eta_exact(_pair(np.diag([4.0]), np.diag([1.0])))
        assert rep.epsilon == pytest.approx(3.0) and rep.eta_from_eps is None
        assert rep.eta == pytest.approx(1.5)


def test_s_operator_structure_on_eigenpairs(rng):
    # (v, S u) = (lam - mu)/sqrt(lam mu) (v, u) for eigenpairs of H and M
    fp = _comparable_pair(rng, 6)
    s = s_operator(fp)
    dh, dm = fp.dec_h, fp.dec_m
    for i in range(6):
        for j in range(6):
            v = dh.vectors[:, i]
            u = dm.vectors[:, j]
            lam, mu = dh.eigenvalues[i], dm.eigenvalues[j]
            lhs = v.conj() @ s @ u
            rhs = (lam - mu) / np.sqrt(lam * mu) * (v.conj() @ u)
            assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("complex_field", [False, True])
def test_s_operator_is_s_hat_in_the_eigenbases(rng, complex_field):
    # the one array that holds S: s_operator only maps it back, bit for bit
    h = random_pd(rng, 6, complex_field=complex_field)
    m = random_pd(rng, 6, complex_field=complex_field)
    fp = FormPair(h, m)
    s = s_operator(fp)
    assert fp.s_hat is fp.s_hat and not fp.s_hat.flags.writeable
    assert s.tobytes() == (fp.dec_h.vectors @ fp.s_hat @ fp.dec_m.vectors.conj().T).tobytes()


def test_s_consumers_need_no_two_sided_fn(rng, monkeypatch):
    # S, the HS subspace bound and both square-root routes read FormPair.s_hat;
    # the two-sided eigenbasis transform is the Sylvester module's own
    def forbidden(*args, **kwargs):
        raise AssertionError("_two_sided called")

    monkeypatch.setattr(sylvester, "_two_sided", forbidden)
    h, m = random_pd(rng, 5), random_pd(rng, 5)
    s_operator(FormPair(h, m))
    lam = eig_herm(h).eigenvalues
    assert hs_subspace_bounds(h, m, float(np.sqrt(lam[1] * lam[2]))).true_diff >= 0.0
    pair = sqrt_pair(h, m)
    assert np.max(np.abs(sqrt_integral_solution(pair).x - pair.x)) <= 1e-8
    with pytest.raises(AssertionError, match="_two_sided called"):  # the patch bites
        sylvester.solve_weak_spectral(sylvester.WeakSylvesterProblem(h, m, np.eye(5)))


# ---------------------------------------------------------------------------
# closed-form pairs: H and M diagonal in one unitary basis, stored exactly
# ---------------------------------------------------------------------------

_HADAMARD4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
_FOURIER4 = 1j ** np.outer(np.arange(4), np.arange(4))


def _dyadic_unitary(rng, complex_field):
    """A random 16x16 unitary with entries in {+-1, +-i} / 4: a 4x4 Hadamard
    (real) or Fourier (complex) Kronecker square with permuted, phase-flipped
    rows and columns.  Its entries, and every product U diag(d) U* with
    short dyadic d, are exact in floating point, so the design x is the exact
    x of the stored pair; rounding a generic rotated pair on storage would
    move x by about u * cond."""
    base = np.kron(_FOURIER4, _FOURIER4) if complex_field else np.kron(_HADAMARD4, _HADAMARD4)
    phases = np.array([1, 1j, -1, -1j]) if complex_field else np.array([1.0, -1.0])
    rows, cols = (phases[rng.integers(0, phases.size, 16)] for _ in range(2))
    return rows[:, None] * base[rng.permutation(16)][:, rng.permutation(16)] * cols / 4.0


def _stored_exactly(stored, u, d) -> bool:
    """Whether the float matrix equals ``U diag(d) U*`` in exact arithmetic.

    Both sides are scaled by one power of two to integers and compared as
    Python numbers, where ``int == float`` is exact."""
    scale = 2 ** int(53 - np.min(np.frexp(d)[1]))
    ints = np.array([int(v * scale) for v in d], dtype=object)
    g = np.rint(16 * u[:, None, :] * u.conj()[None, :, :])  # [i, j, k] in {+-1, +-i}
    return all(a == b for part in (np.real, np.imag)
               for a, b in zip((part(stored) * (16.0 * scale)).ravel().tolist(),
                               (part(g).astype(int).astype(object) @ ints).ravel()))


def _closed_form_pair(seed, log2_cond, q, complex_field=False, kernel=0):
    """H = U diag(m (1 + x)) U* and M = U diag(m) U* with m = 2^e, e in
    [0, log2_cond], and x = j 2^-q (|j| <= 3) on the channels where the
    stored matrices stay exact; ``kernel`` channels are zero in both.
    Returns the pair and the design x on range(M)."""
    rng = make_rng(50_000 + seed)
    e = np.sort(rng.integers(0, log2_cond + 1, 16))
    e[0], e[-1] = 0, log2_cond
    j = rng.integers(-3, 4, 16).astype(float)
    j[-1] = 3.0
    x = np.where(e - q >= log2_cond - 48, j * 2.0 ** -q, 0.0)
    m = np.where(np.arange(16) < kernel, 0.0, 2.0 ** e)
    u = _dyadic_unitary(rng, complex_field)
    h_mat, m_mat = (u * (m * (1.0 + x))) @ u.conj().T, (u * m) @ u.conj().T
    assert _stored_exactly(h_mat, u, m * (1.0 + x)) and _stored_exactly(m_mat, u, m)
    return _pair(h_mat, m_mat), x[kernel:]


# (log2 cond, q): cond 1.3e2, 5.2e5 and 8.6e9; eta about 1e-2, 1e-6 and 1e-10
CLOSED_FORM_CASES = [(c, q) for c in (7, 19, 33) for q in (8, 21, 34)]
CLOSED_FORM_RTOL = 1e-10


def _rel(a, b):
    return abs(a - b) / abs(b)


def _matches_closed_form(got, ref, log2_cond):
    """``got`` against its closed form ``ref``, a function of the pencil
    eigenvalues x that is 1.02-Lipschitz for |x| < 0.02: to CLOSED_FORM_RTOL
    relative up to cond 1e6; above it, to ``1.02 u cond(M)`` relative.  The
    measured errors scale with ``ref``: over 43 seeds the worst was 0.37 of
    that bound (eta at q = 8), and at most 0.002 at q = 21 and 34."""
    cond = 2.0 ** log2_cond
    if cond <= 1e6:
        return _rel(got, ref) <= CLOSED_FORM_RTOL
    return abs(got - ref) <= 1.02 * np.finfo(float).eps * cond * abs(ref)


class TestClosedFormPencil:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("log2_cond, q", CLOSED_FORM_CASES)
    def test_eta_and_eps_match_closed_form(self, log2_cond, q, complex_field):
        fp, x = _closed_form_pair(log2_cond + q, log2_cond, q, complex_field)
        rep = eta_exact(fp)
        assert _matches_closed_form(rep.eta, np.max(np.abs(x) / np.sqrt(1.0 + x)), log2_cond)
        assert _matches_closed_form(rep.epsilon, np.max(np.abs(x)), log2_cond)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("log2_cond, q", CLOSED_FORM_CASES)
    def test_pencil_eigenvalues_and_hs_identity(self, log2_cond, q, complex_field):
        # each x carries an absolute error up to about u * cond(M): below
        # CLOSED_FORM_RTOL * max|x| on these pairs up to cond 1e6, but not at 8.6e9
        fp, x = _closed_form_pair(log2_cond + q, log2_cond, q, complex_field)
        got = _pencil(fp)
        cond = 2.0 ** log2_cond
        atol = (CLOSED_FORM_RTOL * np.max(np.abs(x)) if cond <= 1e6
                else np.finfo(float).eps * cond)
        assert np.max(np.abs(got - np.sort(x))) <= atol
        # |||S||| = ||x / sqrt(1 + x)||_2, a 1.02-Lipschitz map for |x| < 0.02
        hs = [np.sqrt(np.sum(v ** 2 / (1.0 + v))) for v in (got, x)]
        assert abs(hs[0] - hs[1]) <= 1.02 * np.sqrt(x.size) * atol

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("log2_cond, q", CLOSED_FORM_CASES)
    def test_sqrt_pair_norm_t(self, log2_cond, q, complex_field):
        # ||T|| = ||S||, the eta of the pair, whichever of H and M comes first;
        # on a channel with lam = mu (1 + x) the X kernel is
        # x / ((1 + x)^{1/4} (1 + sqrt(1 + x))) up to sign in either order
        fp, x = _closed_form_pair(log2_cond + q, log2_cond, q, complex_field)
        eta = np.max(np.abs(x) / np.sqrt(1.0 + x))
        norm_x = np.max(np.abs(x) / ((1.0 + x) ** 0.25 * (1.0 + np.sqrt(1.0 + x))))
        for pair in (sqrt_pair(fp.h, fp.m), sqrt_pair(fp.m, fp.h)):
            assert _matches_closed_form(pair.norm_t, eta, log2_cond)
            assert _matches_closed_form(pair.norm_x, norm_x, log2_cond)
            assert pair.norm_x <= pair.norm_t / 2.0 * (1.0 + 1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_shared_kernel(self, complex_field):
        fp, x = _closed_form_pair(7, 19, 21, complex_field, kernel=3)
        lam = fp.dec_m.eigenvalues
        assert np.count_nonzero(lam > 1e-12 * lam[-1]) == x.size == 13
        rep = eta_exact(fp)
        assert _rel(rep.eta, np.max(np.abs(x) / np.sqrt(1.0 + x))) <= CLOSED_FORM_RTOL
        assert _rel(rep.epsilon, np.max(np.abs(x))) <= CLOSED_FORM_RTOL

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_s_route_agrees_where_accurate(self, complex_field):
        # S is formed from the exact H - M: accurate to rounding on a
        # well-conditioned pair with eta 1e-2, and within CLOSED_FORM_RTOL up
        # to cond 1e6, where subtracting the two products lost up to 1.6e-3
        cases = [(15, 7, 8, 1e-12)] + [(c + q, c, q, CLOSED_FORM_RTOL)
                                       for c, q in CLOSED_FORM_CASES if 2.0 ** c <= 1e6]
        for seed, log2_cond, q, rtol in cases:
            fp, x = _closed_form_pair(seed, log2_cond, q, complex_field)
            s = s_operator(fp)
            assert _rel(op_norm(s), np.max(np.abs(x) / np.sqrt(1.0 + x))) <= rtol
            assert _rel(hs_norm(s), np.sqrt(np.sum(x ** 2 / (1.0 + x)))) <= rtol


def test_nan_pencil_rejected(monkeypatch):
    # a NaN eigenvalue never becomes a NaN eta
    fp = _pair(np.diag([1.0, 2.0]), np.diag([1.1, 2.1]))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(np.shape(a)[-1], np.nan))
    with pytest.raises(ValueError, match="pencil"):
        eta_exact(fp)
