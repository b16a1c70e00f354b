import numpy as np
import pytest
from hypothesis import given, strategies as st

from relgap import sqroot
from relgap.forms import FormPair, eta_exact
from relgap.matcore import HermitianMatrix, fractional_power, op_norm
from relgap.sqroot import sqrt_integral_solution, sqrt_pair

from conftest import (hermitian_from_spectrum, make_rng, random_pd, random_pd_logcond,
                      random_unitary)


def _h(mat):
    return HermitianMatrix(np.asarray(mat, dtype=float))


class TestSqrtPair:
    def test_equal_operators(self, rng):
        m = random_pd(rng, 5, complex_field=True)
        pair = sqrt_pair(m, m)
        assert pair.norm_t <= 1e-12
        assert pair.norm_x <= 1e-12

    def test_scalar(self):
        pair = sqrt_pair(_h([[4.0]]), _h([[1.0]]))
        np.testing.assert_allclose(pair.t, [[-1.5]])
        np.testing.assert_allclose(pair.x, [[1.0 / np.sqrt(2.0) - np.sqrt(2.0)]])
        assert pair.norm_x <= pair.norm_t / 2.0

    def test_diagonal_channels(self):
        pair = sqrt_pair(_h(np.diag([4.0, 9.0])), _h(np.eye(2)))
        assert pair.norm_t == pytest.approx(8.0 / 3.0)
        assert pair.norm_x == pytest.approx(np.sqrt(3.0) - 1.0 / np.sqrt(3.0))
        assert pair.norm_x <= pair.norm_t / 2.0 + 1e-12

    def test_half_rule_wide_conditioning(self):
        # 500 random positive definite pairs with condition numbers up to 1e8
        for trial in range(500):
            rng = make_rng(trial)
            n = int(rng.integers(1, 9))
            h = random_pd_logcond(rng, n, 8.0, complex_field=bool(trial % 2))
            m = random_pd_logcond(rng, n, 8.0, complex_field=bool(trial % 3 == 0))
            pair = sqrt_pair(h, m)
            assert pair.norm_x <= pair.norm_t / 2.0 + 1e-12

    def test_sylvester_identity_defect(self):
        # M^{1/4} X H^{-1/4} + M^{-1/4} X H^{1/4} = T, multiplied out with dense
        # fractional powers rather than in the eigenbases that divide T
        for trial in range(60):
            rng = make_rng(9_000 + trial)
            n = int(rng.integers(2, 8))
            h, m = random_pd(rng, n), random_pd(rng, n)
            pair = sqrt_pair(h, m)
            dec_h, dec_m = h.decomposition, m.decomposition
            lhs = (fractional_power(dec_m, 0.25).mat @ pair.x @ fractional_power(dec_h, -0.25).mat
                   + fractional_power(dec_m, -0.25).mat @ pair.x @ fractional_power(dec_h, 0.25).mat)
            assert np.linalg.norm(lhs - pair.t, 2) <= 1e-10 * max(pair.norm_t, 1e-3)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            sqrt_pair(_h(np.diag([1.0, -2.0])), _h(np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sqrt_pair(_h(np.eye(2)), _h(np.eye(3)))


class TestIntegralSolution:
    def test_equal_operators(self, rng):
        m = random_pd(rng, 4)
        res = sqrt_integral_solution(sqrt_pair(m, m))
        np.testing.assert_allclose(res.x, 0.0, atol=1e-10)

    def test_scalar(self):
        # T = M^{1/2} H^{-1/2} - M^{-1/2} H^{1/2} = 1/2 - 2, in closed form
        res = sqrt_integral_solution(sqrt_pair(_h([[4.0]]), _h([[1.0]])))
        np.testing.assert_allclose(res.x, [[1.0 / np.sqrt(2.0) - np.sqrt(2.0)]], atol=1e-9)

    def test_matches_spectral_6x6(self, rng):
        h = random_pd(rng, 6, complex_field=True)
        m = random_pd(rng, 6, complex_field=True)
        pair = sqrt_pair(h, m)
        res = sqrt_integral_solution(pair)
        assert np.max(np.abs(res.x - pair.x)) <= 1e-8

    def test_exponential_identity_wide_spectrum(self):
        # eigenvalues of C = H^{-1/2} span [1e-3, 10^2.5] when those of H span
        # [1e-5, 1e6] (at 1e-6 the rounding of H alone decides whether H passes
        # the definiteness cutoff 1e-12 * max); the rates in between are drawn
        for offset in range(12):
            rng = make_rng(offset)
            eigs = np.concatenate([[1e-5, 1e6], 10.0 ** rng.uniform(-5, 6, size=4)])
            h = hermitian_from_spectrum(rng, eigs, complex_field=False)
            m = random_pd(rng, 6)
            res = sqrt_integral_solution(sqrt_pair(h, m))
            assert res.identity_defect <= 1e-10, offset

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_isolated_fast_rate(self, cond, rotated):
        # the rate of the eigenvalue 1 is sqrt(cond) times that of the
        # eigenvalue cond; it must not slip between the quadrature nodes
        q = random_unitary(make_rng(int(np.log10(cond))), 2, complex_field=False)
        u = q if rotated else np.eye(2)
        h = _h((u * [1.0, cond]) @ u.T)
        m = _h(np.diag([1.1, 1.05 * cond]))
        pair = sqrt_pair(h, m)
        res = sqrt_integral_solution(pair)
        assert pair.norm_x > 0.04
        assert op_norm(res.x - pair.x) <= 1e-8
        assert res.identity_defect <= 1e-10

    def test_reads_the_pairs_s_hat(self, rng, monkeypatch):
        # the integral takes M^{-1/4} T H^{-1/4} from the S_hat sqrt_pair formed:
        # every read returns that one array, and S is not formed again
        def forbidden(*args, **kwargs):
            raise AssertionError("formed S a second time")

        pair = sqrt_pair(random_pd(rng, 5), random_pd(rng, 5))
        s_hat = pair.fp.s_hat
        cached, reads = FormPair.__dict__["s_hat"], []
        monkeypatch.setattr(FormPair, "s_hat",
                            property(lambda fp: reads.append(cached.__get__(fp)) or reads[-1]))
        monkeypatch.setattr(sqroot, "s_operator", forbidden)
        res = sqrt_integral_solution(pair)
        assert reads and all(r is s_hat for r in reads)
        assert np.max(np.abs(res.x - pair.x)) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="H must be positive definite"):
            sqrt_integral_solution(sqrt_pair(_h(np.diag([1.0, -2.0])), _h(np.eye(2))))
        with pytest.raises(ValueError, match="M must be positive definite"):
            sqrt_integral_solution(sqrt_pair(_h(np.eye(2)), _h(np.diag([0.0, 2.0]))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            sqrt_integral_solution(sqrt_pair(_h(np.eye(2)), _h(np.eye(3))))


class TestFormBound:
    def test_chain_through_forms(self):
        # eta of the square-root pair is at most half the eta of the pair
        for trial in range(60):
            rng = make_rng(5_000 + trial)
            n = int(rng.integers(1, 7))
            h = random_pd(rng, n, complex_field=bool(trial % 2))
            m = random_pd(rng, n, complex_field=bool(trial % 2))
            eta = eta_exact(FormPair(h, m)).eta
            h_half = fractional_power(h.decomposition, 0.5)
            m_half = fractional_power(m.decomposition, 0.5)
            eta_half = eta_exact(FormPair(h_half, m_half)).eta
            assert eta_half <= eta / 2.0 + 1e-10


@given(log_h=st.floats(min_value=-6.0, max_value=6.0),
       log_m=st.floats(min_value=-6.0, max_value=6.0))
def test_scalar_square_root_rule(log_h, log_m):
    h, m = 10.0 ** log_h, 10.0 ** log_m
    lhs = abs(np.sqrt(m) - np.sqrt(h)) / (m * h) ** 0.25
    rhs = abs(m - h) / (2.0 * np.sqrt(m * h))
    assert lhs <= rhs + 1e-12


def test_norm_equivalences_with_forms(rng):
    # ||T|| equals the form-closeness eta of the pair and ||X|| that of the
    # square roots (the operators are mutual adjoints up to sign)
    h = random_pd(rng, 5)
    m = random_pd(rng, 5)
    pair = sqrt_pair(h, m)
    assert pair.norm_t == pytest.approx(eta_exact(FormPair(h, m)).eta, abs=1e-10)
    h_half = fractional_power(h.decomposition, 0.5)
    m_half = fractional_power(m.decomposition, 0.5)
    assert pair.norm_x == pytest.approx(eta_exact(FormPair(h_half, m_half)).eta, abs=1e-10)
