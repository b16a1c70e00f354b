import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relgap.quadrature as quadrature
import relgap.sylvester as sylvester_module
from relgap.matcore import ConvergenceError, HermitianMatrix, hs_norm, op_norm
from relgap.quadrature import integrate_adaptive
from relgap.sylvester import (
    WeakSylvesterProblem,
    relative_gap,
    solve_weak_quadrature,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)

from conftest import hermitian_from_spectrum, make_rng, random_unitary


def _problem(a_eigs, m_eigs, f, rng=None, complex_field=False):
    if rng is None:
        a = HermitianMatrix(np.diag(np.asarray(a_eigs, dtype=float)))
        m = HermitianMatrix(np.diag(np.asarray(m_eigs, dtype=float)))
    else:
        a = hermitian_from_spectrum(rng, a_eigs, complex_field)
        m = hermitian_from_spectrum(rng, m_eigs, complex_field)
    return WeakSylvesterProblem(a, m, np.asarray(f))


def _random_dichotomous(rng, n_a=None, n_m=None, complex_field=False):
    n_a = n_a or int(rng.integers(1, 11))
    n_m = n_m or int(rng.integers(1, 11))
    a_eigs = rng.uniform(1.5, 6.0, size=n_a)
    m_eigs = rng.uniform(0.1, 1.0, size=n_m)
    a = hermitian_from_spectrum(rng, a_eigs, complex_field)
    m = hermitian_from_spectrum(rng, m_eigs, complex_field)
    f = rng.standard_normal((n_a, n_m))
    if complex_field:
        f = f + 1j * rng.standard_normal((n_a, n_m))
    return WeakSylvesterProblem(a, m, f)


class TestRelativeGap:
    def test_single_pair(self):
        assert relative_gap([4.0], [1.0]) == pytest.approx(1.5)

    def test_min_over_pairs(self):
        assert relative_gap([1.0, 9.0], [4.0]) == pytest.approx(5.0 / 6.0)

    def test_identical_spectra(self):
        assert relative_gap([1.0, 2.0], [2.0, 5.0]) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e160, 1e300])
    def test_no_overflow_at_extreme_scales(self, scale):
        # sqrt(lambda mu) would overflow past 1.3e154 and read the gap as zero
        assert relative_gap([4.0 * scale], [scale]) == pytest.approx(1.5, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            relative_gap([], [1.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            relative_gap([1.0, -2.0], [1.0])

    @pytest.mark.parametrize("sa, sm, bad", [
        ([np.nan], [1.0], "[nan]"),
        ([np.inf], [1.0], "[inf]"),
        ([1.0], [1e308, np.inf], "[inf]"),
    ], ids=["nan", "inf", "inf-beside-huge"])
    def test_nonfinite_rejected(self, sa, sm, bad):
        # each read nan, with a RuntimeWarning
        with pytest.raises(ValueError, match=re.escape(f"finite spectra, got {bad}")):
            relative_gap(sa, sm)

    @given(a=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6),
           b=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6),
           c=st.floats(min_value=1e-2, max_value=1e2))
    def test_symmetric_and_scale_invariant(self, a, b, c):
        g = relative_gap(a, b)
        assert g == pytest.approx(relative_gap(b, a))
        assert relative_gap([c * x for x in a], [c * x for x in b]) == pytest.approx(g, rel=1e-9)


class TestSpectralSolver:
    def test_scalar(self):
        p = _problem([4.0], [1.0], [[1.0]])
        np.testing.assert_allclose(solve_weak_spectral(p), [[2.0 / 3.0]], atol=1e-14)

    def test_zero_rhs(self, rng):
        p = _random_dichotomous(rng)
        p0 = WeakSylvesterProblem(p.a, p.m, np.zeros_like(p.f))
        np.testing.assert_allclose(solve_weak_spectral(p0), 0.0)

    def test_rank_one_sharp_instance(self, rng):
        # A p = D p with D the bottom of sigma(A), M q = ||M|| q at the top
        # of sigma(M), F = p q*: then T = sqrt(D ||M||)/(D - ||M||) p q*.
        ua = random_unitary(rng, 4, complex_field=True)
        um = random_unitary(rng, 3, complex_field=True)
        big_d, m_norm = 3.0, 1.2
        a = HermitianMatrix(ua @ np.diag([big_d, 4.0, 5.0, 8.0]) @ ua.conj().T)
        m = HermitianMatrix(um @ np.diag([m_norm, 0.7, 0.2]) @ um.conj().T)
        f = ua[:, :1] @ um[:, :1].conj().T
        t = solve_weak_spectral(WeakSylvesterProblem(a, m, f))
        coef = np.sqrt(big_d * m_norm) / (big_d - m_norm)
        np.testing.assert_allclose(t, coef * f, atol=1e-12)

    def test_satisfies_weak_equation(self):
        for trial in range(40):
            rng = make_rng(trial)
            p = _random_dichotomous(rng, complex_field=bool(trial % 2))
            t = solve_weak_spectral(p)
            assert weak_residual(p, t) <= 1e-9 * max(op_norm(p.f), 1e-6)

    def test_near_resonance_rejected(self):
        with pytest.raises(ValueError, match="near-singular"):
            _problem([1.0, 2.0], [2.0 + 1e-12], [[0.0], [0.0]])

    def test_huge_spectra_not_near_singular(self):
        # eigenvalue products past the float range once read as a zero gap
        assert _problem([4e160], [1e160], [[1.0]]).gap == pytest.approx(1.5, rel=1e-15)

    def test_near_resonance_names_the_closest_pair(self):
        gap = relative_gap([1.0, 2.0], [2.0 + 1e-12])
        expected = (f"near-singular problem: eigenvalue {2.0:.12e} of A and "
                    f"{2.0 + 1e-12:.12e} of M have relative gap {gap:.3e} < 1e-10")
        with pytest.raises(ValueError) as exc:
            _problem([1.0, 2.0], [2.0 + 1e-12], [[0.0], [0.0]])
        assert str(exc.value) == expected

    def test_gap_is_the_relative_gap(self):
        for trial in range(6):
            p = _random_dichotomous(make_rng(trial), complex_field=bool(trial % 2))
            assert type(p.gap) is float
            assert p.gap == relative_gap(p.dec_a.eigenvalues, p.dec_m.eigenvalues)


class TestWeakResidual:
    def test_zero_candidate(self, rng):
        p = _random_dichotomous(rng)
        assert weak_residual(p, np.zeros_like(p.f)) == pytest.approx(op_norm(p.f))

    def test_rejects_wrong_shape(self):
        p = _problem([4.0, 5.0], [1.0, 2.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match=re.escape("T must have shape (2, 2), got (3, 2)")):
            weak_residual(p, np.ones((3, 2)))

    def test_grows_with_perturbation(self, rng):
        p = _random_dichotomous(rng, n_a=5, n_m=4)
        t = solve_weak_spectral(p)
        e = rng.standard_normal(t.shape)
        e /= op_norm(e)
        base = weak_residual(p, t)
        prev = base
        for delta in (1e-6, 1e-4, 1e-2, 1.0):
            cur = weak_residual(p, t + delta * e)
            assert cur > prev
            prev = cur

    def test_unique_zero(self):
        # adding any nonzero matrix raises the residual above solver level
        for trial in range(20):
            rng = make_rng(500 + trial)
            p = _random_dichotomous(rng, n_a=4, n_m=4)
            t = solve_weak_spectral(p)
            e = rng.standard_normal(t.shape)
            assert weak_residual(p, t + e) > 1e-3 * op_norm(e)


class TestQuadratureSolver:
    def test_scalar(self):
        p = _problem([4.0], [1.0], [[1.0]])
        t = solve_weak_quadrature(p, d=2.5, tol=1e-10)
        np.testing.assert_allclose(t, [[2.0 / 3.0]], atol=1e-9)

    def test_zero_rhs(self):
        p = _problem([4.0, 6.0], [1.0], [[0.0], [0.0]])
        for d in (1.5, 3.5):
            np.testing.assert_allclose(solve_weak_quadrature(p, d=d), 0.0, atol=1e-12)

    def test_matches_spectral_8x8(self, rng):
        p = _random_dichotomous(rng, n_a=8, n_m=8, complex_field=True)
        t_spec = solve_weak_spectral(p)
        t_quad = solve_weak_quadrature(p, tol=1e-10)
        assert np.max(np.abs(t_spec - t_quad)) <= 1e-8

    def test_d_independence(self, rng):
        p = _random_dichotomous(rng, n_a=5, n_m=4)
        m_norm, big_d = p.dichotomy_interval
        tol = 1e-10
        d1 = m_norm + 0.25 * (big_d - m_norm)
        d2 = m_norm + 0.75 * (big_d - m_norm)
        t1 = solve_weak_quadrature(p, d=d1, tol=tol)
        t2 = solve_weak_quadrature(p, d=d2, tol=tol)
        assert np.max(np.abs(t1 - t2)) <= 2 * tol

    def test_d_outside_interval_rejected(self):
        p = _problem([4.0], [1.0], [[1.0]])
        with pytest.raises(ValueError, match="dichotomy"):
            solve_weak_quadrature(p, d=0.5)
        with pytest.raises(ValueError, match="dichotomy"):
            solve_weak_quadrature(p, d=4.5)

    def test_budget_exhaustion_reports_residual(self, monkeypatch):
        # a kink needs more than two panels at 1e-14
        monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
        with pytest.raises(ConvergenceError, match="within 2 panels; achieved residual"):
            integrate_adaptive(lambda s: np.abs(s - 0.3)[:, None, None], 0.0, 1.0, tol=1e-14)

    @pytest.mark.parametrize("integrand", [np.cos, lambda s: np.abs(s - 0.3)],
                             ids=["smooth", "kink"])
    def test_tol_below_rounding_fails_fast(self, integrand):
        # no panel count resolves an integral of size 1 to 1e-300: the search
        # stops once its worst panel is resolved to rounding, long before the
        # MAX_PANELS budget
        calls = []

        def f(s):
            calls.append(s)
            return integrand(s)[:, None, None]

        with pytest.raises(ConvergenceError,
                           match="did not reach tol=1.000e-300: the worst of .* rounding"):
            integrate_adaptive(f, 0.0, 1.0, tol=1e-300)
        assert len(calls) < 200

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan])
    def test_bad_tol_rejected(self, tol):
        # an infinite tol accepted the first panel whatever its error
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_adaptive(lambda s: s[:, None, None], 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_weak_quadrature(_problem([4.0], [1.0], [[1.0]]), tol=tol)

    @staticmethod
    def _traced_solve(monkeypatch, p, tol=1e-10):
        """Solve by quadrature, recording the interval, the tolerance, the
        integrand and the number of nodes it was evaluated at."""
        seen = {"nodes": 0}

        def counting(f, a, b, tol):
            def g(s):
                seen["nodes"] += np.size(s)
                return f(s)
            seen.update(f=f, a=a, b=b, tol=tol)
            return integrate_adaptive(g, a, b, tol=tol)

        monkeypatch.setattr(sylvester_module, "integrate_adaptive", counting)
        return solve_weak_quadrature(p, tol=tol), seen

    def test_half_contour_on_real_data(self, rng, monkeypatch):
        p = _random_dichotomous(rng, n_a=8, n_m=8)
        t, seen = self._traced_solve(monkeypatch, p)
        assert (seen["a"], seen["b"]) == (0.0, np.pi / 2)
        assert not np.iscomplexobj(t)
        assert np.max(np.abs(t - solve_weak_spectral(p))) <= 1e-8
        # the full contour at the matching tolerance, for the node count
        full = {"nodes": 0}

        def g(s):
            full["nodes"] += np.size(s)
            return seen["f"](s)

        integrate_adaptive(g, -np.pi / 2, np.pi / 2, tol=2.0 * seen["tol"])
        assert seen["nodes"] <= (full["nodes"] + 15) / 2

    def test_complex_rhs_keeps_full_contour(self, rng, monkeypatch):
        p = _random_dichotomous(rng, n_a=8, n_m=8)
        f = p.f + 1j * rng.standard_normal(p.f.shape)
        p = WeakSylvesterProblem(p.a, p.m, f)
        assert not (np.iscomplexobj(p.a.mat) or np.iscomplexobj(p.m.mat))
        t, seen = self._traced_solve(monkeypatch, p)
        assert (seen["a"], seen["b"]) == (-np.pi / 2, np.pi / 2)
        assert np.max(np.abs(t - solve_weak_spectral(p))) <= 1e-8


class TestBounds:
    def test_dichotomy_example(self):
        p = _problem([4.0, 5.0], [1.0], [[1.0], [0.0]])
        b = sylvester_bounds(p)
        assert b.dichotomy_bound == pytest.approx(2.0 / 3.0)

    def test_dichotomy_sharp(self, rng):
        ua = random_unitary(rng, 3, complex_field=False)
        um = random_unitary(rng, 2, complex_field=False)
        a = HermitianMatrix(ua @ np.diag([4.0, 5.5, 7.0]) @ ua.T)
        m = HermitianMatrix(um @ np.diag([1.0, 0.3]) @ um.T)
        f = ua[:, :1] @ um[:, :1].T
        p = WeakSylvesterProblem(a, m, f)
        t = solve_weak_spectral(p)
        b = sylvester_bounds(p)
        assert abs(op_norm(t) - b.dichotomy_bound) <= 1e-12

    def test_dichotomy_violated_flagged(self):
        p = _problem([1.0, 4.0], [2.0], [[1.0], [1.0]])  # sigma(M) inside sigma(A) hull
        b = sylvester_bounds(p)
        assert b.dichotomy_bound is None
        assert any("dichotomy fails" in note for note in b.notes)
        assert b.gap > 0

    def test_hs_example(self):
        p = _problem([2.0, 8.0], [3.0], [[1.0], [1.0]])
        b = sylvester_bounds(p)
        assert b.gap == pytest.approx(1.0 / np.sqrt(6.0))
        assert b.hs_bound == pytest.approx(np.sqrt(2.0) * np.sqrt(6.0))
        t = solve_weak_spectral(p)
        assert hs_norm(t) == pytest.approx(np.sqrt(6.0 + 24.0 / 25.0), abs=1e-12)
        assert hs_norm(t) <= b.hs_bound

    def test_zero_rhs_bounds_vanish(self):
        p = _problem([4.0], [1.0], [[0.0]])
        b = sylvester_bounds(p)
        assert b.dichotomy_bound == b.hs_bound == 0.0

    def test_two_interval(self, rng):
        a = hermitian_from_spectrum(rng, [0.2, 0.4, 2.5, 3.5])
        m = hermitian_from_spectrum(rng, [0.9, 1.4])
        f = rng.standard_normal((4, 2))
        p = WeakSylvesterProblem(a, m, f)
        b = sylvester_bounds(p, d_minus=0.5, d_plus=2.0)
        coef = (np.sqrt(0.9 * 0.5) / (0.9 - 0.5)) + (np.sqrt(2.0 * 1.4) / (2.0 - 1.4))
        assert b.two_interval_bound == pytest.approx(coef * op_norm(f))
        t = solve_weak_spectral(p)
        assert op_norm(t) <= b.two_interval_bound

    def test_two_interval_bad_split_flagged(self, rng):
        a = hermitian_from_spectrum(rng, [0.2, 1.0, 3.0])
        m = hermitian_from_spectrum(rng, [0.5, 0.6])
        p = WeakSylvesterProblem(a, m, np.ones((3, 2)))
        b = sylvester_bounds(p, d_minus=0.4, d_plus=2.0)
        assert b.two_interval_bound is None
        assert b.notes

    @pytest.mark.parametrize("d_minus, d_plus, note", [
        (2.0, 0.5, "need 0 < d_minus < d_plus"),
        (1.0, 2.0, "d_minus=1.0 not below min sigma(M)"),
        (0.5, 1.2, "not below d_plus=1.2"),
    ], ids=["order", "d_minus", "d_plus"])
    def test_two_interval_hypothesis_notes(self, d_minus, d_plus, note):
        p = _problem([0.2, 3.0], [0.9, 1.4], np.ones((2, 2)))
        b = sylvester_bounds(p, d_minus=d_minus, d_plus=d_plus)
        assert b.two_interval_bound is None
        assert any(note in n for n in b.notes), b.notes

    def test_two_interval_one_sided_still_bounded(self):
        # sigma(A) above d_plus only: the formula still applies, with a note
        p = _problem([2.5, 3.5], [0.9, 1.4], np.ones((2, 2)))
        b = sylvester_bounds(p, d_minus=0.5, d_plus=2.0)
        assert b.notes == ("sigma(A) lies on one side only",)
        assert b.two_interval_bound is not None
        assert op_norm(solve_weak_spectral(p)) <= b.two_interval_bound

    def test_one_call_holds_every_checkable_bound(self, monkeypatch):
        p = _problem([2.5, 3.5], [0.9, 1.4], np.ones((2, 2)))
        norms = []
        monkeypatch.setattr(sylvester_module, "op_norm",
                            lambda a: norms.append(a) or op_norm(a))
        plain = sylvester_bounds(p)
        assert plain.two_interval_bound is None and plain.notes == ()
        assert None not in (plain.dichotomy_bound, plain.hs_bound)
        split = sylvester_bounds(p, d_minus=0.5, d_plus=2.0)
        assert None not in (split.dichotomy_bound, split.two_interval_bound, split.hs_bound)
        assert (split.dichotomy_bound, split.hs_bound) == (plain.dichotomy_bound, plain.hs_bound)
        assert len(norms) == 2  # ||F|| once per call, shared by both operator-norm bounds

    @pytest.mark.parametrize("split", [{"d_minus": 0.5}, {"d_plus": 2.0}])
    def test_two_interval_needs_both_ends(self, split):
        p = _problem([2.5, 3.5], [0.9, 1.4], np.ones((2, 2)))
        with pytest.raises(ValueError, match="needs both d_minus and d_plus"):
            sylvester_bounds(p, **split)

    def test_bound_validity_randomized(self):
        # dichotomy and hs bounds dominate the solved instance, 60 trials each
        for trial in range(60):
            rng = make_rng(700 + trial)
            p = _random_dichotomous(rng, complex_field=bool(trial % 2))
            t = solve_weak_spectral(p)
            b = sylvester_bounds(p)
            assert op_norm(t) <= b.dichotomy_bound + 1e-12
            assert hs_norm(t) <= b.hs_bound + 1e-12


class TestProblemValidation:
    def test_requires_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            _problem([4.0, 0.0], [1.0], [[1.0], [1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            _problem([4.0], [1.0], [[1.0], [2.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quadrature_rejects_nonfinite_integrand(value):
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_adaptive(lambda s: np.full((s.size, 1, 1), value), 0.0, 1.0, tol=1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [0, 7, 14])
def test_quadrature_rejects_one_nonfinite_node(value, node):
    def f(s):
        vals = np.cos(s)[:, None, None] * np.ones((1, 2, 2))
        vals[node, 1, 0] = value
        return vals

    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_adaptive(f, 0.0, 1.0, tol=1e-10)


def _reference_panel(f, a, b):
    """The per-node Kronrod panel: one scalar call of ``f`` per node."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = [np.asarray(f(mid + half * x)) for x in quadrature._NODES]
    k15 = half * sum(w * v for w, v in zip(quadrature._W_KRONROD, vals))
    if not np.all(np.isfinite(k15)):
        raise ConvergenceError(f"integrand is not finite on the panel [{a:.6g}, {b:.6g}]")
    g7 = half * sum(w * v for w, v in zip(quadrature._W_GAUSS, vals))
    err = float(np.max(np.abs(k15 - g7))) if k15.size else 0.0
    return k15, err


def test_batched_panel_matches_per_node_reference(monkeypatch):
    # a matrix-valued integrand with a sharp peak, so that many panels are needed
    rng = make_rng(31)
    v = random_unitary(rng, 4, complex_field=True)
    lam = np.array([0.5, 1.0, 2.0, 7.0])
    c = rng.standard_normal((4, 4))

    def node(x):
        return (v * np.exp(-x * lam)) @ v.conj().T @ c / (1e-3 + (x - 0.3) ** 2)

    def stacked(s):
        x = s[:, None, None]
        return (v * np.exp(-x * lam)) @ v.conj().T @ c / (1e-3 + (x - 0.3) ** 2)

    calls = {"batched": 0, "reference": 0}

    def counted(f, key):
        def g(*args):
            calls[key] += 1
            return f(*args)
        return g

    val, err = integrate_adaptive(counted(stacked, "batched"), 0.0, 2.0, tol=1e-11)
    monkeypatch.setattr(quadrature, "_panel", counted(_reference_panel, "reference"))
    ref_val, ref_err = integrate_adaptive(node, 0.0, 2.0, tol=1e-11)
    assert calls["batched"] == calls["reference"] > 20
    scale = np.max(np.abs(ref_val))
    assert np.max(np.abs(val - ref_val)) <= 1e-13 * scale
    assert abs(err - ref_err) <= 1e-13 * scale
