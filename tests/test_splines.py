
import numpy as np
import pytest

from relgap import harness, splines
from relgap.splines import (
    PiecewisePoly,
    cubic_spline_clamped,
    cubic_spline_not_a_knot,
    derivative,
    l2_gram,
    modal_coefficients,
    piecewise_linear,
)

from conftest import pairwise_l2_inner, per_piece_modal


def _eval_deriv(pp, t, order=1):
    out = pp
    for _ in range(order):
        out = derivative(out)
    return out(t)


def _bypart_modal_oracle(pp: PiecewisePoly, freq: float) -> complex:
    """Closed-form \\int p(t) e^{i f t} dt via repeated integration by parts,
    one polynomial piece at a time."""
    total = 0.0 + 0.0j
    s = 1j * freq
    for j in range(pp.knots.size - 1):
        a, b = pp.knots[j], pp.knots[j + 1]
        coeffs = pp.coeffs[:, j]

        def poly_derivs(tau):
            vals = []
            c = coeffs
            while c.size:
                vals.append(sum(ci * tau ** i for i, ci in enumerate(c)))
                c = np.array([i * ci for i, ci in enumerate(c)][1:])
            return vals

        if freq == 0.0:
            total += sum(ci / (i + 1) * ((b - a) ** (i + 1)) for i, ci in enumerate(coeffs))
            continue
        upper = sum((-1) ** r * d / s ** (r + 1) for r, d in enumerate(poly_derivs(b - a)))
        lower = sum((-1) ** r * d / s ** (r + 1) for r, d in enumerate(poly_derivs(0.0)))
        total += np.exp(s * b) * upper - np.exp(s * a) * lower
    return total


def _interpolant(interp: str, x, y, d_first, d_last) -> PiecewisePoly:
    if interp == "linear":
        return piecewise_linear(x, y)
    if interp == "not-a-knot":
        return cubic_spline_not_a_knot(x, y)
    return cubic_spline_clamped(x, y, d_first, d_last)


class TestNotAKnot:
    def test_interpolates(self, rng):
        x = np.linspace(0, 3, 7)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        for pp in (cubic_spline_not_a_knot(x, y), cubic_spline_clamped(x, y, 0.5j, -2.0)):
            np.testing.assert_allclose(pp(x), y, atol=1e-12)

    def test_c2_continuity(self, rng):
        x = np.linspace(0, 2, 9)
        y = rng.standard_normal(9)
        for pp in (cubic_spline_not_a_knot(x, y), cubic_spline_clamped(x, y, 1.5, -0.5)):
            for knot in x[1:-1]:
                left = knot - 1e-12
                for order in (0, 1, 2):
                    assert _eval_deriv(pp, np.array([left]), order)[0] == pytest.approx(
                        _eval_deriv(pp, np.array([knot]), order)[0], abs=1e-6)

    def test_reproduces_cubics(self):
        x = np.linspace(-1, 2, 6)
        poly = lambda t: 2.0 - t + 0.5 * t ** 2 - 0.25 * t ** 3
        pp = cubic_spline_not_a_knot(x, poly(x))
        t = np.linspace(-1, 2, 101)
        np.testing.assert_allclose(pp(t), poly(t), atol=1e-12)

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 points"):
            cubic_spline_not_a_knot([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])

    def test_fourth_order_convergence(self):
        f = lambda t: np.sin(3.0 * t)
        errs = []
        for n in (10, 20, 40):
            x = np.linspace(0, 1, n)
            pp = cubic_spline_not_a_knot(x, f(x))
            t = np.linspace(0, 1, 1001)
            errs.append(np.max(np.abs(pp(t) - f(t))))
        assert errs[0] / errs[1] > 10
        assert errs[1] / errs[2] > 10


class TestClamped:
    def test_interpolates_with_derivatives(self, rng):
        x = np.linspace(0, 2 * np.pi, 8)
        nu = 1.7
        y = np.exp(-1j * nu * x)
        pp = cubic_spline_clamped(x, y, -1j * nu, -1j * nu * np.exp(-1j * nu * 2 * np.pi))
        np.testing.assert_allclose(pp(x), y, atol=1e-12)
        d = derivative(pp)
        assert d(np.array([0.0]))[0] == pytest.approx(-1j * nu, abs=1e-12)

    def test_reproduces_cubics(self):
        x = np.linspace(0, 1, 5)
        poly = lambda t: 1.0 + t - t ** 3
        dpoly = lambda t: 1.0 - 3 * t ** 2
        pp = cubic_spline_clamped(x, poly(x), dpoly(0.0), dpoly(1.0))
        t = np.linspace(0, 1, 101)
        np.testing.assert_allclose(pp(t), poly(t), atol=1e-13)


class TestPiecewiseLinear:
    def test_interpolates(self, rng):
        x = np.array([0.0, 0.5, 2.0])
        y = rng.standard_normal(3)
        pp = piecewise_linear(x, y)
        np.testing.assert_allclose(pp(x), y)
        assert pp(np.array([0.25]))[0] == pytest.approx(0.5 * (y[0] + y[1]))

    def test_bad_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            piecewise_linear([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("interp", ["linear", "not-a-knot", "clamped"])
def test_non_finite_input_rejected(interp, value):
    x, y = np.linspace(0.0, 1.0, 5), np.ones(5)
    bad_knots, bad_values = x.copy(), y.copy()
    bad_knots[-1] = value
    bad_values[2] = value
    cases = [(bad_knots, y, 0.0), (x, bad_values, 0.0)]
    if interp == "clamped":
        cases.append((x, y, value))
    for knots, values, d_first in cases:
        with pytest.raises(ValueError, match="finite"):
            _interpolant(interp, knots, values, d_first, 0.0)


MODAL_KS = np.array([0, 1, -1, 2, 17, -64, 320, -320])
MODAL_SHIFTS = (0.0, 1e-9, -1e-9, 1e-6, 1e-4, 1e-2, 0.5)


def _gl_modal_reference(pp: PiecewisePoly, freqs) -> np.ndarray:
    """int p(t) e^{i f t} dt by 30-point Gauss-Legendre on each piece, exact
    to rounding while the phase advance per piece stays below about 40."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(30)
    half = 0.5 * np.diff(pp.knots)[:, None]
    t = (pp.knots[:-1, None] + half * (gl_x + 1.0)).ravel()
    w = (half * gl_w).ravel()
    return np.exp(1j * np.outer(freqs, t)) @ (pp(t) * w)


class TestModalCoefficients:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("interp", ["linear", "not-a-knot", "clamped"])
    def test_matches_by_parts_oracle(self, interp, field):
        # 7 and 128 equal pieces of [0, 2 pi]: |(k + shift) h| falls on both
        # sides of the Taylor/recurrence switch at 1, and up to ~290 radians
        # per piece on the coarse grid; the Gauss-Legendre reference is used
        # where the phase advance per piece stays below 40 radians
        nu = 1.3 if field == "real" else -1.3 + 0.4j
        f, df = (lambda t: np.cos(nu * t) + 0.5 * t), (lambda t: -nu * np.sin(nu * t) + 0.5)
        for pieces in (7, 128):
            x = np.linspace(0, 2 * np.pi, pieces + 1)
            pp = _interpolant(interp, x, f(x), df(x[0]), df(x[-1]))
            assert np.iscomplexobj(pp.coeffs) == (field == "complex")
            for shift in MODAL_SHIFTS:
                freqs = MODAL_KS + shift
                got = modal_coefficients([pp], MODAL_KS, shift)[0]
                resolved = np.abs(freqs) * (x[1] - x[0]) <= 40.0
                np.testing.assert_allclose(got[resolved], _gl_modal_reference(pp, freqs[resolved]),
                                           rtol=1e-12, atol=1e-12)
                high = np.abs(freqs) >= 0.5
                want = np.array([_bypart_modal_oracle(pp, fr) for fr in freqs[high]])
                np.testing.assert_allclose(got[high], want, rtol=1e-12, atol=1e-12)

    def test_constant_function_dc_only(self):
        x = np.linspace(0, 2 * np.pi, 7)
        pp = piecewise_linear(x, np.ones(7))
        got = modal_coefficients([pp], [0, 1, 2], 0.0)[0]
        assert got[0] == pytest.approx(2 * np.pi)
        np.testing.assert_allclose(got[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("ks", [[0, 0.5], [0.0, 1.0], [[0, 1]], [1 + 0j]],
                             ids=["half", "integral-float", "2-d", "complex"])
    def test_non_integer_ks_rejected(self, ks):
        pp = piecewise_linear(np.linspace(0, 2 * np.pi, 5), np.ones(5))
        with pytest.raises(ValueError, match="ks must be a 1-d array of integers"):
            modal_coefficients([pp], ks, 0.0)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, shift):
        pp = piecewise_linear(np.linspace(0, 2 * np.pi, 5), np.ones(5))
        with pytest.raises(ValueError, match="shift must be finite"):
            modal_coefficients([pp], [0, 1], shift)

    def test_other_grids_rejected(self, rng):
        # the sum over pieces is a DFT only on the knots linspace(0, 2 pi, J + 1)
        even = np.linspace(0.0, 2 * np.pi, 9)
        jittered = even.copy()
        jittered[1:-1] += rng.uniform(-0.2, 0.2, 7) * (even[1] - even[0])
        for x in (jittered, np.linspace(0.0, 1.0, 9)):
            pp = cubic_spline_not_a_knot(x, np.sin(x))
            with pytest.raises(ValueError, match=r"linspace\(0, 2 pi, J \+ 1\)"):
                modal_coefficients([pp], [0, 1], 0.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _functions(stack: PiecewisePoly) -> list[PiecewisePoly]:
    """The functions of a stack, one ``PiecewisePoly`` each."""
    return [PiecewisePoly(knots=stack.knots, coeffs=stack.coeffs[:, i])
            for i in range(stack.coeffs.shape[1])]


def _stack_samples(field, x, rng, count=3):
    """``count`` smooth functions sampled on ``x`` and their end derivatives."""
    nu = rng.uniform(-3.0, 3.0, count)
    if field == "complex":
        f, df = (lambda t: np.exp(-1j * nu * t)), (lambda t: -1j * nu * np.exp(-1j * nu * t))
    else:
        f, df = (lambda t: np.cos(nu * t)), (lambda t: -nu * np.sin(nu * t))
    return f(x[:, None]).T, df(x[0]), df(x[-1])


class TestStack:
    """A stack built from ``(count, N)`` samples is, function by function, what
    each function's own build gives; evaluation, derivatives, Gram matrices and
    modal expansions of a stack agree with those of its functions."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("interp", ["linear", "not-a-knot", "clamped"])
    @pytest.mark.parametrize("npts", [4, 5, 9, 33, 64, 100, 140])
    def test_stack_build_matches_per_function(self, rng, interp, field, npts):
        x = np.linspace(0.0, 2 * np.pi, npts)
        y, d_first, d_last = _stack_samples(field, x, rng)
        stack = _interpolant(interp, x, y, d_first, d_last)
        assert stack.coeffs.shape == (stack.degree + 1, y.shape[0], npts - 1)
        for i, got in enumerate(_functions(stack)):
            want = _interpolant(interp, x, y[i], d_first[i], d_last[i])
            if npts <= 64 and (field == "complex" or interp == "linear"):
                assert _same_bits(got.coeffs, want.coeffs)
                continue
            # LAPACK's solve with several right-hand sides may differ from one
            # right-hand side in the last bits (real data, or grids past 64
            # points): both are backward stable, so the solution (the knot
            # second derivatives) and the values agree to a few ulps of their
            # size (at most 11 over 300 seeds)
            assert got.coeffs.dtype == want.coeffs.dtype
            t = np.linspace(0.0, 2 * np.pi, 1001)
            for a, b in ((got.coeffs[-2], want.coeffs[-2]), (got(t), want(t))):
                assert np.abs(a - b).max() <= 32 * np.finfo(float).eps * np.abs(b).max()

    @pytest.mark.parametrize("interp", ["linear", "not-a-knot", "clamped"])
    def test_stack_operations_match_per_function(self, rng, interp):
        x = np.linspace(0.0, 2 * np.pi, 12)
        y, d_first, d_last = _stack_samples("complex", x, rng)
        stack = _interpolant(interp, x, y, d_first, d_last)
        funcs = _functions(stack)
        t = np.linspace(-0.5, 7.0, 41)
        values = stack(t)
        assert values.shape == (len(funcs),) + t.shape
        dstack = derivative(stack)
        for i, pp in enumerate(funcs):
            assert _same_bits(values[i], pp(t))
            assert _same_bits(dstack.coeffs[:, i], derivative(pp).coeffs)
        # a stack enters a Gram matrix or a modal expansion as its functions do
        dfuncs = _functions(dstack)
        assert _same_bits(l2_gram([stack, dstack]), l2_gram(funcs + dfuncs))
        assert _same_bits(l2_gram(stack), l2_gram(funcs))
        for ks, shift in ((MODAL_KS, 0.5), (TABLE_KS, TABLE_SHIFT)):
            assert _same_bits(modal_coefficients(stack, ks, shift),
                              modal_coefficients(funcs, ks, shift))

    def test_mismatched_samples_rejected(self):
        x = np.linspace(0.0, 1.0, 5)
        for y in (np.ones((2, 4)), np.ones((2, 2, 5))):
            with pytest.raises(ValueError, match="equal length"):
                piecewise_linear(x, y)


# the model of the paper's tables (scripts/run_tables.py)
TABLE_THETA, TABLE_ALPHA = np.pi - 1e-4, 0.2499
# the modes k = -320..320 of the linear table's model and its shift theta/2pi
TABLE_KS = harness.mathieu_model(TABLE_THETA, TABLE_ALPHA, 320).ks
TABLE_SHIFT = TABLE_THETA / (2 * np.pi)


def _close_to_per_piece(row, pp, ks, shift) -> bool:
    """Within 1e-13 of max|coef| of the moments evaluated piece by piece
    (the two routes sum the pieces in different orders)."""
    want = per_piece_modal(pp, ks + shift)
    return np.abs(row - want).max() <= 1e-13 * np.abs(want).max()


class TestModalBatch:
    """A batch on one grid gives, bit for bit, what each polynomial gives
    alone, and to rounding what the moments evaluated piece by piece give."""

    @pytest.mark.parametrize("grid", ["linspace", "coarse"])
    @pytest.mark.parametrize("batch", ["linear", "cubic", "mixed"])
    @pytest.mark.parametrize("freqs", ["modal", "table"])
    def test_batch_is_bitwise_per_polynomial(self, grid, batch, freqs):
        # 139 pieces, or 7, so that k mod J wraps many times over the table modes
        x = np.linspace(0.0, 2 * np.pi, {"linspace": 140, "coarse": 8}[grid])
        cases = ([(MODAL_KS, shift) for shift in MODAL_SHIFTS] if freqs == "modal"
                 else [(TABLE_KS, TABLE_SHIFT)])
        y = [np.exp(-1j * nu * x) for nu in (0.49998, -0.50002, 2.3)]
        linear = [piecewise_linear(x, v) for v in y]
        cubic = [cubic_spline_not_a_knot(x, v) for v in y]
        pps = {"linear": linear, "cubic": cubic,
               "mixed": [linear[0], cubic[1], derivative(cubic[2]), linear[2]]}[batch]
        for ks, shift in cases:
            got = modal_coefficients(pps, ks, shift)
            assert got.shape == (len(pps), ks.size)
            for row, pp in zip(got, pps):
                assert _same_bits(row, modal_coefficients([pp], ks, shift)[0])
                assert _close_to_per_piece(row, pp, ks, shift)

    def test_moments_once_per_call(self, monkeypatch):
        model = harness.mathieu_model(TABLE_THETA, TABLE_ALPHA, 320)
        sizes = []
        moments = splines._moments
        monkeypatch.setattr(splines, "_moments", lambda z, degree: sizes.append(z.size)
                            or moments(z, degree))
        harness.build_test_space(model, harness.trial_functions(model, 140, "linear"))
        assert sizes == [model.ks.size]

    @pytest.mark.parametrize("trunc, interp, ns", [(320, "linear", (100, 120, 140)),
                                                   (64, "cubic", range(5, 11))])
    def test_tables_match_per_piece(self, monkeypatch, trunc, interp, ns):
        # every modal expansion the paper's tables make, checked as it is made
        model = harness.mathieu_model(TABLE_THETA, TABLE_ALPHA, trunc)
        checked = []

        def checked_modal(stack, ks, shift):
            got = modal_coefficients(stack, ks, shift)
            assert got.shape == (len(harness.TARGETS), ks.size)
            checked.extend(_close_to_per_piece(row, pp, ks, shift)
                           for row, pp in zip(got, _functions(stack)))
            return got

        monkeypatch.setattr(harness, "modal_coefficients", checked_modal)
        harness.run_benchmark(model, ns, interp)
        assert len(checked) >= 2 * len(ns) and all(checked)


def test_moments_taylor_branch_matches_polyval():
    # |z| <= 1 takes the Taylor series sum_n z^n / (n! (n + r + 1)); a power
    # table product must agree with numpy's polyval on the same coefficients
    z = np.array([0.0, 1j, -1j, 1.0, -1.0, 0.5j, -0.3 + 0.4j, 0.999j, 1e-12j, 0.7 - 0.7j])
    n = np.arange(20.0)[:, None]
    for degree in (0, 1, 3):
        taylor = (1.0 / np.cumprod(np.maximum(n, 1.0))[:, None]) / (n + np.arange(1.0, degree + 2))
        want = np.polynomial.polynomial.polyval(z, taylor)
        got = splines._moments(z, degree)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestMassAndInner:
    def test_l2_mass_vs_dense(self, rng):
        x = np.linspace(0, 1, 6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        pp = cubic_spline_not_a_knot(x, y)
        t = np.linspace(0, 1, 200001)
        dense = np.trapezoid(np.abs(pp(t)) ** 2, t)
        gram = l2_gram([pp, derivative(pp)])
        assert gram[0, 0].real == pytest.approx(dense, rel=1e-8)
        assert gram[0, 0].imag == pytest.approx(0.0, abs=1e-14 * dense)

    def test_h1_mass_vs_dense(self, rng):
        x = np.linspace(0, 1, 6)
        y = rng.standard_normal(6)
        pp = cubic_spline_not_a_knot(x, y)
        t = np.linspace(0, 1, 200001)
        dense = np.trapezoid(derivative(pp)(t) ** 2, t)
        assert l2_gram([pp, derivative(pp)])[1, 1] == pytest.approx(dense, rel=1e-8)

    def test_inner_is_hermitian(self, rng):
        x = np.linspace(0, 1, 5)
        pa = cubic_spline_not_a_knot(x, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        pb = cubic_spline_not_a_knot(x, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        gram = l2_gram([pa, pb, derivative(pa)])
        np.testing.assert_allclose(gram, gram.conj().T, rtol=1e-14, atol=1e-14)
        assert l2_gram([pa])[0, 0] == pytest.approx(gram[0, 0], rel=1e-14)

    def test_off_diagonal_matches_pairwise_rule(self, rng):
        x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 5)]))
        pps = [cubic_spline_clamped(x, rng.standard_normal(7) + 1j * rng.standard_normal(7),
                                    1.0 - 2.0j, 0.5j),
               piecewise_linear(x, rng.standard_normal(7)),
               cubic_spline_not_a_knot(x, rng.standard_normal(7) + 1j * rng.standard_normal(7))]
        pps.append(derivative(pps[0]))
        gram = l2_gram(pps)
        want = np.array([[pairwise_l2_inner(pa, pb) for pb in pps] for pa in pps])
        np.testing.assert_allclose(gram, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_mismatched_grids_rejected(self, rng):
        pa = piecewise_linear([0.0, 1.0], [1.0, 2.0])
        pb = piecewise_linear([0.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="knot grid"):
            l2_gram([pa, pb])
        with pytest.raises(ValueError, match="knot grid"):
            l2_gram([pa, pa, pb])

    def test_nearly_equal_grids_rejected(self):
        # a grid that differs by 1e-9 is a different grid: nothing would be
        # integrated on the one it was built for
        x = np.linspace(0.0, 1.0, 6)
        moved = x.copy()
        moved[3] += 1e-9
        pa = cubic_spline_not_a_knot(x, np.sin(x))
        pb = cubic_spline_not_a_knot(moved, np.sin(moved))
        with pytest.raises(ValueError, match="share one knot grid"):
            l2_gram([pa, pb])
        with pytest.raises(ValueError, match="share one knot grid"):
            l2_gram([cubic_spline_not_a_knot(x, np.stack([np.sin(x), np.cos(x)])), pb])
        with pytest.raises(ValueError, match="share one knot grid"):
            modal_coefficients([pa, pb], [0, 1], 0.0)
