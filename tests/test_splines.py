import numpy as np
import pytest

from relgap.splines import (
    PiecewisePoly,
    combine,
    cubic_spline_clamped,
    cubic_spline_not_a_knot,
    derivative,
    h1_mass,
    l2_inner,
    l2_mass,
    modal_coefficients,
    piecewise_linear,
)



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


MODAL_FREQS = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2,
                        0.5, 17.0, 64.5, 320.5])


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
    def test_matches_by_parts_oracle(self, rng, interp, field):
        # uneven pieces of [0, 2 pi]: |f h| falls on both sides of the
        # Taylor/recurrence switch at 1, and up to ~400 radians per piece on
        # the coarse grid; the Gauss-Legendre reference is used where the
        # phase advance per piece stays below 40 radians
        nu = 1.3 if field == "real" else -1.3 + 0.4j
        f, df = (lambda t: np.cos(nu * t) + 0.5 * t), (lambda t: -nu * np.sin(nu * t) + 0.5)
        for pieces in (7, 128):
            x = np.linspace(0, 2 * np.pi, pieces + 1)
            x[1:-1] += rng.uniform(-0.2, 0.2, pieces - 1) * (x[1] - x[0])
            pp = _interpolant(interp, x, f(x), df(x[0]), df(x[-1]))
            assert np.iscomplexobj(pp.coeffs) == (field == "complex")
            got = modal_coefficients(pp, MODAL_FREQS)
            resolved = np.abs(MODAL_FREQS) * np.max(np.diff(x)) <= 40.0
            np.testing.assert_allclose(got[resolved], _gl_modal_reference(pp, MODAL_FREQS[resolved]),
                                       rtol=1e-12, atol=1e-12)
            high = np.abs(MODAL_FREQS) >= 0.5
            want = np.array([_bypart_modal_oracle(pp, fr) for fr in MODAL_FREQS[high]])
            np.testing.assert_allclose(got[high], want, rtol=1e-12, atol=1e-12)

    def test_constant_function_dc_only(self):
        x = np.linspace(0, 2 * np.pi, 7)
        pp = piecewise_linear(x, np.ones(7))
        got = modal_coefficients(pp, np.array([0.0, 1.0, 2.0]))
        assert got[0] == pytest.approx(2 * np.pi)
        np.testing.assert_allclose(got[1:], 0.0, atol=1e-12)


class TestMassAndInner:
    def test_l2_mass_vs_dense(self, rng):
        x = np.linspace(0, 1, 6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        pp = cubic_spline_not_a_knot(x, y)
        t = np.linspace(0, 1, 200001)
        dense = np.trapezoid(np.abs(pp(t)) ** 2, t)
        assert l2_mass(pp) == pytest.approx(dense, rel=1e-8)

    def test_h1_mass_vs_dense(self, rng):
        x = np.linspace(0, 1, 6)
        y = rng.standard_normal(6)
        pp = cubic_spline_not_a_knot(x, y)
        t = np.linspace(0, 1, 200001)
        dense = np.trapezoid(derivative(pp)(t) ** 2, t)
        assert h1_mass(pp) == pytest.approx(dense, rel=1e-8)

    def test_inner_is_hermitian(self, rng):
        x = np.linspace(0, 1, 5)
        pa = cubic_spline_not_a_knot(x, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        pb = cubic_spline_not_a_knot(x, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert l2_inner(pa, pb) == pytest.approx(np.conj(l2_inner(pb, pa)))
        assert l2_inner(pa, pa).real == pytest.approx(l2_mass(pa))

    def test_combine(self, rng):
        x = np.linspace(0, 1, 5)
        pa = cubic_spline_not_a_knot(x, rng.standard_normal(5))
        pb = piecewise_linear(x, rng.standard_normal(5))
        out = combine(pa, 2.0, pb, -3.0)
        t = np.linspace(0, 1, 37)
        np.testing.assert_allclose(out(t), 2.0 * pa(t) - 3.0 * pb(t), atol=1e-13)

    def test_mismatched_grids_rejected(self, rng):
        pa = piecewise_linear([0.0, 1.0], [1.0, 2.0])
        pb = piecewise_linear([0.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="knot grid"):
            l2_inner(pa, pb)
