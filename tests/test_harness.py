import importlib
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from relgap import harness, splines
from relgap.harness import (
    TruncationWarning,
    build_test_space,
    mathieu_model,
    residual_competitor,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
    trial_functions,
)
from relgap.matcore import HermitianMatrix, Projection, eig_herm, fractional_power
from relgap.ritz import dk_bound_from_gram, ritz_bounds
from relgap.splines import (
    PiecewisePoly,
    cubic_spline_clamped,
    cubic_spline_not_a_knot,
    derivative,
    l2_gram,
    modal_coefficients,
)

from conftest import pairwise_l2_inner

THETA = np.pi - 1e-4
ALPHA = 0.2499


@pytest.fixture(scope="module")
def model64():
    return mathieu_model(THETA, ALPHA, 64)


def _space(model, n_points, interp):
    return build_test_space(model, trial_functions(model, n_points, interp))


class TestMathieuModel:
    def test_half_integer_phase(self):
        model = mathieu_model(np.pi, 0.0, 3)
        lam = model.h.decomposition.eigenvalues
        np.testing.assert_allclose(lam[:3], [0.25, 0.25, 2.25])

    def test_reference_eigenvalues(self, model64):
        lam = model64.h.decomposition.eigenvalues
        for got, want in zip(lam[:3], (8.4084e-5, 1.15916e-4, 2.0000523)):
            assert abs(got - want) / want < 1e-4  # quoted to few digits
        # the first three states are the k = 0, -1, +1 modes
        order = np.argsort(model64.omegas)
        np.testing.assert_array_equal(model64.ks[order[:3]], [0, -1, 1])

    def test_eigenvalue_formula_bitwise(self, model64):
        recomputed = (model64.ks + model64.theta / (2 * np.pi)) ** 2 - model64.alpha
        np.testing.assert_array_equal(recomputed, model64.omegas)

    def test_coordinate_matrix_is_identity(self, model64):
        h = model64.h
        np.testing.assert_array_equal(h.mat, np.diag(model64.omegas))

    def test_omegas_read_only(self, model64):
        # model.h is built once, so a write into omegas would leave it stale
        with pytest.raises(ValueError, match="read-only"):
            model64.omegas[0] = 1.0

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            mathieu_model(np.pi, 0.3, 4)  # alpha above (theta/2pi)^2 = 0.25

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta"):
            mathieu_model(7.0, 0.0, 4)
        with pytest.raises(ValueError, match=">= 2"):
            mathieu_model(np.pi, 0.0, 1)

    @pytest.mark.parametrize("trunc", [np.pi - 1e-4, 64.0, np.nan, "64"])
    def test_non_integral_truncation_rejected(self, trunc):
        # np.arange would turn pi - 1e-4 into the asymmetric modes -2..3 and fail
        # on NaN; the modal expansion needs integer modes
        with pytest.raises(ValueError, match="truncation order must be an integer"):
            mathieu_model(np.pi, 0.2, trunc)

    def test_numpy_integer_truncation_accepted(self):
        model = mathieu_model(np.pi, 0.2, np.int64(4))
        np.testing.assert_array_equal(model.ks, np.arange(-4, 5))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN slips past the positive-definiteness test, -inf passes it
        with pytest.raises(ValueError, match="alpha must be finite"):
            mathieu_model(np.pi, alpha, 4)

    def test_eigenfunctions_quasi_periodic_and_normalized(self, model64):
        t = np.linspace(0, 2 * np.pi, 20001)
        z = model64.eigenfunction_samples(3, t)
        # value boundary condition tying the endpoints
        ratio = z[-1] / z[0]
        assert ratio == pytest.approx(np.exp(-1j * THETA))
        assert np.trapezoid(np.abs(z) ** 2, t) == pytest.approx(1.0, rel=1e-6)


class TestBuildTestSpace:
    def test_cubic_alignment_improves_with_n(self, model64):
        e0 = np.zeros(model64.omegas.size)
        e0[model64.trunc] = 1.0  # coordinate of mode k = 0
        # only the coarsest interpolants lose form energy to the truncation
        with pytest.warns(TruncationWarning) as caught:
            spaces = [_space(model64, 8, "cubic")]
        assert [str(w.message).split(":")[0] for w in caught] == ["mode 0, N=8", "mode -1, N=8"]
        spaces += [_space(model64, n, "cubic") for n in (16, 32)]
        errs = [np.linalg.norm(p.projector @ e0 - e0) for p in spaces]
        assert errs[0] > errs[1] > errs[2]

    def test_linear_small_n_is_valid_projection(self, model64):
        with pytest.warns(TruncationWarning) as caught:
            p = _space(model64, 4, "linear")
        assert [str(w.message).split(":")[0] for w in caught] == ["mode 0, N=4", "mode -1, N=4"]
        assert all("form energy" in str(w.message) for w in caught)
        assert p.rank == 2
        np.testing.assert_allclose(p.basis.conj().T @ p.basis, np.eye(2), atol=1e-12)

    def test_reference_space_rank_two(self, model64):
        with pytest.warns(TruncationWarning) as caught:
            p = _space(model64, 5, "cubic")
        assert p.rank == 2
        assert [str(w.message).split(":")[0] for w in caught] == ["mode 0, N=5", "mode -1, N=5"]

    def test_cubic_needs_four_points(self, model64):
        with pytest.raises(ValueError, match="at least 4 points"):
            trial_functions(model64, 3, "cubic")

    @pytest.mark.parametrize("interp, fewest", [("linear", 2), ("clamped", 3), ("cubic", 4)])
    def test_too_few_points_named(self, model64, interp, fewest):
        # the spline builder names the fewest points it takes, down to N = 0
        for n_points in range(fewest):
            with pytest.raises(ValueError, match=f"{interp}.* needs at least {fewest} points"):
                trial_functions(model64, n_points, interp)

    def test_clamped_three_points_rank_two(self, model64):
        # the clamped spline needs 3 points, not the not-a-knot spline's 4
        p = _space(model64, 3, "clamped")
        assert p.rank == 2
        np.testing.assert_allclose(p.basis.conj().T @ p.basis, np.eye(2), atol=1e-12)

    def test_unknown_interp(self, model64):
        with pytest.raises(ValueError, match="interp"):
            trial_functions(model64, 8, "quintic")

    def test_energy_truncation_warned(self):
        # a linear interpolant with N - 1 > K aliases all its interpolation
        # error outside the eigenbasis; the form-energy warning must fire
        model = mathieu_model(THETA, ALPHA, 8)
        with pytest.warns(TruncationWarning, match="form energy"):
            _space(model, 40, "linear")


class TestRunBenchmark:
    def test_invariant_targets_give_zero(self, model64):
        h = model64.h
        cols = np.zeros((model64.omegas.size, 2))
        cols[model64.trunc, 0] = 1.0      # mode 0
        cols[model64.trunc - 1, 1] = 1.0  # mode -1
        p = Projection(cols)
        lam = model64.h.decomposition.eigenvalues
        est = ritz_bounds(h, p, float(lam[2]), norm="hs")
        assert est.true_hs == pytest.approx(0.0, abs=1e-12)
        assert est.bound_hs == pytest.approx(0.0, abs=1e-10)

    def test_rows_monotone_and_crossover(self, model64):
        rows = run_benchmark(model64, range(5, 11), "cubic", norm="hs")
        trues = [r.true_err for r in rows]
        bounds = [r.ritz_bound for r in rows]
        dks = [r.dk_bound for r in rows]
        assert all(a > b for a, b in zip(trues, trues[1:]))
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert all(a > b for a, b in zip(dks, dks[1:]))
        for r in rows:
            if r.n_points >= 7:
                assert r.ritz_bound < r.dk_bound
            if r.hypothesis_ok:
                assert r.ritz_bound >= r.true_err

    def test_linear_rows_have_no_dk(self, model64):
        rows = run_benchmark(model64, [30], "linear", norm="hs")
        assert rows[0].dk_bound is None

    def test_residual_competitor_rejects_linear(self, model64):
        with pytest.raises(ValueError, match="outside the operator domain"):
            residual_competitor(model64, trial_functions(model64, 30, "linear"), 1.0)

    def test_empty_ns_rejected(self, model64):
        with pytest.raises(ValueError, match="at least one N"):
            run_benchmark(model64, [], "cubic")

    def test_truncation_stability_where_spectral(self):
        # doubling the truncation moves the exactly-representable quantities
        # by < 1e-8 relative for domain-respecting (clamped) trial spaces; the
        # eta-based bound carries an eps * cond(H) noise floor of ~1e-7 and is
        # checked against that instead
        vals = {}
        for trunc in (64, 128):
            model = mathieu_model(THETA, ALPHA, trunc)
            r = run_benchmark(model, [6], "clamped", norm="hs", with_dk=True)[0]
            vals[trunc] = r
        a, b = vals[64], vals[128]
        assert abs(a.true_err - b.true_err) / b.true_err < 1e-8
        assert a.dk_bound == pytest.approx(b.dk_bound, rel=1e-12)
        assert abs(a.ritz_bound - b.ritz_bound) / b.ritz_bound < 1e-5


def _one_interpolant(model, n_points, interp, k):
    """The cubic interpolant of mode k's eigenfunction, built on its own."""
    t = np.linspace(0.0, 2 * np.pi, n_points)
    samples = model.eigenfunction_samples(k, t)
    if interp == "cubic":
        return cubic_spline_not_a_knot(t, samples)
    nu = k + model.theta / (2 * np.pi)
    return cubic_spline_clamped(t, samples,
                                *(-1j * nu * model.eigenfunction_samples(k, [0.0, 2 * np.pi])))


def _pairwise_residual_competitor(model, n_points, next_ev, norm, interp):
    """Reference competitor: interpolants built one at a time, and every Gram
    entry from its own pairwise inner product."""
    phis = []
    for k in (0, -1):
        pp = _one_interpolant(model, n_points, interp, k)
        scale = 1.0 / np.sqrt(pairwise_l2_inner(pp, pp).real)
        phis.append(PiecewisePoly(knots=pp.knots, coeffs=pp.coeffs * scale))
    kdim = len(phis)
    derivs = [derivative(p) for p in phis]
    a_form = np.zeros((kdim, kdim), dtype=np.complex128)
    b_gram = np.zeros((kdim, kdim), dtype=np.complex128)
    for i in range(kdim):
        for j in range(kdim):
            a_form[i, j] = (pairwise_l2_inner(derivs[i], derivs[j])
                            - model.alpha * pairwise_l2_inner(phis[i], phis[j]))
            b_gram[i, j] = pairwise_l2_inner(phis[i], phis[j])
    b_ihalf = fractional_power(eig_herm(b_gram), -0.5).mat
    ritz_vals = np.linalg.eigvalsh(b_ihalf @ a_form @ b_ihalf)
    residuals = []
    for i, phi in enumerate(phis):
        rho = float(np.real(a_form[i, i]))
        coeffs = -(model.alpha + rho) * phi.coeffs
        coeffs[:2] -= derivative(derivs[i]).coeffs
        residuals.append(PiecewisePoly(knots=phi.knots, coeffs=coeffs))
    gram = np.array([[pairwise_l2_inner(ri, rj) for rj in residuals] for ri in residuals])
    return dk_bound_from_gram(gram, float(ritz_vals[0]), float(ritz_vals[-1]),
                              next_ev, norm=norm)


@pytest.mark.parametrize("n_points", [5, 8, 16, 32])
@pytest.mark.parametrize("norm", ["hs", "op"])
@pytest.mark.parametrize("interp", ["cubic", "clamped"])
def test_residual_competitor_matches_pairwise_reference(model64, interp, norm, n_points):
    next_ev = float(model64.h.decomposition.eigenvalues[2])
    got = residual_competitor(model64, trial_functions(model64, n_points, interp), next_ev,
                              norm=norm)
    want = _pairwise_residual_competitor(model64, n_points, next_ev, norm, interp)
    assert got == pytest.approx(want, rel=1e-12)


def test_spline_evaluation_budget(model64, monkeypatch):
    # each trial function, derivative and residual enters one Gram evaluation
    # pass per row, never one per pair, and the trial space and the competitor
    # take no pass over what the row already evaluated
    passes = []  # the number of functions each pass evaluates
    gram = harness.l2_gram
    monkeypatch.setattr(harness, "l2_gram",
                        lambda pps: passes.append(splines._stacked(pps)[1].shape[1]) or gram(pps))
    k = 2  # trial functions
    trial = trial_functions(model64, 16, "clamped")
    assert passes == [2 * k]  # interpolants and their derivatives
    passes.clear()
    build_test_space(model64, trial)
    assert passes == []
    residual_competitor(model64, trial, 2.0)
    assert passes == [k]  # residuals


def test_cubic_row_builds_its_interpolants_once(model64, monkeypatch):
    # one spline build per row for all targets, and the two consumers called
    # once per row through the module namespace, where relbench's tracer rebinds them
    builds = []
    spline = splines._cubic_spline
    monkeypatch.setattr(splines, "_cubic_spline", lambda *a: builds.append(1) or spline(*a))
    calls = {"build_test_space": 0, "residual_competitor": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counting)
    ns = range(5, 11)
    rows = harness.run_benchmark(model64, ns, "cubic")
    assert [r.dk_bound is not None for r in rows] == [True] * len(ns)
    assert len(builds) == len(ns)
    assert calls == {"build_test_space": len(ns), "residual_competitor": len(ns)}


def test_table_rows_reach_every_traced_layer(monkeypatch):
    # relbench's tracer counts a call when it goes through a module name: it
    # wraps a function and rebinds it in every relgap namespace that holds it.
    # Rebound the same way, every layer of a table row must still be reached.
    calls = Counter()
    for key in ("harness.build_test_space", "harness.residual_competitor",
                "splines.modal_coefficients", "ritz.eta_routes", "matcore.fractional_power"):
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"relgap.{layer}"), name)

        def counting(*args, _key=key, _fn=fn, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "relgap":
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counting)
    tables = [(mathieu_model(THETA, ALPHA, 64), range(5, 11), "cubic"),
              (mathieu_model(THETA, ALPHA, 320), [100, 120, 140], "linear")]
    for model, ns, interp in tables:
        calls.clear()
        rows = len(run_benchmark(model, ns, interp))
        assert rows == len(ns)
        for key in ("harness.build_test_space", "splines.modal_coefficients", "ritz.eta_routes"):
            assert calls[key] == rows, (interp, key)
        cubic_rows = rows if interp == "cubic" else 0
        assert calls["harness.residual_competitor"] == cubic_rows
        assert calls["matcore.fractional_power"] >= cubic_rows


def test_foreign_warning_reaches_the_caller(model64, monkeypatch):
    # only TruncationWarnings become row notes; any other warning raised while
    # the test space is built was recorded and dropped
    clean = run_benchmark(model64, [5, 6], "cubic")
    modal = harness.modal_coefficients

    def warning_modal(*args):
        warnings.warn("injected from modal_coefficients", RuntimeWarning)
        return modal(*args)

    monkeypatch.setattr(harness, "modal_coefficients", warning_modal)
    with pytest.warns(RuntimeWarning, match="injected from modal_coefficients") as record:
        rows = run_benchmark(model64, [5, 6], "cubic")
    assert rows == clean
    assert sum(issubclass(w.category, RuntimeWarning) for w in record) == 2
    assert all(w.filename == __file__ for w in record if issubclass(w.category, RuntimeWarning))


def test_repeated_run_reuses_model_operator(monkeypatch):
    model = mathieu_model(THETA, ALPHA, 64)
    run_benchmark(model, [5], "cubic")
    dec = model.h.decomposition
    built = []
    init, from_diagonal = HermitianMatrix.__post_init__, HermitianMatrix.from_diagonal

    def recording(self, entries):
        init(self, entries)
        built.append(self.n)

    monkeypatch.setattr(HermitianMatrix, "__post_init__", recording)
    monkeypatch.setattr(HermitianMatrix, "from_diagonal",
                        lambda d: built.append(len(d)) or from_diagonal(d))
    run_benchmark(model, [5, 6], "cubic")
    assert model.omegas.size not in built
    assert model.h.decomposition is dec


def test_linear_table_row_allocates_no_dense_array():
    # the K = 320 model's H and its eigenbasis hold O(n) memory: building,
    # decomposing and one linear row stay far below one n x n float64 array
    # (3.3 MB at n = 641), which the dense model operator took twice
    n = 2 * 320 + 1
    tracemalloc.start()
    try:
        model = mathieu_model(THETA, ALPHA, 320)
        run_benchmark(model, [100], "linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    assert "mat" not in vars(model.h) and "vectors" not in vars(model.h.decomposition)


class TestEmission:
    def test_csv_layout(self, model64):
        rows = run_benchmark(model64, [5], "cubic", norm="hs")
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "N,interp,norm,true_err,ritz_bound,dk_bound,hypothesis_ok,note"
        fields = lines[1].split(",")
        assert fields[0] == "5" and fields[1] == "cubic" and fields[2] == "hs"
        float(fields[3]); float(fields[4]); float(fields[5])
        assert fields[6] in ("true", "false")

    def test_csv_na_for_linear_dk(self, model64):
        rows = run_benchmark(model64, [30], "linear", norm="hs")
        assert ",n/a," in rows_to_csv(rows)

    def test_markdown_layout(self, model64):
        rows = run_benchmark(model64, [5, 6], "cubic", norm="hs")
        md = rows_to_markdown(rows)
        assert md.splitlines()[0] == "| quantity | N=5 | N=6 |"
        assert "| true error |" in md and "| residual bound |" in md


def test_truncation_note_survives_csv_and_markdown(model64):
    import csv
    import io
    rows = run_benchmark(model64, [5], "cubic", norm="hs", with_dk=False)
    assert "," in rows[0].note  # the truncation warning text holds commas
    parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
    assert len(parsed) == 1
    assert parsed[0]["note"] == rows[0].note
    assert parsed[0]["hypothesis_ok"] == str(rows[0].hypothesis_ok).lower()
    md = rows_to_markdown(rows)
    assert f"| note | {rows[0].note} |" in md
    assert f"| hypothesis ok | {str(rows[0].hypothesis_ok).lower()} |" in md


@pytest.mark.parametrize("call", [
    lambda model: l2_gram([]),
    lambda model: modal_coefficients([], model.ks, model.theta / (2 * np.pi)),
], ids=["l2_gram", "modal_coefficients"])
def test_empty_batch_rejected(model64, call):
    # an empty batch of interpolants is named, not an IndexError
    with pytest.raises(ValueError, match="empty batch"):
        call(model64)
