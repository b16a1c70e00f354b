import numpy as np
import pytest

from relgap.harness import (
    TruncationWarning,
    build_test_space,
    mathieu_model,
    residual_competitor,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
)
from relgap.matcore import Projection
from relgap.ritz import ritz_bounds

THETA = np.pi - 1e-4
ALPHA = 0.2499


@pytest.fixture(scope="module")
def model64():
    return mathieu_model(THETA, ALPHA, 64)


class TestMathieuModel:
    def test_half_integer_phase(self):
        model = mathieu_model(np.pi, 0.0, 3)
        lam = model.sorted_eigenvalues()
        np.testing.assert_allclose(lam[:3], [0.25, 0.25, 2.25])

    def test_reference_eigenvalues(self, model64):
        lam = model64.sorted_eigenvalues()
        for got, want in zip(lam[:3], (8.4084e-5, 1.15916e-4, 2.0000523)):
            assert abs(got - want) / want < 1e-4  # quoted to few digits
        # the first three states are the k = 0, -1, +1 modes
        order = np.argsort(model64.omegas)
        np.testing.assert_array_equal(model64.ks[order[:3]], [0, -1, 1])

    def test_eigenvalue_formula_bitwise(self, model64):
        recomputed = (model64.ks + model64.theta / (2 * np.pi)) ** 2 - model64.alpha
        np.testing.assert_array_equal(recomputed, model64.omegas)

    def test_coordinate_matrix_is_identity(self, model64):
        h = model64.hmatrix()
        np.testing.assert_array_equal(h.mat, np.diag(model64.omegas))

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            mathieu_model(np.pi, 0.3, 4)  # alpha above (theta/2pi)^2 = 0.25

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta"):
            mathieu_model(7.0, 0.0, 4)
        with pytest.raises(ValueError, match=">= 2"):
            mathieu_model(np.pi, 0.0, 1)

    def test_eigenfunctions_quasi_periodic_and_normalized(self, model64):
        t = np.linspace(0, 2 * np.pi, 20001)
        z = model64.eigenfunction_samples(3, t)
        # value boundary condition tying the endpoints
        ratio = z[-1] / z[0]
        assert ratio == pytest.approx(np.exp(-1j * THETA))
        assert np.trapezoid(np.abs(z) ** 2, t) == pytest.approx(1.0, rel=1e-6)


class TestBuildTestSpace:
    def test_cubic_alignment_improves_with_n(self, model64):
        e0 = np.zeros(model64.dim)
        e0[model64.trunc] = 1.0  # coordinate of mode k = 0
        # only the coarsest interpolant loses form energy to the truncation
        with pytest.warns(TruncationWarning, match="mode 0, N=8"):
            spaces = [build_test_space(model64, 8, "cubic", targets=(0,))]
        spaces += [build_test_space(model64, n, "cubic", targets=(0,)) for n in (16, 32)]
        errs = [np.linalg.norm(p.projector @ e0 - e0) for p in spaces]
        assert errs[0] > errs[1] > errs[2]

    def test_linear_small_n_is_valid_projection(self, model64):
        with pytest.warns(TruncationWarning, match="mode 0, N=4: .* form energy"):
            p = build_test_space(model64, 4, "linear", targets=(0,))
        assert p.rank == 1
        np.testing.assert_allclose(p.basis.conj().T @ p.basis, np.eye(1), atol=1e-12)

    def test_reference_space_rank_two(self, model64):
        with pytest.warns(TruncationWarning) as caught:
            p = build_test_space(model64, 5, "cubic")
        assert p.rank == 2
        assert [str(w.message).split(":")[0] for w in caught] == ["mode 0, N=5", "mode -1, N=5"]

    def test_target_outside_truncation(self, model64):
        with pytest.raises(ValueError, match="outside"):
            build_test_space(model64, 8, "cubic", targets=(100,))

    def test_cubic_needs_four_points(self, model64):
        with pytest.raises(ValueError, match="4 sample points"):
            build_test_space(model64, 3, "cubic")

    def test_unknown_interp(self, model64):
        with pytest.raises(ValueError, match="interp"):
            build_test_space(model64, 8, "quintic")

    def test_energy_truncation_warned(self):
        # a linear interpolant with N - 1 > K aliases all its interpolation
        # error outside the eigenbasis; the form-energy warning must fire
        model = mathieu_model(THETA, ALPHA, 8)
        with pytest.warns(TruncationWarning, match="form energy"):
            build_test_space(model, 40, "linear", targets=(0,))


class TestRunBenchmark:
    def test_invariant_targets_give_zero(self, model64):
        h = model64.hmatrix()
        cols = np.zeros((model64.dim, 2))
        cols[model64.trunc, 0] = 1.0      # mode 0
        cols[model64.trunc - 1, 1] = 1.0  # mode -1
        p = Projection(cols)
        lam = model64.sorted_eigenvalues()
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
            residual_competitor(model64, 30, 1.0, interp="linear")

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
