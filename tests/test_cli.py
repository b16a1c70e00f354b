import csv
import json
import tracemalloc

import numpy as np
import pytest

from relgap.cli import build_parser, main
from relgap.matcore import eig_herm, load_matrix, save_matrix

from conftest import hermitian_from_spectrum, make_rng


def _reject_constant(token):
    raise AssertionError(f"stdout holds {token}, which is not JSON")


def _report(text):
    """A JSON report from stdout, failing on the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def matrix_files(tmp_path):
    rng = make_rng(77)
    a = hermitian_from_spectrum(rng, [3.0, 4.0, 6.0], complex_field=False).mat
    m = hermitian_from_spectrum(rng, [0.5, 1.0], complex_field=False).mat
    f = rng.standard_normal((3, 2))
    paths = {}
    for name, mat in (("a", a), ("m", m), ("f", f)):
        p = tmp_path / f"{name}.mtx"
        save_matrix(p, mat)
        paths[name] = str(p)
    return paths


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "relgap" in capsys.readouterr().out


def test_sylvester_solve_spectral(matrix_files, tmp_path, capsys):
    out = tmp_path / "t.mtx"
    code = main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--out", str(out)])
    assert code == 0
    report = _report(capsys.readouterr().out)
    assert report["method"] == "spectral"
    assert report["residual"] <= 1e-9
    assert report["bounds"]["dichotomy_bound"] >= report["norm_t_op"]
    t = load_matrix(out)
    assert t.shape == (3, 2)


def test_sylvester_solve_one_bounds_call(matrix_files, tmp_path, monkeypatch, capsys):
    import relgap.cli

    calls = []
    bounds = relgap.cli.sylvester_bounds
    monkeypatch.setattr(relgap.cli, "sylvester_bounds", lambda *a: calls.append(a) or bounds(*a))
    assert main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--out", str(tmp_path / "t.mtx")]) == 0
    report = _report(capsys.readouterr().out)
    assert len(calls) == 1
    assert list(report) == ["method", "residual", "bounds", "norm_t_op", "norm_t_hs"]
    assert report["bounds"]["hs_bound"] >= report["norm_t_hs"]
    assert report["bounds"]["two_interval_bound"] is None


def test_sylvester_solve_quadrature_matches(matrix_files, tmp_path, capsys):
    out_s = tmp_path / "ts.mtx"
    out_q = tmp_path / "tq.mtx"
    assert main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--out", str(out_s)]) == 0
    capsys.readouterr()
    assert main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--method", "quadrature", "--d", "1.8",
                 "--tol", "1e-10", "--out", str(out_q)]) == 0
    capsys.readouterr()
    np.testing.assert_allclose(load_matrix(out_s), load_matrix(out_q), atol=1e-8)


def test_sylvester_quadrature_scaled_problem(tmp_path, capsys):
    # T of the weak equation is unchanged when A and M are scaled by one c;
    # at c = 2^540 the unscaled resolvents would underflow
    rng = make_rng(3001)
    a = hermitian_from_spectrum(rng, [4.0, 5.0, 6.0], complex_field=False).mat
    m = hermitian_from_spectrum(rng, [0.5, 1.0, 2.0], complex_field=False).mat
    f = rng.standard_normal((3, 3))
    written = {}
    for k in (0, 540):
        paths = {}
        for name, mat in (("a", 2.0 ** k * a), ("m", 2.0 ** k * m), ("f", f)):
            paths[name] = str(tmp_path / f"{name}{k}.mtx")
            save_matrix(paths[name], mat)
        out = tmp_path / f"t{k}.mtx"
        assert main(["sylvester", "solve", "--a", paths["a"], "--m", paths["m"], "--f", paths["f"],
                     "--method", "quadrature", "--out", str(out)]) == 0
        capsys.readouterr()
        written[k] = load_matrix(out)
    # the decompositions eigen-solve A / s, s a power of two, so they scale
    # exactly also where LAPACK would rescale A itself, and so does T
    np.testing.assert_array_equal(written[540], written[0])


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-10"])
def test_sylvester_quadrature_bad_tol_exit_code(matrix_files, capsys, tol):
    # --tol inf used to accept a single panel and print its T
    code = main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--method", "quadrature", f"--tol={tol}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("relgap: error: tol must be positive and finite")
    # the message names the caller's value, not a scaled copy of it
    assert captured.err.rstrip().endswith(f"got {float(tol)!r}")


@pytest.mark.parametrize("option", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "1e-10"],
                                    ["--d", "100"], ["--d", "1.8"]],
                         ids=["tol-negative", "tol-nan", "tol-valid", "d-outside", "d-valid"])
@pytest.mark.parametrize("method", [[], ["--method", "spectral"]], ids=["default", "spectral"])
def test_sylvester_quadrature_options_need_quadrature(matrix_files, capsys, option, method):
    # the spectral solve reads neither --d nor --tol; it accepted any value and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
              "--f", matrix_files["f"]] + method + option)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--d/--tol" in errors[0] and "--method quadrature" in errors[0]


def test_sylvester_quadrature_huge_tol_accepted(matrix_files, tmp_path, capsys):
    # any positive finite tol is accepted, also where tol * pi overflows
    code = main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--method", "quadrature", "--tol=1e308",
                 "--out", str(tmp_path / "t.mtx")])
    assert code == 0
    assert _report(capsys.readouterr().out)["method"] == "quadrature"
    assert load_matrix(tmp_path / "t.mtx").shape == (3, 2)


def test_sylvester_quadrature_unreachable_tol_names_it(matrix_files, capsys):
    code = main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"], "--method", "quadrature", "--tol=1e-300"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("relgap: error: quadrature Sylvester solve did not reach tol=1e-300 ")


def test_sylvester_stdout_matrix(matrix_files, capsys):
    assert main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 2 real")
    assert "residual" in _report(out.split("\n", 4)[4])


def test_subspace_bound(tmp_path, capsys):
    rng = make_rng(5)
    h = hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, h)
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp),
                 "--d1", "1.5", "--d2", "2.5"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["hypothesis_ok"] is True
    assert rep["true_value"] == pytest.approx(0.0, abs=1e-10)


def test_subspace_bound_hs_mode(tmp_path, capsys):
    rng = make_rng(6)
    h = hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, h)
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp),
                 "--d1", "1.5", "--d2", "2.5", "--hs"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["true_diff"] == pytest.approx(0.0, abs=1e-10)
    assert rep["hypothesis_ok"] is True


@pytest.fixture
def pair_files(tmp_path):
    h = hermitian_from_spectrum(make_rng(6), [0.5, 1.0, 3.0, 4.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, h)
    return ["subspace", "bound", "--h", str(hp), "--m", str(mp), "--d1", "1.5"]


def test_subspace_bound_without_d2_is_usage_error(pair_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(pair_files)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--d2" in errors[0]


@pytest.mark.parametrize("bands", [["--l1", "0.6", "--l2", "0.8"], ["--l1", "0.6"], ["--l2", "0.8"]],
                         ids=["l1-l2", "l1", "l2"])
def test_subspace_bound_hs_with_bands_is_usage_error(pair_files, capsys, bands):
    # the HS bound covers E(d1) only; it answered that bound for band projections
    with pytest.raises(SystemExit) as exc:
        main(pair_files + ["--d2", "2.5", "--hs"] + bands)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--l1/--l2" in errors[0] and "--hs" in errors[0]


@pytest.mark.parametrize("d2", [[], ["--d2", "2.5"]], ids=["d2-omitted", "d2-given"])
def test_subspace_bound_hs_d2_optional(pair_files, capsys, d2):
    assert main(pair_files + ["--hs"] + d2) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["hypothesis_ok"] is True
    assert rep["true_diff"] == pytest.approx(0.0, abs=1e-10)


def test_parser_built_once_without_leaking_options(tmp_path, capsys):
    assert build_parser() is build_parser()
    rng = make_rng(6)
    h = hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, h)
    args = ["subspace", "bound", "--h", str(hp), "--m", str(mp), "--d1", "1.5"]
    assert main(args + ["--d2", "2.5", "--hs"]) == 0
    assert "true_diff" in _report(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--hs", "--d2", "not-a-number"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(args + ["--d2", "2.5"]) == 0
    rep = _report(capsys.readouterr().out)
    assert "true_value" in rep and "true_diff" not in rep


def test_ritz_estimate(tmp_path, capsys):
    rng = make_rng(9)
    h = hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0])
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, h.mat)
    save_matrix(bp, basis)
    assert main(["ritz", "estimate", "--h", str(hp), "--basis", str(bp),
                 "--next-ev", "5.0", "--hs"]) == 0
    rep = _report(capsys.readouterr().out)
    assert len(rep["etas"]) == 2
    assert rep["norm"] == "hs"
    assert "dk_bound" in rep and "hypothesis_ok" in rep
    assert 0.0 <= rep["eta_disagreement"] <= rep["eta_tol"]


def test_ritz_estimate_next_ev_above_the_spectrum(tmp_path, capsys):
    # H has 5 eigenvalues in [1, 2] and the rest in [8, 16], so lambda_6 = 8,
    # and the basis tilts its first 5 eigenvectors; next_ev = 100 once gave
    # hypothesis_ok: true, no notes and a bound below the truth
    rng = make_rng(61)
    n, k = 100, 5
    lam = np.concatenate([[1.0, 2.0], rng.uniform(1.0, 2.0, k - 2),
                          [8.0, 16.0], rng.uniform(8.0, 16.0, n - k - 2)])
    h = hermitian_from_spectrum(rng, lam, complex_field=False)
    tilt = rng.standard_normal((n, k))
    basis = eig_herm(h).vectors[:, :k] + 0.02 * tilt / np.linalg.norm(tilt, 2)
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, h.mat)
    save_matrix(bp, basis)
    args = ["ritz", "estimate", "--h", str(hp), "--basis", str(bp), "--hs", "--next-ev"]
    assert main(args + ["8"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["hypothesis_ok"] and rep["notes"] == []
    assert rep["dk_bound"] >= rep["true_hs"]
    assert main(args + ["100"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["hypothesis_ok"] is False
    assert rep["dk_bound"] is None  # it once read a number below the truth
    assert rep["notes"] == ["next_ev=1.000000e+02 exceeds the (k+1)-st eigenvalue "
                            f"{eig_herm(h).eigenvalues[k]:.6e} of H"]


def test_subspace_bound_nan_pencil_exit_code(tmp_path, monkeypatch, capsys):
    # a NaN from the eta eigensolver is an error, never a NaN bound
    rng = make_rng(5)
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat)
    save_matrix(mp, hermitian_from_spectrum(rng, [0.6, 1.1, 3.2, 4.1]).mat)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(np.shape(a)[-1], np.nan))
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp),
                 "--d1", "1.5", "--d2", "2.5"]) == 1
    assert "pencil" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--d1", "nan", "--hs"], "out of order or NaN"),
    (["--d1", "3", "--d2", "inf"], "0 < d1 < d2 < inf"),
], ids=["hs-nan-d1", "infinite-d2"])
def test_subspace_bound_non_finite_exit_code(tmp_path, capsys, args, message):
    # each printed NaN or Infinity (or, with --hs, a rank-0 projection) and exited 0
    rng = make_rng(5)
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat)
    save_matrix(mp, hermitian_from_spectrum(rng, [0.6, 1.1, 3.2, 4.1]).mat)
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp)] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("relgap: error: ") and message in err[0]


def test_subspace_bound_huge_d2_is_finite(tmp_path, capsys):
    # the coefficient sqrt(d1 d2) / (d2 - d1) once overflowed in sqrt(d1 d2)
    # and printed Infinity; as 1 / r(d2, d1) it is finite and correct
    rng = make_rng(5)
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat)
    save_matrix(mp, hermitian_from_spectrum(rng, [0.6, 1.1, 3.2, 4.1]).mat)
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp),
                 "--d1", "5", "--d2", "1e308"]) == 0
    rep = _report(capsys.readouterr().out)
    # sqrt(5 * 1e308) / (1e308 - 5) * eta; 3.688e-154 at the default seed
    assert rep["bound"] == pytest.approx(np.sqrt(5.0) * 1e-154 * rep["eta"], rel=1e-13)
    assert rep["hypothesis_ok"] is True and rep["notes"] == []
    assert rep["true_value"] == 0.0  # d1 lies above both spectra: P = Q = I


def test_ritz_estimate_nan_cross_check_exit_code(tmp_path, monkeypatch, capsys):
    import relgap.ritz

    rng = make_rng(9)
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0]).mat)
    save_matrix(bp, np.linalg.qr(rng.standard_normal((4, 2)))[0])
    monkeypatch.setattr(relgap.ritz, "eta_routes",
                        lambda h, p: (np.array([np.nan, 0.2]), np.array([0.1, 0.2]),
                                      np.array([1.0, 2.0])))
    assert main(["ritz", "estimate", "--h", str(hp), "--basis", str(bp),
                 "--next-ev", "5.0"]) == 3
    assert "disagree by nan" in capsys.readouterr().err


@pytest.mark.parametrize("next_ev", ["nan", "inf"])
def test_ritz_estimate_nonfinite_next_ev_exit_code(tmp_path, capsys, next_ev):
    rng = make_rng(9)
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0]).mat)
    save_matrix(bp, np.linalg.qr(rng.standard_normal((4, 2)))[0])
    assert main(["ritz", "estimate", "--h", str(hp), "--basis", str(bp),
                 "--next-ev", next_ev]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"relgap: error: next_ev must be finite, got {next_ev}"]


def test_sqroot_check(tmp_path, capsys):
    rng = make_rng(11)
    h = hermitian_from_spectrum(rng, [1.0, 4.0]).mat
    m = hermitian_from_spectrum(rng, [1.5, 3.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, m)
    assert main(["sqroot", "check", "--h", str(hp), "--m", str(mp)]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["half_rule_margin"] >= -1e-12
    assert rep["integral_vs_spectral"] <= 1e-8


def test_sqroot_check_isolated_fast_rate(tmp_path, capsys):
    # one eigenvalue 1e8 times the other: the oracle must still see both rates
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, np.diag([1.0, 1e8]))
    save_matrix(mp, np.diag([1.1, 1.05e8]))
    assert main(["sqroot", "check", "--h", str(hp), "--m", str(mp)]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["norm_x"] > 0.04
    assert rep["integral_vs_spectral"] <= 1e-8
    assert rep["exp_identity_defect"] <= 1e-10


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["bench", "mathieu", "--theta", str(np.pi - 1e-4), "--alpha", "0.2499",
                 "--K", "16", "--ns", "8,10", "--interp", "cubic", "--norm", "hs",
                 "--dk", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,interp,norm,true_err,ritz_bound,dk_bound,hypothesis_ok,note"
    assert len(lines) == 3


def test_bench_clamped_carries_dk(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["bench", "mathieu", "--theta", str(np.pi - 1e-4), "--alpha", "0.2499",
                 "--K", "16", "--ns", "6,8", "--interp", "clamped", "--dk",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["interp"] for r in rows] == ["clamped", "clamped"]
    assert all(float(r["dk_bound"]) > 0.0 for r in rows)


def test_bench_strict_exit_code(tmp_path):
    # N=5 at the reference configuration fails the smallness hypothesis
    out = tmp_path / "rows.csv"
    code = main(["bench", "mathieu", "--theta", str(np.pi - 1e-4), "--alpha", "0.2499",
                 "--K", "16", "--ns", "5", "--interp", "cubic", "--norm", "hs",
                 "--strict", "--out", str(out)])
    assert code == 2


def test_bench_markdown(tmp_path):
    out = tmp_path / "rows.csv"
    md = tmp_path / "rows.md"
    assert main(["bench", "mathieu", "--theta", str(np.pi), "--alpha", "0.0",
                 "--K", "8", "--ns", "8", "--interp", "linear", "--norm", "hs",
                 "--out", str(out), "--markdown", str(md)]) == 0
    assert md.read_text().startswith("| quantity | N=8 |")


def test_bench_model_holds_no_dense_operator(tmp_path):
    # at K = 1000 one dense n x n float64 array is 32 MB (n = 2001); the model
    # operator built dense grew the peak by about twice that
    n = 2 * 1000 + 1
    tracemalloc.start()
    try:
        code = main(["bench", "mathieu", "--theta", str(np.pi - 1e-4), "--alpha", "0.2499",
                     "--K", "1000", "--ns", "100", "--interp", "linear",
                     "--out", str(tmp_path / "rows.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n * 8 / 8


def test_bench_non_finite_alpha_exit_code(tmp_path, capsys):
    code = main(["bench", "mathieu", "--theta", str(np.pi), "--alpha", "nan",
                 "--K", "8", "--ns", "8", "--interp", "linear",
                 "--out", str(tmp_path / "rows.csv")])
    assert code == 1
    assert "alpha must be finite" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_error_exit_code(tmp_path, capsys):
    hp = tmp_path / "h.mtx"
    save_matrix(hp, np.diag([1.0, -1.0]))
    mp = tmp_path / "m.mtx"
    save_matrix(mp, np.eye(2))
    code = main(["sqroot", "check", "--h", str(hp), "--m", str(mp)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_sylvester_stdout_matrix_roundtrip(matrix_files, tmp_path, capsys):
    out = tmp_path / "t.mtx"
    args = ["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
            "--f", matrix_files["f"]]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    n_rows = int(printed[0].split()[0])
    copy = tmp_path / "printed.mtx"
    copy.write_text("\n".join(printed[: n_rows + 1]) + "\n")
    np.testing.assert_array_equal(load_matrix(copy), load_matrix(out))


@pytest.mark.parametrize("failure", ["convergence", "cross-check"])
def test_numerical_failure_exit_code(matrix_files, monkeypatch, capsys, failure):
    import relgap.cli
    from relgap.matcore import ConvergenceError

    exc = (ConvergenceError("quadrature did not reach tol") if failure == "convergence"
           else RuntimeError("internal consistency failure: the routes disagree"))

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(relgap.cli, "solve_weak_spectral", failing)
    code = main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"]])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [f"relgap: error: {exc}"]


MALFORMED = {
    "two-token header": ("2 2\n1 0 0 1\n", "malformed matrix header"),
    "unknown field": ("2 2 quaternion\n1 0 0 1\n", "unknown scalar field 'quaternion'"),
    "non-integer n": ("2.5 2 real\n1 0 0 1\n", "invalid literal for int()"),
    "bad token": ("2 2 real\n1 abc 0 1\n", "could not convert string to float: 'abc'"),
    "short body": ("2 2 real\n1 0 0\n", "expected 4 numbers, found 3"),
    "long body": ("2 2 real\n1 0 0 1 0\n", "expected 4 numbers, found 5"),
    "nan token": ("2 2 real\n1 nan 0 1\n", "non-finite"),
    "header -1 -1": ("-1 -1 real\n1\n", "negative dimension in matrix header ['-1', '-1', 'real']"),
    "header -2 -3": ("-2 -3 real\n1 2 3 4 5 6\n",
                     "negative dimension in matrix header ['-2', '-3', 'real']"),
    "header -1 0": ("-1 0 real\n", "negative dimension in matrix header ['-1', '0', 'real']"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
@pytest.mark.parametrize("command", ["subspace bound", "sylvester solve"])
def test_malformed_matrix_exit_code(command, case, matrix_files, tmp_path, capsys):
    text, message = MALFORMED[case]
    bad = tmp_path / "bad.mtx"
    bad.write_text(text)
    if command == "subspace bound":
        args = ["--h", str(bad), "--m", matrix_files["a"], "--d1", "1", "--d2", "2"]
    else:
        args = ["--a", str(bad), "--m", matrix_files["m"], "--f", matrix_files["f"]]
    assert main(command.split() + args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("relgap: error: ")
    assert message in err[0]
