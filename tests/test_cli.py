import csv
import json

import numpy as np
import pytest

from relgap.cli import main
from relgap.matcore import load_matrix, save_matrix

from conftest import hermitian_from_spectrum, make_rng


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
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "spectral"
    assert report["residual"] <= 1e-9
    assert report["dichotomy"]["dichotomy_bound"] >= report["norm_t_op"]
    t = load_matrix(out)
    assert t.shape == (3, 2)


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


def test_sylvester_stdout_matrix(matrix_files, capsys):
    assert main(["sylvester", "solve", "--a", matrix_files["a"], "--m", matrix_files["m"],
                 "--f", matrix_files["f"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 2 real")
    assert '"residual"' in out


def test_subspace_bound(tmp_path, capsys):
    rng = make_rng(5)
    h = hermitian_from_spectrum(rng, [0.5, 1.0, 3.0, 4.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, h)
    assert main(["subspace", "bound", "--h", str(hp), "--m", str(mp),
                 "--d1", "1.5", "--d2", "2.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
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
    rep = json.loads(capsys.readouterr().out)
    assert rep["true_diff"] == pytest.approx(0.0, abs=1e-10)
    assert rep["hypothesis_ok"] is True


def test_ritz_estimate(tmp_path, capsys):
    rng = make_rng(9)
    h = hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0])
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, h.mat)
    save_matrix(bp, basis)
    assert main(["ritz", "estimate", "--h", str(hp), "--basis", str(bp),
                 "--next-ev", "5.0", "--hs"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["etas"]) == 2
    assert rep["norm"] == "hs"
    assert "dk_bound" in rep and "hypothesis_ok" in rep
    assert 0.0 <= rep["eta_disagreement"] <= rep["eta_tol"]


def test_ritz_estimate_nan_cross_check_exit_code(tmp_path, monkeypatch, capsys):
    import relgap.ritz

    rng = make_rng(9)
    hp, bp = tmp_path / "h.mtx", tmp_path / "b.mtx"
    save_matrix(hp, hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0]).mat)
    save_matrix(bp, np.linalg.qr(rng.standard_normal((4, 2)))[0])
    monkeypatch.setattr(relgap.ritz, "eta_routes",
                        lambda h, p: (np.array([np.nan, 0.2]), np.array([0.1, 0.2])))
    assert main(["ritz", "estimate", "--h", str(hp), "--basis", str(bp),
                 "--next-ev", "5.0"]) == 3
    assert "disagree by nan" in capsys.readouterr().err


def test_sqroot_check(tmp_path, capsys):
    rng = make_rng(11)
    h = hermitian_from_spectrum(rng, [1.0, 4.0]).mat
    m = hermitian_from_spectrum(rng, [1.5, 3.0]).mat
    hp, mp = tmp_path / "h.mtx", tmp_path / "m.mtx"
    save_matrix(hp, h)
    save_matrix(mp, m)
    assert main(["sqroot", "check", "--h", str(hp), "--m", str(mp)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["half_rule_margin"] >= -1e-12
    assert rep["sylvester_defect"] <= 1e-10
    assert rep["integral_vs_spectral"] <= 1e-8


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
