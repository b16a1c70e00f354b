"""Every bound and T is relative: scaling (H, M) or (A, M) by one c > 0, with
F fixed and next_ev scaled along, changes no reported number.  At c = 2^k, k a
multiple of four (X reads fourth roots of the spectra), every report is
bit-identical: every kernel scales its input by matcore._pow2_scale.

c runs over powers of two far outside [1e-154, 1e154], where a product of two
spectral values, or a square of one, over- or underflows; warnings are errors,
so no such intermediate may even be formed.
"""

import numpy as np
import pytest

from relgap.cli import main
from relgap.forms import FormPair, eta_exact
from relgap.matcore import HermitianMatrix, Projection, eig_herm, save_matrix
from relgap.ritz import dk_residual_bound, eta_routes, ritz_bounds
from relgap.sqroot import sqrt_integral_solution, sqrt_pair
from relgap.subspace import hs_subspace_bounds, subspace_bounds
from relgap.sylvester import (
    WeakSylvesterProblem,
    solve_weak_quadrature,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)

from conftest import hermitian_from_spectrum, make_rng

pytestmark = pytest.mark.filterwarnings("error")

RTOL = 1e-13
D1, D2, L1, L2 = 2.0, 4.0, 0.45, 0.8


def _scaled(x: HermitianMatrix, c: float) -> HermitianMatrix:
    return HermitianMatrix(c * x.mat)  # exact: c is a power of two


def _inputs():
    rng = make_rng(3001)
    m = hermitian_from_spectrum(rng, [0.2, 0.3, 1.0, 1.1, 5.0, 6.0])
    dec = eig_herm(m)
    m_half = (dec.vectors * np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    e = (z + z.conj().T) / 2.0
    e *= 0.02 / np.linalg.norm(e, 2)
    h = HermitianMatrix(m_half @ (np.eye(6) + e) @ m_half)
    a = hermitian_from_spectrum(rng, [4.0, 5.0, 6.0])
    m_syl = hermitian_from_spectrum(rng, [0.5, 1.0, 2.0])
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h_ritz = hermitian_from_spectrum(rng, [1.0, 2.0, 5.0, 6.0, 7.0, 9.0])
    v = eig_herm(h_ritz).vectors[:, :2]
    trial = Projection.from_span(v + 0.01 * rng.standard_normal((6, 2)))
    return h, m, a, m_syl, f, h_ritz, trial


def _reports(c: float) -> dict:
    """name -> (numbers that must not move, hypothesis flag, notes)."""
    h, m, a, m_syl, f, h_ritz, trial = _inputs()
    h, m, a, m_syl, h_ritz = (_scaled(x, c) for x in (h, m, a, m_syl, h_ritz))
    out = {}
    for name, rep in (("single", subspace_bounds(h, m, c * D1, c * D2)),
                      ("single-failing", subspace_bounds(h, m, c * D1, c * 2.02)),
                      ("double", subspace_bounds(h, m, c * D1, c * D2, c * L1, c * L2))):
        out[name] = ([rep.bound, rep.true_value, rep.eta], rep.hypothesis_ok, rep.notes)
    hs = hs_subspace_bounds(h, m, c * D1)
    out["hs"] = ([hs.bound_qperp_p, hs.bound_pperp_q, hs.bound_diff, hs.bound_combined,
                  hs.true_qperp_p, hs.true_pperp_q, hs.true_diff, hs.gap_low, hs.gap_high],
                 hs.hypothesis_ok, hs.notes)
    closeness = eta_exact(FormPair(h, m))
    out["eta_exact"] = ([closeness.eta, closeness.epsilon, closeness.eta_from_eps], None, ())
    prob = WeakSylvesterProblem(a, m_syl, f)
    t = solve_weak_spectral(prob)
    # the residual is rounding of T's size: it is compared at that scale
    out["solve"] = (np.append(t, weak_residual(prob, t)), None, ())
    out["quadrature"] = (solve_weak_quadrature(prob), None, ())
    b = sylvester_bounds(prob, d_minus=c * 0.25, d_plus=c * 3.0)
    out["sylvester"] = ([b.gap, b.dichotomy_bound, b.two_interval_bound, b.hs_bound],
                        None, b.notes)
    next_ev = c * 5.0
    est = ritz_bounds(h_ritz, trial, next_ev)
    out["ritz"] = ([*est.etas, est.bound_op, est.bound_hs, est.true_op, est.true_hs],
                   est.hypothesis_ok, est.notes)
    out["eta_routes"] = (np.concatenate(eta_routes(h_ritz, trial)[:2]), None, ())
    out["dk"] = ([dk_residual_bound(h_ritz, trial.basis, next_ev, norm) for norm in ("op", "hs")],
                 None, ())
    pair = sqrt_pair(h, m)
    integral = sqrt_integral_solution(pair)
    # as in `relgap sqroot check`: the quadrature X carries rounding of T's size
    out["sqrt"] = ([pair.norm_t, pair.norm_x, *integral.x.ravel(), integral.identity_defect],
                   None, ())
    return out


@pytest.fixture(scope="module")
def reference():
    return _reports(1.0)


@pytest.mark.parametrize("k", [-560, -520, -100, 100, 500, 540])
def test_reports_are_scale_invariant(reference, k):
    # every kernel scales its input by matcore._pow2_scale: the reports move
    # by no bit, past LAPACK's own rescaling range too
    scaled = _reports(2.0 ** k)
    assert scaled.keys() == reference.keys()
    for name, (ref_values, ref_ok, ref_notes) in reference.items():
        values, ok, notes = scaled[name]
        ref_values = np.asarray(ref_values, dtype=complex)
        values = np.asarray(values, dtype=complex)
        assert np.all(np.isfinite(ref_values)), name
        assert np.array_equal(values, ref_values), (name, values - ref_values)
        assert ok == ref_ok, name
        if name == "double":  # the band note names the scaled cut points
            c = 2.0 ** k
            assert notes[-1] == f"band projections E[{c * L2}, {c * D1}]"
            notes, ref_notes = notes[:-1], ref_notes[:-1]
        assert notes == ref_notes, name


@pytest.mark.parametrize("k", [-560, -520, -100, 100, 500, 540])
def test_quadrature_solve_scales_bit_for_bit(reference, k):
    # the Sylvester solve on its own, outside the report loop: a decomposition
    # eigen-solves A / s, s a power of two, and scales back, so every step of
    # the quadrature scales exactly
    _, _, a, m_syl, f, _, _ = _inputs()
    prob = WeakSylvesterProblem(_scaled(a, 2.0 ** k), _scaled(m_syl, 2.0 ** k), f)
    assert np.array_equal(solve_weak_quadrature(prob), reference["quadrature"][0])


def test_sqroot_check_prints_the_same_json(tmp_path, capsys):
    # the pair travels as text: 17 digits round-trip, and 2^k x is exact
    h, m = _inputs()[:2]
    printed = []
    for k in (0, 540, -560):
        paths = [str(tmp_path / f"{name}{k}.mtx") for name in "hm"]
        for path, x in zip(paths, (h, m)):
            save_matrix(path, 2.0 ** k * x.mat)
        assert main(["sqroot", "check", "--h", paths[0], "--m", paths[1]]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_reference_reports_exercise_every_path(reference):
    # the hypotheses hold except where a note is meant to show, and every
    # bound the comparison reads is a number
    assert reference["single"][1] and reference["double"][1] and reference["hs"][1]
    assert reference["ritz"][1]
    assert reference["single"][2] == ()
    assert not reference["single-failing"][1]
    assert reference["single-failing"][2][0].startswith("coefficient * eta = ")
    assert reference["sylvester"][2] == ("sigma(A) lies on one side only",)
    assert all(v is not None for v in reference["sylvester"][0] + reference["dk"][0])


@pytest.mark.parametrize("k", [0, -1010])
def test_rank_rule_has_no_absolute_floor(k):
    # one relative cutoff, with no absolute floor, decides every rank: at 2^-1010
    # the PSD check, the kernel masks and from_span give the k = 0 answers
    c = 2.0 ** k
    m = HermitianMatrix(np.diag([0.0, 1.1, 3.9]) * c)
    with pytest.raises(ValueError, match="^H must be positive semidefinite: min eigenvalue"):
        hs_subspace_bounds(HermitianMatrix(np.diag([-2.0 ** -30, 1.0, 4.0]) * c), m, 2.0 * c)
    hs = hs_subspace_bounds(HermitianMatrix(np.diag([0.0, 1.0, 4.0]) * c), m, 2.0 * c)
    ref = hs_subspace_bounds(HermitianMatrix(np.diag([0.0, 1.0, 4.0])),
                             HermitianMatrix(np.diag([0.0, 1.1, 3.9])), 2.0)
    assert hs.hypothesis_ok and hs.notes == () and hs.bound_diff is not None
    np.testing.assert_allclose([hs.bound_diff, hs.gap_low, hs.gap_high],
                               [ref.bound_diff, ref.gap_low, ref.gap_high], rtol=RTOL)
    cols = np.array([[1.0, 1.0], [0.0, 2.0 ** -30], [0.0, 0.0]]) * c
    assert Projection.from_span(cols).rank == 2
