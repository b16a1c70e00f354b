"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from relgap.forms import FormPair, eta_exact
from relgap.harness import mathieu_model, run_benchmark
from relgap.matcore import (
    HermitianMatrix,
    eig_herm,
    fractional_power,
    hs_norm,
    op_norm,
)
from relgap.ritz import eta_routes
from relgap.sqroot import sqrt_integral_solution, sqrt_pair
from relgap.subspace import hs_subspace_bounds, pair_analysis, subspace_bounds
from relgap.sylvester import (
    WeakSylvesterProblem,
    solve_weak_quadrature,
    solve_weak_spectral,
    sylvester_bounds,
)

from conftest import (
    hermitian_from_spectrum,
    make_rng,
    perp,
    random_pd,
    random_pd_logcond,
    random_projection,
    random_unitary,
)

THETA = np.pi - 1e-4
ALPHA = 0.2499

CUBIC_REF_TRUE = [4.4e-3, 2.0e-3, 1.1e-3, 6.0e-4, 3.7e-4, 2.4e-4]
CUBIC_REF_BOUND = [2.2e-2, 1.0e-2, 5.3e-3, 3.3e-3, 2.2e-3, 1.5e-3]
CUBIC_REF_DK = [2.0e-2, 1.4e-2, 9.6e-3, 7.2e-3, 5.5e-3, 4.4e-3]
LINEAR_REF_TRUE = [5.2024e-5, 3.6126e-5, 2.6541e-5]
LINEAR_REF_BOUND = [8.7374e-3, 6.9293e-3, 5.7302e-3]


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _within_factor(value: float, reference: float, factor: float) -> bool:
    return reference / factor <= value <= reference * factor


def _congruent_pair(rng, eigs, strength, complex_field=False):
    m = hermitian_from_spectrum(rng, eigs, complex_field)
    dec = eig_herm(m)
    m_half = (dec.vectors * np.sqrt(dec.eigenvalues)) @ dec.vectors.conj().T
    n = len(eigs)
    z = rng.standard_normal((n, n))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, n))
    e = (z + z.conj().T) / 2.0
    e *= strength / op_norm(e)
    return HermitianMatrix(m_half @ (np.eye(n) + e) @ m_half), m


def _random_dichotomous(rng, max_dim=10, complex_field=False):
    n_a = int(rng.integers(1, max_dim + 1))
    n_m = int(rng.integers(1, max_dim + 1))
    a = hermitian_from_spectrum(rng, rng.uniform(1.5, 6.0, size=n_a), complex_field)
    m = hermitian_from_spectrum(rng, rng.uniform(0.1, 1.0, size=n_m), complex_field)
    f = rng.standard_normal((n_a, n_m))
    if complex_field:
        f = f + 1j * rng.standard_normal((n_a, n_m))
    return WeakSylvesterProblem(a, m, f)


def test_criterion_1_sharpness():
    start = time.monotonic()
    rng = make_rng(1)
    ua = random_unitary(rng, 4, complex_field=True)
    um = random_unitary(rng, 3, complex_field=True)
    big_d, m_norm = 4.0, 1.0
    a = HermitianMatrix(ua @ np.diag([big_d, 5.0, 6.5, 9.0]) @ ua.conj().T)
    m = HermitianMatrix(um @ np.diag([m_norm, 0.6, 0.2]) @ um.conj().T)
    f = ua[:, :1] @ um[:, :1].conj().T
    prob = WeakSylvesterProblem(a, m, f)
    t = solve_weak_spectral(prob)
    bound = sylvester_bounds(prob).dichotomy_bound
    expected = np.sqrt(big_d * m_norm) / (big_d - m_norm) * op_norm(f)
    assert abs(op_norm(t) - expected) <= 1e-12
    assert abs(bound - expected) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"rank-one instance attains the dichotomy bound exactly "
               f"(defect {abs(op_norm(t) - bound):.1e}, {elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    tol = 1e-9
    worst_pair = 0.0
    worst_d = 0.0
    for trial in range(50):
        rng = make_rng(42_000 + trial)
        prob = _random_dichotomous(rng, complex_field=bool(trial % 2))
        t_spec = solve_weak_spectral(prob)
        m_norm, big_d = prob.dichotomy_interval
        d1 = m_norm + 0.3 * (big_d - m_norm)
        d2 = m_norm + 0.7 * (big_d - m_norm)
        t_q1 = solve_weak_quadrature(prob, d=d1, tol=tol)
        t_q2 = solve_weak_quadrature(prob, d=d2, tol=tol)
        worst_pair = max(worst_pair, float(np.max(np.abs(t_spec - t_q1))))
        worst_d = max(worst_d, float(np.max(np.abs(t_q1 - t_q2))))
        assert np.max(np.abs(t_spec - t_q1)) <= 1e-8
        assert np.max(np.abs(t_q1 - t_q2)) <= 2 * tol
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, f"spectral and quadrature solvers agree on 50 instances "
               f"(worst {worst_pair:.1e}, d-sensitivity {worst_d:.1e}, {elapsed:.1f}s)")


def test_criterion_3_bound_validity_suites():
    slack = 1e-12

    # dichotomy bound, 200 instances
    for trial in range(200):
        rng = make_rng(50_000 + trial)
        prob = _random_dichotomous(rng, complex_field=bool(trial % 2))
        t = solve_weak_spectral(prob)
        assert op_norm(t) <= sylvester_bounds(prob).dichotomy_bound + slack

    # two-interval bound, 200 instances
    for trial in range(200):
        rng = make_rng(51_000 + trial)
        n_low = int(rng.integers(1, 4))
        n_high = int(rng.integers(1, 4))
        a_eigs = np.concatenate([rng.uniform(0.1, 0.4, size=n_low),
                                 rng.uniform(2.0, 4.0, size=n_high)])
        m_eigs = rng.uniform(0.7, 1.4, size=int(rng.integers(1, 5)))
        a = hermitian_from_spectrum(rng, a_eigs, bool(trial % 2))
        m = hermitian_from_spectrum(rng, m_eigs, bool(trial % 2))
        f = rng.standard_normal((a_eigs.size, m_eigs.size))
        prob = WeakSylvesterProblem(a, m, f)
        b = sylvester_bounds(prob, d_minus=0.5, d_plus=1.8)
        assert b.two_interval_bound is not None
        assert op_norm(solve_weak_spectral(prob)) <= b.two_interval_bound + slack

    # Hilbert-Schmidt relative-gap bound, 200 instances of interlaced spectra
    done = 0
    trial = 0
    while done < 200:
        rng = make_rng(52_000 + trial)
        trial += 1
        n_a = int(rng.integers(1, 9))
        n_m = int(rng.integers(1, 9))
        a = hermitian_from_spectrum(rng, 10.0 ** rng.uniform(-1.5, 1.5, size=n_a),
                                    bool(trial % 2))
        m = hermitian_from_spectrum(rng, 10.0 ** rng.uniform(-1.5, 1.5, size=n_m),
                                    bool(trial % 2))
        f = rng.standard_normal((n_a, n_m))
        try:
            prob = WeakSylvesterProblem(a, m, f)
        except ValueError:
            continue  # resonant draw
        done += 1
        b = sylvester_bounds(prob)
        assert hs_norm(solve_weak_spectral(prob)) <= b.hs_bound + slack

    # sin-theta bound and HS subspace bounds, 100 instances split at [1.0, 3.0]
    for trial in range(100):
        rng = make_rng(53_000 + trial)
        n = int(rng.integers(4, 9))
        low = rng.uniform(0.3, 1.0, size=n // 2)
        high = rng.uniform(3.0, 8.0, size=n - n // 2)
        h, m = _congruent_pair(rng, np.concatenate([low, high]), strength=0.04,
                               complex_field=bool(trial % 2))
        rep = subspace_bounds(h, m, 1.5, 2.5)
        assert rep.hypothesis_ok, rep.notes
        assert rep.true_value <= rep.bound + slack

        hs_rep = hs_subspace_bounds(h, m, 1.5)
        assert hs_rep.hypothesis_ok, hs_rep.notes
        assert hs_rep.true_qperp_p <= hs_rep.bound_qperp_p + slack
        assert hs_rep.true_pperp_q <= hs_rep.bound_pperp_q + slack
        assert hs_rep.true_diff <= hs_rep.bound_diff + slack
        assert hs_rep.true_diff <= hs_rep.bound_combined + slack

    # square-root half rule, 500 pairs with condition numbers up to 1e8
    for trial in range(500):
        rng = make_rng(54_000 + trial)
        n = int(rng.integers(1, 9))
        h = random_pd_logcond(rng, n, 8.0, complex_field=bool(trial % 2))
        m = random_pd_logcond(rng, n, 8.0, complex_field=bool(trial % 3 == 0))
        pair = sqrt_pair(h, m)
        assert pair.norm_x <= pair.norm_t / 2.0 + slack

    _report(3, "all a-priori bounds dominate their true quantities "
               "(200+200+200 Sylvester, 100 subspace, 500 square-root trials)")


def test_criterion_4_eta_route_cross_check():
    worst = 0.0
    for trial in range(100):
        rng = make_rng(60_000 + trial)
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n // 2, 4) + 1))
        h = random_pd(rng, n, complex_field=bool(trial % 2))
        p = random_projection(rng, n, k, complex_field=bool(trial % 2))
        a, b, _ = eta_routes(h, p)
        worst = max(worst, float(np.max(np.abs(a - b))))
        assert np.max(np.abs(a - b)) <= 1e-9
    _report(4, f"defect-spectrum routes agree on 100 instances (worst {worst:.1e})")


def test_criterion_5_projection_pair_alternative():
    done = 0
    trial = 0
    while done < 100:
        assert trial < 600
        rng = make_rng(70_000 + trial)
        trial += 1
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        p = random_projection(rng, n, k, complex_field=bool(trial % 2))
        q = random_projection(rng, n, k, complex_field=bool(trial % 2))
        rep = pair_analysis(p, q)
        if rep.case != "isomorphic":
            continue
        done += 1
        assert abs(rep.norm_p_qperp - rep.norm_q_pperp) <= 1e-10
        assert abs(rep.norm_p_qperp - rep.norm_diff) <= 1e-10
        qp = hs_norm(perp(q, p.basis))
        pq = hs_norm(perp(p, q.basis))
        assert abs(rep.hs_diff ** 2 - (qp ** 2 + pq ** 2)) <= 1e-10
    _report(5, "three-norm equality and Pythagorean split verified on 100 pairs")


def test_criterion_6_cubic_benchmark_reproduction():
    start = time.monotonic()
    model = mathieu_model(THETA, ALPHA, 64)
    rows = run_benchmark(model, range(5, 11), "cubic", norm="hs", with_dk=True)
    for row, ref_t, ref_b, ref_d in zip(rows, CUBIC_REF_TRUE, CUBIC_REF_BOUND, CUBIC_REF_DK):
        assert _within_factor(row.true_err, ref_t, 3.0), (row.n_points, row.true_err, ref_t)
        assert _within_factor(row.ritz_bound, ref_b, 3.0), (row.n_points, row.ritz_bound, ref_b)
        assert _within_factor(row.dk_bound, ref_d, 3.0), (row.n_points, row.dk_bound, ref_d)
    for row in rows:
        if row.n_points >= 7:
            assert row.ritz_bound < row.dk_bound
    for seq in ([r.true_err for r in rows], [r.ritz_bound for r in rows],
                [r.dk_bound for r in rows]):
        assert all(a > b for a, b in zip(seq, seq[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ratios = [row.true_err / ref for row, ref in zip(rows, CUBIC_REF_TRUE)]
    _report(6, f"cubic benchmark matches the reference rows within factor 3 "
               f"(true-error ratios {min(ratios):.2f}..{max(ratios):.2f}, {elapsed:.1f}s)")


def test_criterion_7_linear_benchmark_reproduction():
    start = time.monotonic()
    model = mathieu_model(THETA, ALPHA, 320)  # alias modes of N up to 140 must fit
    rows = run_benchmark(model, [100, 120, 140], "linear", norm="hs")
    for row, ref_t, ref_b in zip(rows, LINEAR_REF_TRUE, LINEAR_REF_BOUND):
        assert _within_factor(row.true_err, ref_t, 3.0), (row.n_points, row.true_err, ref_t)
        assert _within_factor(row.ritz_bound, ref_b, 3.0), (row.n_points, row.ritz_bound, ref_b)
        assert row.dk_bound is None
        # linear interpolants converge to the eigenbasis like 1/K; the row
        # records the residual energy loss
        assert "form energy" in row.note
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, f"linear benchmark matches the reference rows within factor 3, "
               f"competitor emitted as n/a ({elapsed:.1f}s)")


def test_criterion_8_eigenvalue_formula():
    getcontext().prec = 40
    pi_hp = Decimal("3.141592653589793238462643383279502884197")
    theta_hp = pi_hp - Decimal("1e-4")

    def omega(k: int) -> float:
        shift = theta_hp / (2 * pi_hp)
        return float((k + shift) ** 2 - Decimal("0.2499"))

    model = mathieu_model(THETA, ALPHA, 64)
    lam = model.h.decomposition.eigenvalues
    expected = sorted([omega(0), omega(-1), omega(1)])
    for got, want in zip(lam[:3], expected):
        assert abs(got - want) / abs(want) <= 1e-10
    # the magnitudes the formula was quoted at
    for got, quoted in zip(lam[:3], (8.4084e-5, 1.15916e-4, 2.0000523)):
        assert abs(got - quoted) / quoted <= 1e-4
    _report(8, f"model eigenvalues reproduce the closed form to 1e-10 relative "
               f"(lambda_1..3 = {lam[0]:.6e}, {lam[1]:.6e}, {lam[2]:.6e})")


def test_criterion_9_square_root_chain():
    for trial in range(200):
        rng = make_rng(80_000 + trial)
        n = int(rng.integers(1, 8))
        h = random_pd(rng, n, complex_field=bool(trial % 2))
        m = random_pd(rng, n, complex_field=bool(trial % 2))
        eta_full = eta_exact(FormPair(h, m)).eta
        h_half = fractional_power(eig_herm(h), 0.5)
        m_half = fractional_power(eig_herm(m), 0.5)
        eta_half = eta_exact(FormPair(h_half, m_half)).eta
        assert eta_half <= eta_full / 2.0 + 1e-10

    worst = 0.0
    for trial in range(10):
        rng = make_rng(81_000 + trial)
        n = int(rng.integers(2, 7))
        h = random_pd(rng, n, complex_field=bool(trial % 2))
        m = random_pd(rng, n, complex_field=bool(trial % 2))
        pair = sqrt_pair(h, m)
        res = sqrt_integral_solution(pair)
        worst = max(worst, float(np.max(np.abs(res.x - pair.x))))
        assert np.max(np.abs(res.x - pair.x)) <= 1e-8
    _report(9, f"square-root closeness halves through the chain (200 pairs); "
               f"integral representation matches to {worst:.1e}")
