"""The shared eigendecomposition and the two-sided spectral kernel.

Each HermitianMatrix is decomposed at most once and every consumer reads
that result; the entrywise-kernel evaluations of S, T, X, the Sylvester
solution and its residual agree with the dense fractional-power formulas
kept below as references.
"""

import numpy as np
import pytest

from relgap.forms import FormPair, eta_exact, s_operator
from relgap.matcore import HermitianMatrix, eig_herm, spectral_projector_below
from relgap.ritz import ritz_bounds
from relgap.sqroot import sqrt_pair
from relgap.subspace import hs_subspace_bounds, subspace_bounds
from relgap.sylvester import (
    WeakSylvesterProblem,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)

from conftest import hermitian_from_spectrum, make_rng, random_projection

REF_RTOL = 1e-12


# ---------------------------------------------------------------------------
# dense fractional-power references, numpy only
# ---------------------------------------------------------------------------

def _power(h: HermitianMatrix, p: float) -> np.ndarray:
    """Pseudo power of a PSD matrix: eigenvalues at or below 1e-12 * max map to 0."""
    lam, v = np.linalg.eigh(h.mat)
    keep = lam > 1e-12 * np.max(np.abs(lam))
    mapped = np.zeros_like(lam)
    mapped[keep] = lam[keep] ** p
    return (v * mapped) @ v.conj().T


def _ref_s(h, m):
    return _power(h, 0.5) @ _power(m, -0.5) - _power(h, -0.5) @ _power(m, 0.5)


def _ref_tx(h, m):
    t = _power(m, 0.5) @ _power(h, -0.5) - _power(m, -0.5) @ _power(h, 0.5)
    x = _power(m, 0.25) @ _power(h, -0.25) - _power(m, -0.25) @ _power(h, 0.25)
    defect = np.linalg.norm(_power(m, 0.25) @ x @ _power(h, -0.25)
                            + _power(m, -0.25) @ x @ _power(h, 0.25) - t, 2)
    return t, x, defect


def _ref_solution(a, m, f):
    lam, u = np.linalg.eigh(a.mat)
    mu, v = np.linalg.eigh(m.mat)
    kernel = np.sqrt(lam[:, None] * mu[None, :]) / (lam[:, None] - mu[None, :])
    return u @ ((u.conj().T @ f @ v) * kernel) @ v.conj().T


def _ref_residual(a, m, f, t):
    return np.linalg.norm(_power(a, 0.5) @ t @ _power(m, -0.5)
                          - _power(a, -0.5) @ t @ _power(m, 0.5) - f, 2)


def _rel(new, ref) -> float:
    return np.linalg.norm(new - ref, 2) / np.linalg.norm(ref, 2)


@pytest.mark.parametrize("complex_field", [False, True])
def test_s_operator_matches_dense_powers(complex_field):
    rng = make_rng(41)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, 12), complex_field)
    m = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, 12), complex_field)
    assert _rel(s_operator(FormPair(h, m)), _ref_s(h, m)) <= REF_RTOL


@pytest.mark.parametrize("complex_field", [False, True])
def test_s_operator_shared_kernel_matches_dense_powers(complex_field):
    # zero eigenvalues exercise the pseudo-power convention
    rng = make_rng(42)
    u = hermitian_from_spectrum(rng, np.arange(1.0, 9.0), complex_field).decomposition.vectors
    h = HermitianMatrix(u @ np.diag([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0]) @ u.conj().T)
    m = HermitianMatrix(u @ np.diag([0.0, 0.0, 1.2, 1.8, 3.5, 4.0, 8.0, 9.5]) @ u.conj().T)
    assert _rel(s_operator(FormPair(h, m)), _ref_s(h, m)) <= REF_RTOL


@pytest.mark.parametrize("complex_field", [False, True])
def test_sqrt_pair_matches_dense_powers(complex_field):
    rng = make_rng(43)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, 12), complex_field)
    m = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, 12), complex_field)
    pair = sqrt_pair(h, m)
    t, x, defect = _ref_tx(h, m)
    assert _rel(pair.t, t) <= REF_RTOL
    assert _rel(pair.x, x) <= REF_RTOL
    assert abs(pair.sylvester_defect - defect) <= REF_RTOL * np.linalg.norm(t, 2)


@pytest.mark.parametrize("complex_field", [False, True])
def test_sylvester_solution_and_residual_match_dense_powers(complex_field):
    rng = make_rng(44)
    a = hermitian_from_spectrum(rng, rng.uniform(3.0, 9.0, 10), complex_field)
    m = hermitian_from_spectrum(rng, rng.uniform(0.4, 2.0, 7), complex_field)
    f = rng.standard_normal((10, 7))
    if complex_field:
        f = f + 1j * rng.standard_normal((10, 7))
    prob = WeakSylvesterProblem(a, m, f)
    t = solve_weak_spectral(prob)
    assert _rel(t, _ref_solution(a, m, f)) <= REF_RTOL
    f_norm = np.linalg.norm(f, 2)
    assert abs(weak_residual(prob, t) - _ref_residual(a, m, f, t)) <= REF_RTOL * f_norm
    # away from the solution the residual is a genuine evaluation, not zero
    other = t + rng.standard_normal(t.shape)
    ref = _ref_residual(a, m, f, other)
    assert ref > 0.1 * f_norm
    assert abs(weak_residual(prob, other) - ref) <= REF_RTOL * ref


# ---------------------------------------------------------------------------
# one decomposition per operator
# ---------------------------------------------------------------------------

def test_decomposition_is_cached_and_read_only():
    h = HermitianMatrix(np.diag([1.0, 2.0, 3.0]))
    dec = eig_herm(h)
    assert eig_herm(h) is dec and h.decomposition is dec
    with pytest.raises(ValueError, match="read-only"):
        dec.eigenvalues[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        dec.vectors[0, 0] = 5.0


N = 40
RANK = 5
D1, D2 = 1.5, 2.5


def _pair(rng):
    """H and a congruent perturbation M, five eigenvalues below D1 and the
    rest above D2 for both."""
    eigs = np.concatenate([rng.uniform(0.5, 1.0, RANK), rng.uniform(3.0, 10.0, N - RANK)])
    h = hermitian_from_spectrum(rng, eigs, complex_field=False)
    g = np.eye(N) + 0.01 * rng.standard_normal((N, N)) / np.sqrt(N)
    return h, HermitianMatrix(g @ h.mat @ g.T)


@pytest.fixture
def large_decompositions(monkeypatch):
    """Count eigh/eigvalsh calls on matrices of dimension >= N/2."""
    counts = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a)[-1] >= N // 2:
                counts.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return counts


def _counted(counts, call) -> int:
    counts.clear()
    call()
    return len(counts)


def test_decompositions_per_public_call(large_decompositions):
    counts = large_decompositions
    rng = make_rng(45)

    def hs_bounds():
        h, m = _pair(make_rng(46))
        q = spectral_projector_below(eig_herm(h), D1)
        p = spectral_projector_below(eig_herm(m), D1)
        assert q.rank == p.rank == RANK
        hs_subspace_bounds(h, m, q, p)

    def sylvester_path():
        a = hermitian_from_spectrum(rng, rng.uniform(3.0, 9.0, N), complex_field=False)
        m = hermitian_from_spectrum(rng, rng.uniform(0.4, 2.0, N), complex_field=False)
        prob = WeakSylvesterProblem(a, m, rng.standard_normal((N, N)))
        weak_residual(prob, solve_weak_spectral(prob))
        sylvester_bounds(prob, "dichotomy")
        sylvester_bounds(prob, "hs")

    budget = {
        "eta_exact": (lambda: eta_exact(FormPair(*_pair(rng))), 3),
        "subspace_bounds": (lambda: subspace_bounds(*_pair(rng), D1, D2), 3),
        "hs_subspace_bounds": (hs_bounds, 4),
        "ritz_bounds": (lambda: ritz_bounds(_pair(rng)[0], random_projection(rng, N, RANK),
                                            next_ev=3.0), 2),
        "sqrt_pair": (lambda: sqrt_pair(*_pair(rng)), 2),
        "sylvester solve": (sylvester_path, 2),
    }
    assert _counted(counts, lambda: _pair(rng)) == 0  # the inputs cost nothing
    used = {name: _counted(counts, call) for name, (call, _) in budget.items()}
    over = [name for name, (_, most) in budget.items() if used[name] > most]
    assert not over, used
