"""The shared eigendecomposition and the two-sided spectral kernel.

Each HermitianMatrix is decomposed at most once and every consumer reads
that result; an exactly diagonal one is decomposed and solved without
LAPACK, and it and its eigenbasis are applied by index.  The entrywise-kernel
evaluations of S, T, X, the Sylvester solution and its residual agree with
the dense fractional-power formulas kept below as references.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

from relgap import matcore, ritz, sqroot
from relgap.forms import FormPair, eta_exact, s_operator
from relgap.harness import mathieu_model
from relgap.matcore import (
    HermitianMatrix,
    Projection,
    SpectralDecomposition,
    eig_herm,
    require_positive,
)
from relgap.ritz import dk_residual_bound, eta_routes, ritz_bounds
from relgap.sqroot import sqrt_pair
from relgap.subspace import hs_subspace_bounds, subspace_bounds
from relgap.sylvester import (
    WeakSylvesterProblem,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)

from conftest import hermitian_from_spectrum, make_rng, random_projection, random_unitary

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
    return t, x


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
    t, x = _ref_tx(h, m)
    assert _rel(pair.t, t) <= REF_RTOL
    assert _rel(pair.x, x) <= REF_RTOL


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


def _ref_epsilon(h, m):
    """max |nu - 1| over the eigenvalues nu of R* M^{+1/2} H M^{+1/2} R, R an
    orthonormal basis of range(M)."""
    lam, v = np.linalg.eigh(m.mat)
    r = v[:, lam > 1e-12 * np.max(np.abs(lam))]
    c = _power(m, -0.5) @ h.mat @ _power(m, -0.5)
    return np.max(np.abs(np.linalg.eigvalsh(r.conj().T @ c @ r) - 1.0))


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("log_cond, kernel", [(0, 0), (3, 0), (6, 0), (3, 4), (6, 4)])
def test_epsilon_matches_dense_powers(complex_field, log_cond, kernel):
    # H = M^{1/2} (I + E) M^{1/2}: a shared kernel when M is rank-deficient,
    # cond(M) on its range up to 1e6
    rng = make_rng(47)
    n = 24
    mu = np.concatenate([np.zeros(kernel), np.logspace(0.0, log_cond, n - kernel)])
    u = random_unitary(rng, n, complex_field)
    m_half = (u * np.sqrt(mu)) @ u.conj().T
    z = rng.standard_normal((n, n))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, n))
    e = (z + z.conj().T) / 2.0
    e *= 0.3 / np.linalg.norm(e, 2)
    h = HermitianMatrix(m_half @ (np.eye(n) + e) @ m_half)
    m = HermitianMatrix((u * mu) @ u.conj().T)
    ref = _ref_epsilon(h, m)
    assert abs(eta_exact(FormPair(h, m)).epsilon - ref) <= 1e-10 * ref


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


# ---------------------------------------------------------------------------
# exactly diagonal matrices: sorted diagonal, no LAPACK
# ---------------------------------------------------------------------------

def _diagonal_cases():
    rng = make_rng(60)
    wide = rng.standard_normal(40) * 10.0 ** rng.uniform(-6.0, 6.0, 40)
    return {
        "n1": np.array([2.5]),
        "n1-negative": np.array([-3.0]),
        "ties-zeros-negatives": rng.choice([-2.0, 0.0, 1.0, 4.0], size=12),
        "all-zero": np.zeros(5),
        "wide": wide,
        "wide-ties": np.concatenate([wide, wide[:10], -wide[10:15]])[rng.permutation(55)],
    }


DIAGONAL_CASES = _diagonal_cases()


def _eigenspace_projector(vectors, values, value):
    basis = vectors[:, values == value]
    return basis @ basis.conj().T


@pytest.mark.parametrize("d", DIAGONAL_CASES.values(), ids=DIAGONAL_CASES.keys())
def test_diagonal_decomposes_by_sorting(d, monkeypatch):
    ref_lam, ref_v = np.linalg.eigh(np.diag(d))

    def no_lapack(*_, **__):
        raise AssertionError("a diagonal matrix reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    dec = HermitianMatrix(np.diag(d)).decomposition
    assert dec.eigenvalues.tobytes() == ref_lam.tobytes()
    assert not (dec.eigenvalues.flags.writeable or dec.vectors.flags.writeable
                or dec.perm.flags.writeable)
    np.testing.assert_array_equal(dec.vectors.T @ dec.vectors, np.eye(d.size))
    # V[:, j] = e_{perm[j]}, ties in their diagonal order
    np.testing.assert_array_equal(dec.perm, np.argsort(d, kind="stable"))
    np.testing.assert_array_equal(dec.vectors, np.eye(d.size)[:, dec.perm])
    for value in np.unique(d):
        np.testing.assert_allclose(_eigenspace_projector(dec.vectors, dec.eigenvalues, value),
                                   _eigenspace_projector(ref_v, ref_lam, value), atol=1e-14)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex-zero-imag"])
@pytest.mark.parametrize("d", DIAGONAL_CASES.values(), ids=DIAGONAL_CASES.keys())
def test_diagonal_decomposition_matches_public_constructor(d, complex_field):
    # the sort-order construction yields the arrays the checked constructor
    # stores for the same dense basis, bit for bit, and the sort order as perm
    dec = HermitianMatrix(np.diag(d) + (0j if complex_field else 0.0)).decomposition
    order = np.argsort(d, kind="stable")
    ref = SpectralDecomposition(np.sort(d, kind="stable"), np.eye(d.size)[:, order])
    for name in ("eigenvalues", "vectors"):
        got, want = getattr(dec, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    np.testing.assert_array_equal(dec.perm, order)
    assert not dec.perm.flags.writeable and ref.perm is None


def test_diagonal_build_copies_once(monkeypatch):
    # the model's H at the linear table's size: one input copy, no
    # symmetrized copy, no second pass over the dense eigenbasis
    n = 641
    copies = []
    tidy = matcore._tidy_field
    monkeypatch.setattr(matcore, "_tidy_field",
                        lambda a: copies.append(np.shape(a)) or tidy(a))
    h = HermitianMatrix(np.diag(make_rng(61).uniform(1.0, 100.0, n)))
    assert h.decomposition.perm is not None
    assert copies.count((n, n)) <= 1


@pytest.mark.parametrize("route", ["from_diagonal", "dense"])
@pytest.mark.parametrize("d", DIAGONAL_CASES.values(), ids=DIAGONAL_CASES.keys())
def test_diagonal_dense_arrays_built_on_first_read(d, route):
    # both entry points share _diagonal and perm; the constructor from the
    # diagonal builds no n x n array until mat or vectors is read, and then
    # the arrays the dense input would hold, read-only and cached
    h = (HermitianMatrix.from_diagonal(d) if route == "from_diagonal"
         else HermitianMatrix(np.diag(d)))
    dec = h.decomposition
    x = make_rng(63).standard_normal((d.size, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # some cases hold zeros
        h.apply(x), h.solve(x), dec.from_eigenbasis(dec.to_eigenbasis(x))
    assert h.n == d.size and ("mat" in vars(h)) == (route == "dense")
    assert "vectors" not in vars(dec)
    np.testing.assert_array_equal(dec.perm, np.argsort(d, kind="stable"))
    for got, want in ((h.mat, np.diag(d)), (dec.vectors, np.eye(d.size)[:, dec.perm])):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert h.mat is h.mat and dec.vectors is dec.vectors and dec is h.decomposition


@pytest.mark.parametrize("d", [np.array([1.0, np.nan]), [np.inf], np.array([1.0 + 0j]),
                               np.zeros(0), np.eye(2), ["1.0"]],
                         ids=["nan", "inf", "complex", "empty", "2-d", "text"])
def test_from_diagonal_rejects_malformed(d):
    with pytest.raises(ValueError, match="non-finite|nonempty real 1-d diagonal"):
        HermitianMatrix.from_diagonal(d)


@pytest.mark.parametrize("perm", [np.array([0, 0, 2]), np.array([0, 1, 3]), np.array([1, 2])],
                         ids=["repeated", "out-of-range", "short"])
def test_permutation_construction_checks_indices(perm):
    with pytest.raises(ValueError):
        SpectralDecomposition._permutation(np.arange(3.0), perm)


# ---------------------------------------------------------------------------
# a hand-built permutation eigenbasis takes the generic orthonormality check
# ---------------------------------------------------------------------------

def _permutation_cases():
    perm = np.eye(9)[:, make_rng(62).permutation(9)]
    signed = perm.copy()
    signed[:, 4] *= -1.0
    return {"identity": np.eye(6), "n1": np.eye(1), "random": perm,
            "random-complex": perm.astype(np.complex128), "signed": signed}


PERMUTATION_CASES = _permutation_cases()


@pytest.mark.parametrize("v", PERMUTATION_CASES.values(), ids=PERMUTATION_CASES.keys())
def test_permutation_eigenbasis_accepted(v):
    # 0/1 and signed permutations pass the V* V check, whose defect is exactly
    # 0; only the diagonal decomposition's _permutation sets perm
    dec = SpectralDecomposition(np.arange(v.shape[0], dtype=float), v)
    np.testing.assert_array_equal(dec.vectors, v.real)
    assert dec.perm is None


def _duplicated_column():
    v = np.eye(5)
    v[:, 3] = v[:, 1]  # five ones, row 3 empty, row 1 holds two
    return v


@pytest.mark.parametrize("v", [_duplicated_column(), _duplicated_column().T,
                               np.eye(5)[:, ::-1] * (1.0 + 1e-9)],
                         ids=["duplicated-column", "duplicated-row", "scaled"])
def test_near_permutation_rejected(v):
    with pytest.raises(ValueError, match="not orthonormal"):
        SpectralDecomposition(np.arange(5.0), v)


# ---------------------------------------------------------------------------
# perm and the products by index: row scaling, gather and scatter
# ---------------------------------------------------------------------------

def _operands(rng, n):
    """Real and complex blocks, an F-ordered block (the layout of an SVD
    basis), a vector, and a block holding signed zeros."""
    z = rng.standard_normal((n, 3))
    zeros = z.copy()
    zeros[::2, 0] = -0.0
    zeros[1::2, 1] = 0.0
    return [z, z + 1j * rng.standard_normal((n, 3)), np.asfortranarray(z), z[:, 0], zeros]


def _bases():
    # V[:, j] = e_{perm[j]}: perm[j] is the row of column j's one
    cases = {name: SpectralDecomposition._permutation(np.arange(v.shape[0], dtype=float),
                                                      np.argmax(v.real, axis=0))
             for name, v in PERMUTATION_CASES.items() if not (v == -1).any()}
    cases["diagonal-ties"] = HermitianMatrix(
        np.diag(DIAGONAL_CASES["wide-ties"])).decomposition
    return cases


BASES = _bases()


@pytest.mark.parametrize("dec", BASES.values(), ids=BASES.keys())
def test_eigenbasis_helpers_exact_on_permutation(dec):
    v = dec.vectors
    for x in _operands(make_rng(64), v.shape[0]):
        # array_equal treats -0.0 and +0.0 as equal: a BLAS sum may flip the
        # sign of a zero, an index operation does not
        assert np.array_equal(dec.to_eigenbasis(x), v.conj().T @ x)
        assert np.array_equal(dec.from_eigenbasis(x), v @ x)


@pytest.mark.parametrize("d", DIAGONAL_CASES.values(), ids=DIAGONAL_CASES.keys())
def test_apply_exact_on_diagonal(d):
    h = HermitianMatrix(np.diag(d))
    for x in _operands(make_rng(65), d.size):
        hx = h.apply(x)
        assert np.array_equal(hx, h.mat @ x)
        assert hx.dtype == (h.mat @ x).dtype and hx.flags.c_contiguous


@pytest.mark.parametrize("complex_field", [False, True])
def test_solve_bits(complex_field):
    # LU on a dense H; on a diagonal H the row scaling by 1 / d, which is
    # what the Ritz LU route computed before it moved into HermitianMatrix
    rng = make_rng(69)
    lam = rng.uniform(0.5, 20.0, 30)
    diag = HermitianMatrix(np.diag(lam))
    dense = hermitian_from_spectrum(rng, lam, complex_field)
    for x in _operands(rng, 30):
        scale = (1.0 / lam)[:, None] if x.ndim == 2 else 1.0 / lam
        assert diag.solve(x).tobytes() == (x * scale).tobytes()
        assert dense.solve(x).tobytes() == np.linalg.solve(dense.mat, x).tobytes()
    for h in (diag, dense, HermitianMatrix(np.diag([2.0]))):
        with pytest.raises(ValueError, match="does not match dimension"):
            h.solve(np.ones((5, 2)))


def test_only_matcore_reads_diagonal_and_perm():
    # the diagonal decision and the permutation stay private to matcore
    package = pathlib.Path(matcore.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "matcore.py"
               and re.search(r"\._diagonal\b|\.perm\b", path.read_text())]
    assert readers == []


def test_one_rank_rule_in_matcore():
    # the rank cutoff lives in matcore._range_mask alone, with no absolute floor
    package = pathlib.Path(matcore.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [name for name, text in sources.items() if "ZERO_TOL" in text] == ["matcore.py"]
    assert [name for name, text in sources.items() if "1e-300" in text] == []
    readers = {fn.name for fn in ast.walk(ast.parse(sources["matcore.py"]))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "ZERO_TOL"}
    assert readers == {"_range_mask"}


def test_package_leaves_warning_state_alone():
    # catching, filtering or re-issuing warnings swaps process-wide state, which
    # threads share: a result carries its diagnostics as data instead
    package = pathlib.Path(matcore.__file__).parent
    touched = [(path.name, word) for path in sorted(package.glob("*.py"))
               for word in ("catch_warnings", "simplefilter", "filterwarnings", "warn_explicit")
               if word in path.read_text()]
    assert touched == []


@pytest.mark.parametrize("complex_field", [False, True])
def test_helpers_are_products_on_dense(complex_field):
    rng = make_rng(66)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 20.0, 30), complex_field)
    dec = h.decomposition
    assert dec.perm is None
    for x in _operands(rng, h.n):
        for got, ref in ((dec.to_eigenbasis(x), dec.vectors.conj().T @ x),
                         (dec.from_eigenbasis(x), dec.vectors @ x),
                         (h.apply(x), h.mat @ x)):
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("tiny", [5e-324, 1e-300], ids=["subnormal", "1e-300"])
def test_any_off_diagonal_entry_takes_lapack(tiny, monkeypatch):
    # the detection is exact: one nonzero off-diagonal entry, however small,
    # sends the matrix to LAPACK
    mat = np.diag([3.0, 1.0, 2.0, 5.0])
    mat[0, 2] = mat[2, 0] = tiny
    h = HermitianMatrix(mat)
    assert h.mat[0, 2] == tiny
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    np.testing.assert_array_equal(h.decomposition.eigenvalues, eigh(mat)[0])
    assert len(calls) == 1


def test_require_positive_rejects_negative_diagonal():
    dec = HermitianMatrix(np.diag([2.0, -1e-3, 5.0])).decomposition
    with pytest.raises(ValueError, match="positive definite"):
        require_positive(dec, "H", definite=True)
    with pytest.raises(ValueError, match="positive semidefinite"):
        require_positive(dec, "H", definite=False)


@pytest.mark.parametrize("complex_field", [False, True])
def test_eta_routes_on_diagonal(complex_field, monkeypatch):
    rng = make_rng(61)
    n, k = 30, 3
    lam = rng.uniform(0.5, 20.0, n)
    p = random_projection(rng, n, k, complex_field)
    eta_eig, eta_lu, _ = eta_routes(HermitianMatrix(np.diag(lam)), p)
    # a rotated copy of the same spectrum and trial space has the same etas
    q = random_unitary(rng, n, complex_field=False)
    rotated = eta_routes(HermitianMatrix((q * lam) @ q.T), Projection(q @ p.basis))[:2]
    for got in (eta_eig, eta_lu):
        for ref in rotated:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(ref))
    # with the diagonal test switched off the LU route is np.linalg.solve:
    # the same bits
    monkeypatch.setattr(HermitianMatrix, "_diagonal", property(lambda self: None))
    assert eta_routes(HermitianMatrix(np.diag(lam)), p)[1].tobytes() == eta_lu.tobytes()


def _table_path_outputs(h, p, next_ev):
    est = ritz_bounds(h, p, next_ev)
    return (*eta_routes(h, p), est.etas,
            np.array([est.eta_disagreement, est.ritz_min, est.ritz_max, est.bound_op,
                      est.bound_hs, est.true_op, est.true_hs, est.hypothesis_ok]),
            np.array([dk_residual_bound(h, p.basis, next_ev, norm) for norm in ("op", "hs")]))


def _poison(h):
    """Overwrite H's matrix and its cached eigenbasis with NaN in place."""
    dec = h.decomposition
    object.__setattr__(h, "mat", np.full_like(h.mat, np.nan))
    object.__setattr__(dec, "vectors", np.full_like(dec.vectors, np.nan))


@pytest.mark.parametrize("complex_field", [False, True])
def test_diagonal_path_never_reads_dense_arrays(complex_field):
    # every product with a diagonal H or its eigenbasis goes by index, so
    # NaN in the dense arrays changes no output bit; the model's H, built
    # from its diagonal, has not even formed them when the outputs are in
    rng = make_rng(67)
    lam = rng.uniform(0.5, 20.0, 40)
    for h, from_diagonal in ((HermitianMatrix(np.diag(lam)), False),
                             (mathieu_model(np.pi - 1e-4, 0.2499, 20).h, True)):
        n, k = h.n, 2
        lam = h._diagonal
        # a tilt of the two lowest eigenvectors: every bound is defined
        p = Projection.from_span(np.eye(n)[:, np.argsort(lam)[:k]]
                                 + 0.02 * random_projection(rng, n, k, complex_field).basis)
        next_ev = float(np.sort(lam)[k])
        assert h._diagonal is not None and h.decomposition.perm is not None
        before = _table_path_outputs(h, p, next_ev)
        assert np.all(np.isfinite(np.concatenate(before)))
        if from_diagonal:
            assert "mat" not in vars(h) and "vectors" not in vars(h.decomposition)
        _poison(h)
        after = _table_path_outputs(h, p, next_ev)
        for got, ref in zip(after, before):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("call", ["eta_routes", "ritz_bounds", "dk_residual_bound"])
def test_dense_path_reads_poisoned_arrays(call):
    # the same poisoning of a dense H reaches every output: the test above bites
    rng = make_rng(68)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 20.0, 40), complex_field=False)
    p = random_projection(rng, 40, 2)
    _poison(h)
    with np.errstate(all="ignore"):
        try:
            if call == "eta_routes":
                out = np.concatenate(eta_routes(h, p))
            elif call == "ritz_bounds":
                out = np.array(ritz_bounds(h, p, 30.0).ritz_max)
            else:
                out = np.array(dk_residual_bound(h, p.basis, 30.0), dtype=float)
        except (np.linalg.LinAlgError, RuntimeError, ValueError):
            return
    assert not np.all(np.isfinite(out))


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
    """Record eigh/eigvalsh calls on matrices of dimension >= N/2, svd calls
    with either dimension >= N/2, 2-norms of matrices with both dimensions
    >= N/2 (numpy's 2-norm runs its own SVD, which patching svd misses), and
    solves whose coefficient matrix has dimension >= N/2."""
    counts = []

    def counting(fn, large):
        def wrapper(a, *args, **kwargs):
            if large(np.shape(a), *args, **kwargs):
                counts.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    def square(shape, *_, **__):
        return shape[-1] >= N // 2

    checks = {
        "eigh": square,
        "eigvalsh": square,
        "svd": lambda shape, *_, **__: max(shape[-2:]) >= N // 2,
        "norm": lambda shape, ord=None, *_, **__: (ord == 2 and len(shape) == 2
                                                  and min(shape) >= N // 2),
        "solve": square,
    }
    for name, large in checks.items():
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), large))
    return counts


def _counted(counts, call, names=("eigh", "eigvalsh", "svd", "norm")) -> int:
    counts.clear()
    call()
    return sum(name in names for name in counts)


def test_decompositions_per_public_call(large_decompositions, monkeypatch):
    counts = large_decompositions
    rng = make_rng(45)

    def hs_bounds():
        h, m = _pair(make_rng(46))
        hs_subspace_bounds(h, m, D1)
        assert all(np.count_nonzero(eig_herm(x).eigenvalues <= D1) == RANK for x in (h, m))

    def sylvester_path():
        a = hermitian_from_spectrum(rng, rng.uniform(3.0, 9.0, N), complex_field=False)
        m = hermitian_from_spectrum(rng, rng.uniform(0.4, 2.0, N), complex_field=False)
        prob = WeakSylvesterProblem(a, m, rng.standard_normal((N, N)))
        weak_residual(prob, solve_weak_spectral(prob))
        sylvester_bounds(prob)

    # from_span's n-by-k SVD builds the Ritz input, so it runs outside the count
    ritz_h, ritz_p = _pair(rng)[0], random_projection(rng, N, RANK)
    # eigh/eigvalsh, SVDs and 2-norms per call; sqrt_pair makes two eigh and the
    # 2-norms of T and X, the Sylvester path those of ||F|| and the residual,
    # all reported values
    budget = {
        "eta_exact": (lambda: eta_exact(FormPair(*_pair(rng))), 3),
        "subspace_bounds": (lambda: subspace_bounds(*_pair(rng), D1, D2), 3),
        "hs_subspace_bounds": (hs_bounds, 2),
        "ritz_bounds": (lambda: ritz_bounds(ritz_h, ritz_p, next_ev=3.0), 1),
        "sqrt_pair": (lambda: sqrt_pair(*_pair(rng)), 4),
        "sylvester solve": (sylvester_path, 4),
    }
    assert _counted(counts, lambda: _pair(rng)) == 0  # the inputs cost nothing
    used = {name: _counted(counts, call) for name, (call, _) in budget.items()}
    over = [name for name, (_, most) in budget.items() if used[name] > most]
    assert not over, used
    # the Ritz estimate works on n-by-k blocks: no n-sized SVD, no complement basis
    h, p = _pair(rng)[0], random_projection(rng, N, RANK)
    assert _counted(counts, lambda: ritz_bounds(h, p, next_ev=3.0), ("svd", "norm")) == 0
    assert _counted(counts, lambda: ritz_bounds(h, p, next_ev=3.0), ("solve",)) == 1
    # an exactly diagonal H decomposes by sorting and its LU route is a row
    # scaling: no n-sized eigh/eigvalsh/svd and no n-by-n solve at all
    diag_h = HermitianMatrix(np.diag(rng.uniform(0.5, 10.0, N)))
    assert _counted(counts, lambda: ritz_bounds(diag_h, p, next_ev=3.0),
                    ("eigh", "eigvalsh", "svd", "solve")) == 0
    # the subspace truths come from n-by-k blocks and eta from the difference
    # pencil: no n-by-n SVD or 2-norm at all
    h, m = _pair(rng)
    assert _counted(counts, lambda: subspace_bounds(h, m, D1, D2), ("svd",)) == 0
    assert _counted(counts, lambda: subspace_bounds(h, m, D1, D2), ("norm",)) == 0
    assert _counted(counts, hs_bounds, ("norm",)) == 0
    # the HS gaps are read from the cached eigenvalues: no complement basis and
    # no compression spectrum
    assert _counted(counts, hs_bounds, ("svd", "eigvalsh")) == 0
    # T and X come from the formed S: the only eigvalsh in sqrt_pair are the
    # Gram 2-norms of T and X, no difference-pencil one
    norms = []
    monkeypatch.setattr(sqroot, "op_norm", lambda a: norms.append(a) or matcore.op_norm(a))
    assert _counted(counts, lambda: sqrt_pair(*_pair(rng)), ("eigvalsh",)) == len(norms) == 2


@pytest.mark.parametrize("complex_field", [False, True])
def test_eta_routes_is_one_small_eigh(complex_field, monkeypatch):
    # H11^{-1/2} enters as the congruence factor of one k-by-k eigh: no
    # HermitianMatrix, SpectralDecomposition or fractional power on the way
    rng = make_rng(47)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, N), complex_field=complex_field)
    p = random_projection(rng, N, RANK, complex_field)
    ref = eta_routes(h, p)  # decomposes H, once
    eighs, eigvalshs, built, norms = [], [], [], []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: eigvalshs.append(np.shape(a)) or eigvalsh(a))
    for cls in (HermitianMatrix, SpectralDecomposition):
        monkeypatch.setattr(cls, "__post_init__", lambda self, _: built.append(self))
    monkeypatch.setattr(SpectralDecomposition, "_permutation", lambda *a: built.append(a))
    monkeypatch.setattr(matcore, "fractional_power", lambda *a: built.append(a))
    got = eta_routes(h, p)
    # the pencils of both routes, stacked
    assert eighs == [(RANK, RANK)] and eigvalshs == [(2, RANK, RANK)] and built == []
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()
    # ritz_bounds takes its Ritz values from that eigh: its only other k-by-k
    # eigvalsh is the Gram 2-norm of the true error
    eighs.clear()
    eigvalshs.clear()
    monkeypatch.setattr(ritz, "op_norm", lambda a: norms.append(a) or matcore.op_norm(a))
    est = ritz_bounds(h, p, next_ev=20.0)
    assert eighs == [(RANK, RANK)] and built == [] and len(norms) == 1
    assert eigvalshs == [(2, RANK, RANK), (RANK, RANK)]
    assert (est.ritz_min, est.ritz_max) == (ref[2][0], ref[2][-1])


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("power", [-1.0, -0.5, 0.25, 0.5, 1.0])
def test_fractional_power_is_exactly_hermitian(complex_field, power):
    rng = make_rng(48)
    h = hermitian_from_spectrum(rng, rng.uniform(0.5, 10.0, 12), complex_field=complex_field)
    out = matcore.fractional_power(eig_herm(h), power)
    assert np.array_equal(out.mat, out.mat.conj().T)
