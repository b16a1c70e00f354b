import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relgap.matcore import (
    HermitianMatrix,
    Projection,
    _tidy_field,
    apply_spectral_fn,
    eig_herm,
    fractional_power,
    hs_norm,
    load_matrix,
    norms,
    op_norm,
    pseudo_inverse,
    save_matrix,
    spectral_projector,
    spectral_projector_below,
    svd,
)

from conftest import hermitian_from_spectrum, make_rng, random_hermitian


class TestHermitianMatrix:
    def test_symmetrizes(self):
        h = HermitianMatrix(np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]]))
        np.testing.assert_allclose(h.mat, h.mat.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[1.0, 2.0], [0.5, 3.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_real_field_is_kept(self):
        assert HermitianMatrix(np.eye(2)).field == "real"
        assert HermitianMatrix((np.eye(2) + 0j)).field == "real"  # imag part is zero
        z = np.array([[1.0, 1j], [-1j, 2.0]])
        assert HermitianMatrix(z).field == "complex"


class TestEig:
    def test_identity(self):
        dec = eig_herm(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1])
        np.testing.assert_allclose(dec.vectors @ dec.vectors.conj().T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted(self):
        dec = eig_herm(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 4.0])

    def test_two_by_two(self):
        dec = eig_herm(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        overlap = np.abs(np.sum(expected.conj() * dec.vectors, axis=0))
        np.testing.assert_allclose(overlap, [1.0, 1.0], atol=1e-14)

    def test_reconstruction_random(self):
        for trial in range(100):
            rng = make_rng(trial)
            n = int(rng.integers(1, 21))
            a = random_hermitian(rng, n, complex_field=bool(trial % 2))
            dec = eig_herm(a)
            scale = max(hs_norm(a), 1e-30)
            assert hs_norm(dec.reconstruct() - a.mat) <= 1e-11 * scale
            gram = dec.vectors.conj().T @ dec.vectors
            assert hs_norm(gram - np.eye(n)) <= 1e-12 * np.sqrt(n)

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 8, complex_field=True)
        d1, d2 = eig_herm(a), eig_herm(a)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.vectors, d2.vectors)


class TestSvd:
    def test_zero(self):
        s, _, _ = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_rank_one(self, rng):
        p = rng.standard_normal(4)
        p /= np.linalg.norm(p)
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        s, _, _ = svd(np.outer(p, q))
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-14)

    def test_diagonal_with_sign(self):
        s, u, v = svd(np.array([[3.0, 0.0], [0.0, -4.0]]))
        np.testing.assert_allclose(s, [4.0, 3.0])
        a = np.array([[3.0, 0.0], [0.0, -4.0]])
        np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, a, atol=1e-14)

    def test_factorization_random(self, rng):
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s, u, v = svd(a)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, a, atol=1e-11 * hs_norm(a))


class TestSpectralCalculus:
    def test_sqrt(self):
        out = apply_spectral_fn(eig_herm(np.diag([4.0, 9.0])), np.sqrt)
        np.testing.assert_allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_pseudo_inverse_zero_convention(self):
        out = pseudo_inverse(eig_herm(np.diag([4.0, 0.0])))
        np.testing.assert_allclose(out.mat, np.diag([0.25, 0.0]), atol=1e-14)

    def test_quarter_power(self):
        out = fractional_power(eig_herm(np.diag([16.0])), 0.25)
        np.testing.assert_allclose(out.mat, [[2.0]], atol=1e-14)

    def test_identity_function_reproduces(self, rng):
        a = random_hermitian(rng, 7, complex_field=True)
        out = apply_spectral_fn(eig_herm(a), lambda x: x)
        np.testing.assert_allclose(out.mat, a.mat, atol=1e-12 * max(hs_norm(a), 1.0))

    def test_pinv_composition_is_range_projector(self, rng):
        u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = HermitianMatrix(u @ np.diag([3.0, 1.5, 0.7, 0.0, 0.0]) @ u.T)
        dec = eig_herm(a)
        pinv = pseudo_inverse(dec)
        proj = a.mat @ pinv.mat
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj @ a.mat, a.mat, atol=1e-12)

    def test_moore_penrose_identities(self, rng):
        u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        a = HermitianMatrix(u @ np.diag([5.0, 2.0, 1.0, 0.4, 0.0, 0.0]) @ u.T).mat
        x = pseudo_inverse(eig_herm(a)).mat
        np.testing.assert_allclose(a @ x @ a, a, atol=1e-10)
        np.testing.assert_allclose(x @ a @ x, x, atol=1e-10)
        np.testing.assert_allclose((a @ x).conj().T, a @ x, atol=1e-10)
        np.testing.assert_allclose((x @ a).conj().T, x @ a, atol=1e-10)

    def test_fractional_power_negative_eigenvalue_rejected(self):
        dec = eig_herm(np.diag([-1.0, 2.0]))
        with pytest.raises(ValueError, match="-1"):
            fractional_power(dec, 0.5)

    def test_nonfinite_rejected(self):
        dec = eig_herm(np.diag([0.0, 2.0]))
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(divide="ignore"):
                apply_spectral_fn(dec, np.log, zero_tol=0.0)


class TestNorms:
    def test_identity(self):
        out = norms(np.eye(2))
        assert out.op == pytest.approx(1.0)
        assert out.hs == pytest.approx(np.sqrt(2.0))

    def test_rank_one_unit(self, rng):
        p = rng.standard_normal(5)
        p /= np.linalg.norm(p)
        q = rng.standard_normal(5)
        q /= np.linalg.norm(q)
        out = norms(np.outer(p, q))
        assert out.op == pytest.approx(1.0)
        assert out.hs == pytest.approx(1.0)

    def test_three_four_five(self):
        out = norms(np.diag([3.0, 4.0]))
        assert out.op == pytest.approx(4.0)
        assert out.hs == pytest.approx(5.0)

    def test_op_below_hs_random(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 7))
            assert op_norm(a) <= hs_norm(a) + 1e-12


class TestSpectralProjector:
    def test_below_cutoff(self):
        dec = eig_herm(np.diag([1.0, 4.0]))
        p = spectral_projector_below(dec, 2.0)
        np.testing.assert_allclose(p.projector, np.diag([1.0, 0.0]), atol=1e-14)

    def test_empty_selection(self):
        dec = eig_herm(np.diag([1.0, 4.0]))
        p = spectral_projector_below(dec, 0.5)
        assert p.rank == 0
        np.testing.assert_allclose(p.projector, np.zeros((2, 2)))

    def test_band(self):
        dec = eig_herm(np.diag([1.0, 2.0, 5.0]))
        p = spectral_projector(dec, 1.5, 3.0)
        assert p.rank == 1
        np.testing.assert_allclose(p.projector, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_bad_interval(self):
        dec = eig_herm(np.eye(2))
        with pytest.raises(ValueError, match="order"):
            spectral_projector(dec, 2.0, 1.0)

    def test_monotone_in_cutoff(self, rng):
        a = random_hermitian(rng, 9, complex_field=True)
        dec = eig_herm(a)
        cuts = sorted(rng.uniform(dec.eigenvalues[0], dec.eigenvalues[-1], size=4))
        for d1, d2 in zip(cuts, cuts[1:]):
            p1 = spectral_projector_below(dec, d1)
            p2 = spectral_projector_below(dec, d2)
            # range inclusion: P2 P1 = P1
            np.testing.assert_allclose(p2.projector @ p1.projector, p1.projector, atol=1e-12)

    def test_order_relation_dimension_counts(self):
        # for M <= H (form order): dim E_H(g) <= dim E_M(g) and eigenvalue-wise
        # monotonicity
        for trial in range(30):
            rng = make_rng(1000 + trial)
            n = int(rng.integers(2, 10))
            m = random_hermitian(rng, n, complex_field=bool(trial % 2))
            z = rng.standard_normal((n, n))
            if trial % 2:
                z = z + 1j * rng.standard_normal((n, n))
            h = HermitianMatrix(m.mat + z @ z.conj().T)
            dec_m, dec_h = eig_herm(m), eig_herm(h)
            assert np.all(dec_m.eigenvalues <= dec_h.eigenvalues + 1e-10)
            for gamma in rng.uniform(dec_m.eigenvalues[0], dec_h.eigenvalues[-1], size=3):
                dim_h = spectral_projector_below(dec_h, gamma).rank
                dim_m = spectral_projector_below(dec_m, gamma).rank
                assert dim_h <= dim_m


class TestProjection:
    def test_from_span_orthonormalizes(self, rng):
        cols = rng.standard_normal((6, 3)) @ np.diag([1.0, 5.0, 0.2])
        p = Projection.from_span(cols)
        assert p.rank == 3
        np.testing.assert_allclose(p.basis.conj().T @ p.basis, np.eye(3), atol=1e-12)

    def test_from_span_detects_rank(self, rng):
        v = rng.standard_normal((5, 1))
        p = Projection.from_span(np.hstack([v, 2 * v, -0.5 * v]))
        assert p.rank == 1

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Projection(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_complement(self, rng):
        p = Projection.from_span(rng.standard_normal((7, 3)))
        c = p.complement()
        assert c.rank == 4
        np.testing.assert_allclose(p.projector + c.projector, np.eye(7), atol=1e-12)

    def test_idempotent(self, rng):
        p = Projection.from_span(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        pp = p.projector
        np.testing.assert_allclose(pp @ pp, pp, atol=1e-12)
        assert np.linalg.matrix_rank(pp) == p.rank


# signed zeros, the smallest subnormal, the smallest normal, the largest double
# and a value with no short decimal form
ADVERSARIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]


def _bits(a: np.ndarray):
    """Dtype, shape and raw bytes: equal only if every entry has the same bits
    (unlike ``assert_array_equal``, which treats -0 == 0)."""
    return a.dtype, a.shape, a.tobytes()


def _reference_save(dest, a) -> None:
    """One f-string per entry: the writer the row-format one replaced, kept as
    the oracle for byte-identical output."""
    mat = _tidy_field(np.atleast_2d(np.asarray(a)))
    n, m = mat.shape
    field = "complex" if np.iscomplexobj(mat) else "real"
    lines = [f"{n} {m} {field}"]
    for row in mat:
        if field == "complex":
            toks = [f"{z.real:.17g} {z.imag:.17g}" for z in row]
        else:
            toks = [f"{x:.17g}" for x in row]
        lines.append(" ".join(toks))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
        return
    with open(dest, "w") as fh:
        fh.write(text)


def _adversarial_matrix(rng, shape, complex_field: bool) -> np.ndarray:
    """Entries over 600 decades, led by the ``ADVERSARIAL`` values."""
    def part(values):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        k = min(x.size, len(values))
        x.flat[:k] = values[:k]
        return x

    if not complex_field:
        return part(ADVERSARIAL)
    a = np.empty(shape, dtype=np.complex128)
    a.real, a.imag = part(ADVERSARIAL), part(ADVERSARIAL[::-1])
    return a


class TestMatrixTextFormat:
    def test_real_roundtrip_bit_exact(self, tmp_path, rng):
        a = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        a = np.append(a.ravel(), ADVERSARIAL).reshape(4, 5)
        path = tmp_path / "a.mtx"
        save_matrix(path, a)
        assert _bits(load_matrix(path)) == _bits(a)

    def test_complex_roundtrip_bit_exact(self, tmp_path, rng):
        re = np.append(rng.standard_normal(7), ADVERSARIAL)
        im = np.append(ADVERSARIAL[::-1], rng.standard_normal(7))
        a = np.empty((3, 5), dtype=np.complex128)
        a.real, a.imag = re.reshape(3, 5), im.reshape(3, 5)  # ``re + 1j * im`` loses -0
        path = tmp_path / "a.mtx"
        save_matrix(path, a)
        assert _bits(load_matrix(path)) == _bits(a)

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 7), (100, 100), (300, 5)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_writer_matches_reference(self, shape, complex_field, tmp_path):
        a = _adversarial_matrix(make_rng(shape[0] + 1000 * shape[1]), shape, complex_field)
        ref_path, path = tmp_path / "ref.mtx", tmp_path / "a.mtx"
        _reference_save(ref_path, a)
        save_matrix(path, a)
        assert path.read_bytes() == ref_path.read_bytes()
        ref_stream, stream = io.StringIO(), io.StringIO()
        _reference_save(ref_stream, a)
        save_matrix(stream, a)
        assert stream.getvalue() == ref_stream.getvalue()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reader_layouts_match_float_loop(self, field, tmp_path):
        """Any whitespace layout and any token ``float()`` accepts load to the
        bits of a per-token ``float()`` parse."""
        toks = [repr(x) for x in ADVERSARIAL] + ["1E+300", "+2.5", "1_0", "-7.25e-5"]
        body = (f"{toks[0]}\r\n" + "\t".join(toks[1:6]) + "\r\n\r\n\n"
                + "   ".join(toks[6:9]) + " \t\r\n" + "\n\n".join(toks[9:]) + "  ")
        shape = (3, 4) if field == "real" else (2, 3)
        path = tmp_path / "layout.mtx"
        path.write_bytes(f"{shape[0]} {shape[1]} {field}\r\n{body}".encode())
        vals = [float(t) for t in toks]
        if field == "complex":
            vals = [complex(re, im) for re, im in zip(vals[0::2], vals[1::2])]
        assert _bits(load_matrix(path)) == _bits(np.array(vals).reshape(shape))

    def test_header(self, tmp_path):
        path = tmp_path / "a.mtx"
        save_matrix(path, np.eye(2))
        first = path.read_text().splitlines()[0]
        assert first == "2 2 real"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 real\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 4 numbers"):
            load_matrix(path)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e30, max_value=1e30),
                           min_size=1, max_size=12))
    def test_roundtrip_property(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("fmt") / "m.mtx"
        a = np.array(values).reshape(1, -1)
        save_matrix(path, a)
        np.testing.assert_array_equal(load_matrix(path), a)


def test_spectrum_factory_helper(rng):
    h = hermitian_from_spectrum(rng, [1.0, 2.0, 5.0], complex_field=True)
    np.testing.assert_allclose(eig_herm(h).eigenvalues, [1.0, 2.0, 5.0], atol=1e-12)


def _with_entry(value: float) -> np.ndarray:
    mat = np.eye(2)
    mat[0, 0] = value
    return mat


def _load_written(tmp_path, mat):
    path = tmp_path / "bad.mtx"
    path.write_text(f"2 2 real\n{mat[0, 0]} 0 0 1\n")
    return load_matrix(path)


def _sylvester_problem(f):
    from relgap.sylvester import WeakSylvesterProblem
    return WeakSylvesterProblem(HermitianMatrix(np.diag([4.0, 5.0])),
                                HermitianMatrix(np.diag([1.0, 2.0])), f)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [
    lambda mat, tmp: HermitianMatrix(mat),
    lambda mat, tmp: eig_herm(mat),
    lambda mat, tmp: Projection(mat[:, :1]),
    lambda mat, tmp: Projection.from_span(mat),
    lambda mat, tmp: _sylvester_problem(mat),
    lambda mat, tmp: _load_written(tmp, mat),
], ids=["hermitian", "eig_herm", "projection", "from_span", "sylvester_f", "load_matrix"])
def test_nonfinite_input_rejected(entry, value, tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        entry(_with_entry(value), tmp_path)
