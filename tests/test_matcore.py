import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relgap import matcore
from relgap.harness import mathieu_model
from relgap.matcore import (
    HermitianMatrix,
    Projection,
    SpectralDecomposition,
    _tidy_field,
    eig_herm,
    fractional_power,
    hs_norm,
    load_matrix,
    op_norm,
    save_matrix,
)

from conftest import hermitian_from_spectrum, make_rng, random_hermitian, spectral_projector


def _exact_hermitian_cases():
    rng = make_rng(70)
    a = rng.standard_normal((7, 7))
    z = a + 1j * rng.standard_normal((7, 7))
    return {"real": a + a.T, "complex": z + z.conj().T, "diagonal": np.diag(a[0]),
            "complex-diagonal": np.diag(a[0]) + 0j, "int": np.array([[2, -1], [-1, 2]])}


EXACT_HERMITIAN_CASES = _exact_hermitian_cases()


class TestHermitianMatrix:
    @pytest.mark.parametrize("a", EXACT_HERMITIAN_CASES.values(),
                             ids=EXACT_HERMITIAN_CASES.keys())
    def test_exact_hermitian_kept_bit_for_bit(self, a):
        # (a + a*) / 2 changes no bit of an exactly Hermitian input here, so
        # storing the input copy as given matches the symmetrized route
        h = HermitianMatrix(a)
        tidy = _tidy_field(a)
        assert h.mat.dtype == tidy.dtype and h.mat.tobytes() == tidy.tobytes()
        assert h.mat.tobytes() == _tidy_field((tidy + tidy.conj().T) / 2.0).tobytes()
        assert not h.mat.flags.writeable and not np.shares_memory(h.mat, a)
        before = h.mat.copy()
        a[...] = 0
        np.testing.assert_array_equal(h.mat, before)

    def test_symmetrizes(self):
        real = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
        for a in (real, real + 1j * np.array([[1e-16, 0.5 + 1e-16], [-0.5, 0.0]])):
            h = HermitianMatrix(a)
            np.testing.assert_array_equal(h.mat, h.mat.conj().T)
            assert h.mat.tobytes() == _tidy_field((a + a.conj().T) / 2.0).tobytes()

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.5, 3.0]])
        defect, scale = np.linalg.norm(a - a.T), np.linalg.norm(a)
        message = (f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds "
                   f"1e-13 * ||A||_F = {1e-13 * scale:.3e}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HermitianMatrix(a)

    def test_huge_exact_symmetric_accepted(self):
        # a + a overflows above DBL_MAX / 2; an exactly symmetric input is
        # stored without that sum, so it is accepted
        a = np.array([[1e308, -1.5e308], [-1.5e308, 1.7e308]])
        assert HermitianMatrix(a).mat.tobytes() == a.tobytes()

    @pytest.mark.parametrize("a", [[[1e200, 1e200], [0.0, 1.0]],
                                   [[1e300, -1e300], [1e300, 1.0]],
                                   [[1.7e308, -1.7e308], [1.7e308, 1.0]],
                                   [[1.0, 1.2e308 + 1.2e308j], [0.0, 1.0]]],
                             ids=["1e200", "1e300", "difference-overflows", "complex"])
    def test_rejects_huge_asymmetric_without_overflow(self, a):
        # squaring entries above 1e154 overflows: the norms are taken of
        # A / max|a_ij| so the check cannot compare inf with inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not Hermitian"):
                HermitianMatrix(np.array(a))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_real_field_is_kept(self):
        assert not np.iscomplexobj(HermitianMatrix(np.eye(2)).mat)
        assert not np.iscomplexobj(HermitianMatrix((np.eye(2) + 0j)).mat)  # imag part is zero
        z = np.array([[1.0, 1j], [-1j, 2.0]])
        assert np.iscomplexobj(HermitianMatrix(z).mat)


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
            rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
            assert hs_norm(rebuilt - a.mat) <= 1e-11 * scale
            gram = dec.vectors.conj().T @ dec.vectors
            assert hs_norm(gram - np.eye(n)) <= 1e-12 * np.sqrt(n)

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 8, complex_field=True)
        d1, d2 = eig_herm(a), eig_herm(a)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.vectors, d2.vectors)


class TestSpectralCalculus:
    def test_sqrt(self):
        out = fractional_power(eig_herm(np.diag([4.0, 9.0])), 0.5)
        np.testing.assert_allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_pseudo_inverse_zero_convention(self):
        out = fractional_power(eig_herm(np.diag([4.0, 0.0])), -1.0)
        np.testing.assert_allclose(out.mat, np.diag([0.25, 0.0]), atol=1e-14)

    def test_quarter_power(self):
        out = fractional_power(eig_herm(np.diag([16.0])), 0.25)
        np.testing.assert_allclose(out.mat, [[2.0]], atol=1e-14)

    def test_identity_function_reproduces(self, rng):
        a = random_hermitian(rng, 7, complex_field=True)
        out = fractional_power(eig_herm(a), 1.0)
        np.testing.assert_allclose(out.mat, a.mat, atol=1e-12 * max(hs_norm(a), 1.0))

    def test_pinv_composition_is_range_projector(self, rng):
        u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = HermitianMatrix(u @ np.diag([3.0, 1.5, 0.7, 0.0, 0.0]) @ u.T)
        dec = eig_herm(a)
        pinv = fractional_power(dec, -1.0)
        proj = a.mat @ pinv.mat
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj @ a.mat, a.mat, atol=1e-12)

    def test_moore_penrose_identities(self, rng):
        u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        a = HermitianMatrix(u @ np.diag([5.0, 2.0, 1.0, 0.4, 0.0, 0.0]) @ u.T).mat
        x = fractional_power(eig_herm(a), -1.0).mat
        np.testing.assert_allclose(a @ x @ a, a, atol=1e-10)
        np.testing.assert_allclose(x @ a @ x, x, atol=1e-10)
        np.testing.assert_allclose((a @ x).conj().T, a @ x, atol=1e-10)
        np.testing.assert_allclose((x @ a).conj().T, x @ a, atol=1e-10)

    def test_fractional_power_negative_eigenvalue_rejected(self):
        dec = eig_herm(np.diag([-1.0, 2.0]))
        with pytest.raises(ValueError, match="-1"):
            fractional_power(dec, 0.5)

    def test_negative_power_needs_semidefinite_spectrum(self):
        # the rank rule: a negative eigenvalue within 1e-12 max|lambda| of zero
        # counts as zero, so it passes and maps to zero; one beyond it fails
        for d in ([-3.0, -1.0], [-5.0, 1.0], [-2e-12, 1.0]):
            with pytest.raises(ValueError, match="positive semidefinite"):
                fractional_power(eig_herm(np.diag(d)), 0.5)
            with pytest.raises(ValueError, match="positive semidefinite"):
                fractional_power(eig_herm(np.diag(d)), -1.0)
        out = fractional_power(eig_herm(np.diag([-0.5e-12, 1.0])), -0.5)
        np.testing.assert_array_equal(out.mat, np.diag([0.0, 1.0]))
        # integer powers >= 0 need no positivity
        out = fractional_power(eig_herm(np.diag([-3.0, 1.0])), 2.0)
        np.testing.assert_array_equal(out.mat, np.diag([9.0, 1.0]))

    @pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, np.inf]])
    def test_nonfinite_eigenvalues_rejected(self, lam):
        # a NaN or inf threshold would map the whole spectrum to zero
        with pytest.raises(ValueError, match="non-finite"):
            fractional_power(SpectralDecomposition(lam, np.eye(2)), 0.5)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_nonfinite_power_rejected(self, power):
        # round(p) raised "cannot convert float NaN to integer" or OverflowError
        with pytest.raises(ValueError, match=f"the power p must be finite, got {power}"):
            fractional_power(eig_herm(np.diag([4.0, 9.0])), power)

    def test_nonfinite_rejected(self):
        # 1e-300 survives the 1e-12 relative cutoff, and its -2 power overflows
        dec = eig_herm(np.diag([1e-300, 1e-290]))
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(over="ignore"):
                fractional_power(dec, -2.0)


class TestNorms:
    def test_identity(self):
        assert op_norm(np.eye(2)) == pytest.approx(1.0)
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_rank_one_unit(self, rng):
        p = rng.standard_normal(5)
        p /= np.linalg.norm(p)
        q = rng.standard_normal(5)
        q /= np.linalg.norm(q)
        assert op_norm(np.outer(p, q)) == pytest.approx(1.0)
        assert hs_norm(np.outer(p, q)) == pytest.approx(1.0)

    def test_three_four_five(self):
        assert op_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)
        assert hs_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_power_of_two_scale_past_2_to_1023(self):
        # 2^1024 is not a float: the scale stops at 2^1023, where A / s is still exact
        big = 2.0 ** 1021
        assert hs_norm(np.diag([3.0, 4.0]) * big) == 5.0 * big
        dec = HermitianMatrix(np.array([[4.0, 1.0], [1.0, 4.0]]) * big).decomposition
        np.testing.assert_array_equal(dec.eigenvalues, [3.0 * big, 5.0 * big])

    def test_op_below_hs_random(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 7))
            assert op_norm(a) <= hs_norm(a) + 1e-12

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("shape", [(40, 40), (60, 4), (4, 60), (1, 1), (9, 1), (1, 9)])
    @pytest.mark.parametrize("kind", ["random", "graded", "rank-deficient", "zero"])
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_op_norm_matches_svd(self, complex_field, shape, kind, scale):
        # the scaled Gram's top eigenvalue against numpy's SVD 2-norm
        rng = make_rng(71)
        k = min(shape)
        u, v = (np.linalg.qr(rng.standard_normal((d, k))
                             + complex_field * 1j * rng.standard_normal((d, k)))[0] for d in shape)
        s = {"random": rng.uniform(0.1, 3.0, k), "graded": np.logspace(0.0, -12.0, k),
             "rank-deficient": np.r_[rng.uniform(0.1, 3.0, (k + 1) // 2), np.zeros(k // 2)],
             "zero": np.zeros(k)}[kind]
        a = ((u * s) @ v.conj().T) * scale
        got = op_norm(a)
        assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-14, abs=0.0)
        assert (got == 0.0) == (kind == "zero")

    def test_zero_imaginary_part_takes_the_real_route(self, rng):
        # a complex input whose imaginary parts are all zero gives the real
        # input's bits (the complex Gram and sum differ in the last bits of
        # about half of such draws)
        for _ in range(10):
            a = rng.standard_normal((30, 20))
            assert op_norm(a + 0j) == op_norm(a) and hs_norm(a + 0j) == hs_norm(a)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_op_norm_of_empty_is_zero(self, shape):
        assert op_norm(np.zeros(shape)) == 0.0


class TestSpectralProjector:
    # the tests' reference spectral projector (conftest), which the subspace
    # truth oracles are built from

    def test_below_cutoff(self):
        dec = eig_herm(np.diag([1.0, 4.0]))
        p = spectral_projector(dec, -np.inf, 2.0)
        np.testing.assert_allclose(p.projector, np.diag([1.0, 0.0]), atol=1e-14)

    def test_empty_selection(self):
        dec = eig_herm(np.diag([1.0, 4.0]))
        p = spectral_projector(dec, -np.inf, 0.5)
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

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (0.0, np.nan)])
    def test_nan_bound_rejected(self, a, b):
        # a NaN bound fails every comparison, which selected a rank-0 projection
        with pytest.raises(ValueError, match="NaN"):
            spectral_projector(eig_herm(np.eye(2)), a, b)

    def test_monotone_in_cutoff(self, rng):
        a = random_hermitian(rng, 9, complex_field=True)
        dec = eig_herm(a)
        cuts = sorted(rng.uniform(dec.eigenvalues[0], dec.eigenvalues[-1], size=4))
        for d1, d2 in zip(cuts, cuts[1:]):
            p1 = spectral_projector(dec, -np.inf, d1)
            p2 = spectral_projector(dec, -np.inf, d2)
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
                dim_h = spectral_projector(dec_h, -np.inf, gamma).rank
                dim_m = spectral_projector(dec_m, -np.inf, gamma).rank
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


def _layout_file(field: str, tmp_path):
    """A file of mixed whitespace (CRLF, tabs, blank lines, trailing blanks)
    and tokens ``float()`` accepts, and the array a per-token parse gives."""
    toks = [repr(x) for x in ADVERSARIAL] + ["1E+300", "+2.5", "1_0", "-7.25e-5"]
    body = (f"{toks[0]}\r\n" + "\t".join(toks[1:6]) + "\r\n\r\n\n"
            + "   ".join(toks[6:9]) + " \t\r\n" + "\n\n".join(toks[9:]) + "  ")
    shape = (3, 4) if field == "real" else (2, 3)
    path = tmp_path / "layout.mtx"
    path.write_bytes(f"{shape[0]} {shape[1]} {field}\r\n{body}".encode())
    vals = [float(t) for t in toks]
    if field == "complex":
        vals = [complex(re, im) for re, im in zip(vals[0::2], vals[1::2])]
    return path, np.array(vals).reshape(shape)


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
        path, want = _layout_file(field, tmp_path)
        assert _bits(load_matrix(path)) == _bits(want)

    @pytest.mark.parametrize("chunk", range(1, 8))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reader_chunk_cuts_match_float_loop(self, field, chunk, tmp_path, monkeypatch):
        # chunks of 1-7 characters cut every token, CRLF pair and run of
        # blanks of the layout file somewhere; the bits stay those of float()
        monkeypatch.setattr(matcore, "_CHUNK_CHARS", chunk)
        path, want = _layout_file(field, tmp_path)
        assert _bits(load_matrix(path)) == _bits(want)

    @pytest.mark.parametrize("chunk", [3, 1 << 16], ids=["3-char-chunks", "default-chunks"])
    @pytest.mark.parametrize("body, message", [
        ("1 x 3 4 5", "expected 4 numbers, found 5"),
        ("1 x 3", "expected 4 numbers, found 3"),
        ("1 x 3 4", "could not convert string to float: 'x'"),
        ("1 2 3 4e 5e", "expected 4 numbers, found 5"),
        ("1 nan 3 4", "non-finite"),
        ("1 inf 3 y", "could not convert string to float: 'y'"),
    ], ids=["count-before-bad-token", "count-short", "bad-token", "count-at-end",
            "nan", "bad-token-before-inf"])
    def test_reader_error_order(self, body, message, chunk, tmp_path, monkeypatch):
        # the count is checked before any token's float() error, and that
        # before the non-finite check, wherever the chunks are cut
        monkeypatch.setattr(matcore, "_CHUNK_CHARS", chunk)
        path = tmp_path / "bad.mtx"
        path.write_text(f"2 2 real\n{body}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_matrix(path)

    @pytest.mark.parametrize("side", [10**9, 10**10], ids=["8-EB", "past-intp"])
    def test_reader_huge_header_gets_count_error(self, side, tmp_path):
        # no array of the promised size can be allocated (numpy raises
        # MemoryError, or ValueError past the largest intp)
        path = tmp_path / "bad.mtx"
        path.write_text(f"{side} {side} real\n1 2 3\n")
        with pytest.raises(ValueError, match=f"expected {side * side} numbers, found 3"):
            load_matrix(path)

    def test_reader_body_beyond_memory(self, tmp_path, monkeypatch):
        # a body that matches a header whose array cannot be allocated is
        # counted to the end and then reported as out of memory
        def empty(size):
            if size:
                raise MemoryError
            return np.zeros(0)

        monkeypatch.setattr(matcore.np, "empty", empty)
        path = tmp_path / "big.mtx"
        path.write_text("2 2 real\n1 2 3 4\n")
        with pytest.raises(MemoryError, match="cannot hold the 4 numbers"):
            load_matrix(path)

    def test_reader_long_token_across_chunks(self, tmp_path, monkeypatch):
        # a token far longer than a chunk parses whole
        monkeypatch.setattr(matcore, "_CHUNK_CHARS", 4)
        path = tmp_path / "long.mtx"
        path.write_text("1 2 real\n" + "0" * 1000 + "1.5 " + "2" + "0" * 300 + "\n")
        assert _bits(load_matrix(path)) == _bits(np.array([[1.5, 2e300]]))

    def test_io_peaks_stay_near_one_matrix(self, tmp_path):
        # a load holds the result plus one chunk's tokens, a save one row's
        # text: far below the whole-file text and token list, 12x and 7.6x
        a = make_rng(80).standard_normal((300, 300))
        path = tmp_path / "a.mtx"
        save_matrix(path, a)
        peaks = []
        for io_call in (lambda: load_matrix(path), lambda: save_matrix(path, a)):
            tracemalloc.start()
            try:
                io_call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3 * a.nbytes and peaks[1] < 2 * a.nbytes

    def test_writer_takes_noncontiguous_complex(self):
        # a transposed complex array has no contiguous rows to view as pairs
        a = (np.arange(6.0) + 1j * np.arange(6.0, 12.0)).reshape(2, 3).T
        stream, ref = io.StringIO(), io.StringIO()
        save_matrix(stream, a)
        _reference_save(ref, a)
        assert stream.getvalue() == ref.getvalue()

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

    @pytest.mark.parametrize("text", ["-1 -1 real\n1\n", "-2 -3 real\n1 2 3 4 5 6\n",
                                      "-1 0 real\n"], ids=["-1x-1", "-2x-3", "-1x0"])
    def test_negative_dimension_rejected(self, text, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        header = repr(text.splitlines()[0].split())
        with pytest.raises(ValueError, match=f"negative dimension in matrix header {re.escape(header)}"):
            load_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)], ids=["0x0", "3x0", "0x3"])
    def test_empty_roundtrip(self, shape, tmp_path):
        path = tmp_path / "e.mtx"
        path.write_text(f"{shape[0]} {shape[1]} real\n")
        a = load_matrix(path)
        assert a.shape == shape
        save_matrix(path, a)
        assert load_matrix(path).shape == shape

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e30, max_value=1e30),
                           min_size=1, max_size=12))
    def test_roundtrip_property(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("fmt") / "m.mtx"
        a = np.array(values).reshape(1, -1)
        save_matrix(path, a)
        np.testing.assert_array_equal(load_matrix(path), a)


def _pair():
    return HermitianMatrix(np.diag([4.0, 9.0])), HermitianMatrix(np.eye(2))


def _ritz_estimate():
    from relgap.ritz import ritz_bounds
    return ritz_bounds(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), Projection(np.eye(3)[:, :1]), 2.0)


def _sqrt_pair():
    from relgap.sqroot import sqrt_pair
    return sqrt_pair(*_pair())


def _sqrt_integral():
    from relgap.sqroot import sqrt_integral_solution
    return sqrt_integral_solution(_sqrt_pair())


def _trial_functions():
    from relgap.harness import trial_functions
    return trial_functions(mathieu_model(np.pi, 0.0, 3), 5, "linear")


def _piecewise_poly():
    from relgap.splines import piecewise_linear
    return piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


@pytest.mark.parametrize("make", [
    lambda: HermitianMatrix(np.eye(3)),
    lambda: HermitianMatrix.from_diagonal([1.0, 2.0, 3.0]),
    lambda: SpectralDecomposition(np.arange(3.0), np.eye(3)),
    lambda: Projection(np.eye(3)[:, :2]),
    lambda: mathieu_model(np.pi, 0.0, 3),
    _ritz_estimate, _sqrt_pair, _sqrt_integral, _trial_functions, _piecewise_poly,
    lambda: _sylvester_problem(np.ones((2, 2))),
], ids=["HermitianMatrix", "HermitianMatrix-from-diagonal", "SpectralDecomposition",
        "Projection", "MathieuModel", "RitzEstimate", "SqrtPerturbation",
        "SqrtIntegralResult", "TrialFunctions", "PiecewisePoly", "WeakSylvesterProblem"])
def test_equality_and_hash_by_identity(make):
    # the generated __eq__ compared arrays (ValueError: truth value is
    # ambiguous) and __hash__ hashed them (TypeError); by identity, neither
    # fills lazy state such as a dense matrix built from a diagonal
    a, b = make(), make()
    state = dict(vars(a))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert vars(a) == state


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
