"""Dense Hermitian linear algebra: eigendecomposition, fractional powers,
orthonormal subspace bases and the operator / Hilbert-Schmidt norms used repo-wide.

Inputs are immutable; a :class:`HermitianMatrix` decomposes itself at most
once, on first use, and every consumer shares that read-only result.  An
exactly diagonal matrix (every off-diagonal entry zero) decomposes in
O(n log n), by a sort without LAPACK, into a permutation basis:
:meth:`HermitianMatrix.apply`, :meth:`SpectralDecomposition.to_eigenbasis`
and :meth:`SpectralDecomposition.from_eigenbasis` then act by row scaling,
gather and scatter instead of n x n products.  A matrix built from its
diagonal (:meth:`HermitianMatrix.from_diagonal`) and that basis hold O(n)
memory until a dense array is read.  Real inputs stay real, complex inputs
stay complex.  One relative rank rule, :func:`_range_mask`, decides which
eigenvalues and singular values count as zero, package-wide.

The matrix text reader :func:`load_matrix` parses the body in fixed 64 KiB
text chunks into one preallocated array, so a load holds about one copy of
the matrix; :func:`save_matrix` writes one row at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

HERMITICITY_RTOL = 1e-13
ZERO_TOL = 1e-12  # the relative rank cutoff; only _range_mask reads it


class ConvergenceError(RuntimeError):
    """An iterative kernel (eigensolver, quadrature) failed to converge."""


def _as_array(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.mat
    return np.asarray(a)


def _tidy_field(mat: np.ndarray, copy: bool = True) -> np.ndarray:
    """Return a float64/complex128 copy; drop an identically-zero imaginary part.
    Every matrix entering the package passes here, which rejects nan and inf.
    With ``copy`` false, for callers that only read the result, an input that
    already has the target dtype is returned as is."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries (nan or inf)")
    if np.iscomplexobj(mat):
        mat = mat.astype(np.complex128, copy=copy)
        return mat if np.any(mat.imag) else mat.real.copy()
    return mat.astype(np.float64, copy=copy)


def _pow2_scale(mat: np.ndarray) -> float:
    """The power of two s at ``max|a_ij|`` (1 for a zero A; at most 2^1023, a float):
    scaling by s is exact, and ``A / s`` has no square to over- or underflow."""
    return 2.0 ** min(int(np.frexp(np.max(np.abs(mat), initial=0.0))[1]), 1023)


def _range_mask(values: np.ndarray) -> np.ndarray:
    """The rank rule: entries with ``|x| > ZERO_TOL * max|x|``; the rest count as
    zero.  It sets the kernel, the pseudo powers, the PSD/PD checks and the rank
    of :meth:`Projection.from_span`.  It has no absolute floor: scaling the
    values by a power of two keeps the mask while the cutoff stays normal."""
    mag = np.abs(values)
    return mag > ZERO_TOL * np.max(mag, initial=0.0)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A self-adjoint matrix over the real or complex scalars, compared and
    hashed by identity.

    The constructor keeps an exactly Hermitian input bit for bit (in a
    read-only copy), rejects other inputs whose asymmetry exceeds
    ``1e-13 * ||A||_F`` and stores ``(A + A*) / 2`` of the rest.
    :meth:`from_diagonal` builds a diagonal matrix from its diagonal and holds
    O(n) memory: its dense :attr:`mat` is built on first read, and ``n``,
    :meth:`apply`, :meth:`solve` and :attr:`decomposition` never build it.
    """

    entries: InitVar[np.ndarray]
    _n: int = field(init=False, repr=False)

    def __post_init__(self, entries):
        mat = _tidy_field(entries)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        adjoint = mat.conj().T
        if not np.array_equal(mat, adjoint):
            # norms of A / max|a_ij| (over real and imaginary parts): no square
            # overflows, and a difference past DBL_MAX is an inf that fails
            parts = (mat.real, mat.imag) if np.iscomplexobj(mat) else (mat,)
            peak = max(float(np.max(np.abs(part))) for part in parts)
            scale = float(np.linalg.norm(mat / peak, "fro"))
            with np.errstate(over="ignore"):
                defect = float(np.linalg.norm((mat - adjoint) / peak, "fro"))
            if not defect <= HERMITICITY_RTOL * scale:
                raise ValueError(
                    f"matrix is not Hermitian: asymmetry {peak * defect:.3e} exceeds "
                    f"{HERMITICITY_RTOL:.0e} * ||A||_F = {HERMITICITY_RTOL * peak * scale:.3e}"
                )
            mat = _tidy_field((mat + adjoint) / 2.0)
        mat.setflags(write=False)
        object.__setattr__(self, "_n", mat.shape[0])
        object.__setattr__(self, "mat", mat)  # fills the cached property

    @classmethod
    def from_diagonal(cls, diagonal) -> "HermitianMatrix":
        """The matrix ``diag(d)`` for a nonempty 1-d array of finite reals,
        held as a read-only float64 copy of ``d``."""
        d = np.asarray(diagonal)
        if d.ndim != 1 or d.size < 1 or d.dtype.kind not in "biuf":
            raise ValueError(f"expected a nonempty real 1-d diagonal, "
                             f"got shape {d.shape} and dtype {d.dtype}")
        d = d.astype(np.float64)
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal has non-finite entries (nan or inf)")
        d.setflags(write=False)
        h = object.__new__(cls)
        object.__setattr__(h, "_n", d.size)
        object.__setattr__(h, "_diagonal", d)  # fills the cached property
        return h

    @property
    def n(self) -> int:
        return self._n

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense matrix, read-only; for :meth:`from_diagonal` built on first
        read as ``np.diag(d)``."""
        mat = np.diag(self._diagonal)
        mat.setflags(write=False)
        return mat

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype)

    @cached_property
    def _diagonal(self) -> np.ndarray | None:
        """The diagonal when every off-diagonal entry is exactly zero, else None."""
        d = np.diag(self.mat)
        return d if np.count_nonzero(self.mat) == np.count_nonzero(d) else None

    def _rows(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[:1] != (self.n,):
            raise ValueError(f"operand of shape {x.shape} does not match dimension {self.n}")
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``H x``; for an exactly diagonal H the row scaling ``d_i x_i``, in C
        order like the product it replaces; x must have n rows."""
        x, d = self._rows(x), self._diagonal
        if d is None:
            return self.mat @ x
        return np.multiply(d.reshape(d.shape + (1,) * (x.ndim - 1)), x, order="C")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``H^{-1} b`` by one LU solve, or on an exactly diagonal H the row
        scaling by ``1 / d`` (the LU's reciprocal pivots); b must have n rows."""
        b, d = self._rows(b), self._diagonal
        if d is None:
            return np.linalg.solve(self.mat, b)
        return b * (1.0 / d).reshape(d.shape + (1,) * (b.ndim - 1))

    @cached_property
    def decomposition(self) -> "SpectralDecomposition":
        """The eigendecomposition, computed on first access and shared by every
        later consumer.  An exactly diagonal matrix decomposes by sorting its
        diagonal, with no LAPACK call; any other eigen-solves ``A / s`` (:func:`_pow2_scale`)
        and scales the eigenvalues back, so ``2^k A`` gives ``(2^k lam, V)`` bit for bit.
        A LAPACK convergence failure is reported as a :class:`ConvergenceError` naming
        the off-diagonal residual."""
        d = self._diagonal
        if d is not None:
            order = np.argsort(d, kind="stable")
            return SpectralDecomposition._permutation(d[order], order)
        try:
            s = _pow2_scale(self.mat)
            lam, v = np.linalg.eigh(self.mat / s)
        except np.linalg.LinAlgError as exc:
            offdiag = np.linalg.norm(self.mat - np.diag(np.diag(self.mat)), "fro")
            raise ConvergenceError(
                f"Hermitian eigensolver did not converge (off-diagonal residual {offdiag:.3e})"
            ) from exc
        return SpectralDecomposition(lam * s, v)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues plus orthonormal eigenvector columns (read-only),
    compared and hashed by identity.

    Orthonormality is checked on construction through the n x n product
    ``V* V``.  ``perm`` is set only by :meth:`_permutation`, the eigenbasis of
    an exactly diagonal matrix: ``V[:, j] = e_{perm[j]}``.  That decomposition
    holds O(n) memory and builds :attr:`vectors` on first read;
    :meth:`to_eigenbasis` and :meth:`from_eigenbasis` never build it.  ``perm``
    is None for any other decomposition.
    """

    eigenvalues: np.ndarray
    columns: InitVar[np.ndarray]
    perm: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self, columns):
        object.__setattr__(self, "eigenvalues", np.array(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "vectors", _tidy_field(columns))  # fills the cached property
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)
        lam, v = self.eigenvalues, self.vectors
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues have non-finite entries (nan or inf)")
        if lam.ndim != 1 or v.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues/vectors shapes are inconsistent")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        gram = v.conj().T @ v
        gram.flat[:: lam.size + 1] -= 1.0  # V* V - I with no n x n identity
        gram_defect = np.linalg.norm(gram, "fro")
        if gram_defect > 1e-11:
            raise ValueError(f"eigenvector columns are not orthonormal (defect {gram_defect:.3e})")

    @classmethod
    def _permutation(cls, eigenvalues: np.ndarray, perm: np.ndarray) -> "SpectralDecomposition":
        """The decomposition with basis ``V[:, j] = e_{perm[j]}``, built from the
        index array past the dense checks: ``perm`` is checked in O(n) and V is
        not formed."""
        n = perm.size
        if (eigenvalues.shape != (n,) or np.any(np.diff(eigenvalues) < 0)
                or not np.array_equal(np.bincount(perm, minlength=n), np.ones(n))):
            raise ValueError("need nondecreasing eigenvalues and a permutation of range(n)")
        dec = object.__new__(cls)
        for name, value in (("eigenvalues", eigenvalues), ("perm", perm)):
            value.setflags(write=False)
            object.__setattr__(dec, name, value)
        return dec

    @cached_property
    def vectors(self) -> np.ndarray:
        """The eigenvector columns, read-only; on a permutation basis built on
        first read by one scatter of ones into zeros."""
        n = self.perm.size
        vectors = np.zeros((n, n))
        vectors[self.perm, np.arange(n)] = 1.0
        vectors.setflags(write=False)
        return vectors

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """``V* x``; on a permutation basis the row gather ``x[perm]``."""
        if self.perm is None:
            return self.vectors.conj().T @ x
        return np.asarray(x)[self.perm]

    def from_eigenbasis(self, y: np.ndarray) -> np.ndarray:
        """``V y``; on a permutation basis the row scatter ``out[perm] = y``."""
        if self.perm is None:
            return self.vectors @ y
        y = np.asarray(y)
        out = np.empty(y.shape, dtype=y.dtype)
        out[self.perm] = y
        return out


@dataclass(frozen=True, eq=False)
class Projection:
    """An orthonormal basis of a subspace, compared and hashed by identity; the
    projector matrix is derived."""

    basis: np.ndarray

    def __post_init__(self):
        basis = _tidy_field(self.basis)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        n, k = basis.shape
        if k > n:
            raise ValueError(f"cannot have {k} orthonormal columns in dimension {n}")
        if k > 0:
            defect = np.linalg.norm(basis.conj().T @ basis - np.eye(k), "fro")
            if defect > 1e-10:
                raise ValueError(
                    f"columns are not orthonormal (defect {defect:.3e}); "
                    "use Projection.from_span to orthonormalize"
                )
        object.__setattr__(self, "basis", basis)
        self.basis.setflags(write=False)

    @classmethod
    def from_span(cls, cols: np.ndarray) -> "Projection":
        """Orthonormal basis of the column span: the left singular vectors whose
        singular values pass :func:`_range_mask`."""
        u, s, _ = np.linalg.svd(_tidy_field(np.atleast_2d(cols)), full_matrices=False)
        return cls(u[:, _range_mask(s)])

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def eig_herm(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for a fixed input.  For a :class:`HermitianMatrix` this is
    its cached :attr:`~HermitianMatrix.decomposition`.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(np.asarray(a))
    return h.decomposition


def require_positive(dec: SpectralDecomposition, name: str, definite: bool) -> None:
    """Reject a spectrum that is not positive semidefinite (``definite`` false:
    a negative eigenvalue passes :func:`_range_mask`) or not positive definite
    (``definite`` true: the smallest eigenvalue is not positive or fails the
    mask); a NaN fails."""
    lo, hi = dec.eigenvalues[0], dec.eigenvalues[-1]
    if _range_mask(dec.eigenvalues)[0]:
        ok = lo > 0
    else:  # lo counts as zero; lo <= hi is false only on a NaN
        ok = not definite and lo <= hi
    if not ok:
        kind = "definite" if definite else "semidefinite"
        raise ValueError(f"{name} must be positive {kind}: "
                         f"min eigenvalue {lo:.6e} vs max {hi:.6e}")


def _pseudo_power(lam: np.ndarray, p: float) -> np.ndarray:
    """Entrywise ``lam ** p`` under the pseudo-inverse convention: values that
    fail :func:`_range_mask` map to ``0 ** p`` (``0 ** 0 = 1``), and a negative
    or non-integer power maps every nonpositive value to zero."""
    live = _range_mask(lam)
    if not (p >= 0 and p == round(p)):
        live &= lam > 0
    return np.where(live, np.where(live, lam, 1.0) ** p, float(p == 0))


def fractional_power(dec: SpectralDecomposition, p: float) -> HermitianMatrix:
    """``V diag(lam ** p) V*`` by spectral calculus, with the pseudo-inverse
    convention for negative exponents (zero maps to zero).

    Raises unless ``p`` is finite, the spectrum passes :func:`require_positive`
    as semidefinite (negative or non-integer ``p`` only) and every mapped
    eigenvalue is finite.
    """
    if not np.isfinite(p):
        raise ValueError(f"the power p must be finite, got {p}")
    lam = dec.eigenvalues
    if p != round(p) or p < 0:
        require_positive(dec, f"matrix raised to power {p}", definite=False)
    mapped = _pseudo_power(lam, p)
    if not np.all(np.isfinite(mapped)):
        bad = lam[~np.isfinite(mapped)]
        raise ValueError(f"spectral function is not finite on eigenvalue(s) {bad}")
    out = (dec.vectors * mapped) @ dec.vectors.conj().T
    return HermitianMatrix((out + out.conj().T) / 2.0)  # exactly Hermitian: kept as is


def op_norm(a) -> float:
    """The 2-norm ``peak * sqrt(max eig(Y* Y))``, ``Y = A / max|a_ij|``, the Gram on
    the smaller side: by Weyl off by about ``eps n`` relative, no square overflows,
    and one that underflows is below eps of the norm."""
    mat = _tidy_field(_as_array(a), copy=False)
    peak = float(np.max(np.abs(mat), initial=0.0))
    if peak == 0.0:
        return 0.0
    y = mat / peak if mat.shape[0] >= mat.shape[1] else mat.conj().T / peak
    return peak * float(np.sqrt(np.linalg.eigvalsh(y.conj().T @ y)[-1]))


def hs_norm(a) -> float:
    """The Frobenius norm ``s ||A / s||_F``, s from :func:`_pow2_scale`."""
    mat = _tidy_field(_as_array(a), copy=False)
    s = _pow2_scale(mat)
    return s * float(np.linalg.norm(mat / s, "fro"))


# ---------------------------------------------------------------------------
# shared matrix text format
#
#   first line:  n m field          (n, m >= 0; field in {real, complex})
#   then n*m whitespace-separated entries, row major; a complex entry is the
#   token pair "re im".  17 significant digits round-trip float64 exactly.
# ---------------------------------------------------------------------------

_CHUNK_CHARS = 1 << 16  # characters of body text load_matrix splits at a time


def save_matrix(dest, a) -> None:
    """Write ``a`` in the matrix text format to a path or an open text stream,
    one ``"%.17g"`` row at a time."""
    mat = _tidy_field(np.atleast_2d(_as_array(a)), copy=False)
    n, m = mat.shape
    field = "complex" if np.iscomplexobj(mat) else "real"
    row = " ".join(["%.17g"] * (2 * m if field == "complex" else m)) + "\n"
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w") as fh:
        fh.write(f"{n} {m} {field}\n")
        for r in mat:
            if field == "complex":
                r = np.ascontiguousarray(r).view(np.float64)  # re, im alternate
            fh.write(row % tuple(r.tolist()))


def load_matrix(path) -> np.ndarray:
    """Read a matrix in the text format into a new float64 array, complex128
    when some imaginary part is nonzero.

    The body is split on whitespace in chunks of ``_CHUNK_CHARS`` characters
    (a token cut at a chunk's end joins the next chunk) and each token is
    parsed by ``float()`` into one preallocated array, so the text is never
    held whole.  Errors come in this order: the header, the token count, the
    first token ``float()`` rejects, a nan or inf entry.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed matrix header {header!r}; expected 'n m field'")
        n, m, field = int(header[0]), int(header[1]), header[2]
        if n < 0 or m < 0:
            raise ValueError(f"negative dimension in matrix header {header!r}")
        if field not in ("real", "complex"):
            raise ValueError(f"unknown scalar field {field!r}")
        count = (2 if field == "complex" else 1) * n * m
        try:
            vals = np.empty(count)
        except (MemoryError, ValueError):  # a header no array holds: count the
            vals = np.empty(0)  # tokens only, so a short body gets the count error
        found, cut, bad = 0, "", None
        while True:
            chunk = fh.read(max(_CHUNK_CHARS, len(cut)))  # a long cut token doubles the read
            toks = (cut + chunk).split()
            cut = toks.pop() if chunk and not chunk[-1].isspace() else ""
            end = found + len(toks)
            if bad is None and end <= vals.size:
                try:
                    vals[found:end] = np.fromiter(map(float, toks), np.float64, len(toks))
                except ValueError as exc:
                    bad = exc  # raised only once the count is known to match
            found = end
            if not chunk:
                break
    if found != count:
        raise ValueError(f"expected {count} numbers, found {found}")
    if bad is not None:
        raise bad
    if vals.size != count:
        raise MemoryError(f"cannot hold the {count} numbers of {str(path)!r}")
    if field == "complex":
        vals = vals.view(np.complex128)  # keeps signed zeros in both parts
    return _tidy_field(vals.reshape(n, m), copy=False)
