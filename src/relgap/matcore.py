"""Dense Hermitian linear algebra: eigendecomposition, SVD, spectral calculus,
spectral projectors and the operator / Hilbert-Schmidt norms used repo-wide.

Inputs are immutable; a :class:`HermitianMatrix` decomposes itself at most
once, on first use, and every consumer shares that read-only result.  Real
inputs stay real, complex inputs stay complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

HERMITICITY_RTOL = 1e-13
ZERO_TOL = 1e-12  # relative rank cutoff for pseudo-inverse decisions
ORTHO_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative kernel (eigensolver, quadrature) failed to converge."""


def _as_array(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.mat
    return np.asarray(a)


def _tidy_field(mat: np.ndarray) -> np.ndarray:
    """Return a float64/complex128 copy; drop an identically-zero imaginary part.
    Every matrix entering the package passes here, which rejects nan and inf."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries (nan or inf)")
    if np.iscomplexobj(mat):
        mat = mat.astype(np.complex128)
        if not np.any(mat.imag):
            return mat.real.copy()
        return mat.copy()
    return mat.astype(np.float64)


@dataclass(frozen=True)
class HermitianMatrix:
    """A dense self-adjoint matrix over the real or complex scalars.

    The constructor rejects inputs whose asymmetry exceeds
    ``1e-13 * ||A||_F`` and symmetrizes the rest exactly.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _tidy_field(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        scale = np.linalg.norm(mat, "fro")
        defect = np.linalg.norm(mat - mat.conj().T, "fro")
        if defect > HERMITICITY_RTOL * max(scale, 1e-300):
            raise ValueError(
                f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * ||A||_F = {HERMITICITY_RTOL * scale:.3e}"
            )
        mat = (mat + mat.conj().T) / 2.0
        object.__setattr__(self, "mat", _tidy_field(mat))
        self.mat.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.mat) else "real"

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype)

    @cached_property
    def decomposition(self) -> "SpectralDecomposition":
        """The eigendecomposition, computed on first access and shared by every
        later consumer.  A LAPACK convergence failure is reported as a
        :class:`ConvergenceError` naming the off-diagonal residual."""
        try:
            lam, v = np.linalg.eigh(self.mat)
        except np.linalg.LinAlgError as exc:
            offdiag = np.linalg.norm(self.mat - np.diag(np.diag(self.mat)), "fro")
            raise ConvergenceError(
                f"Hermitian eigensolver did not converge (off-diagonal residual {offdiag:.3e})"
            ) from exc
        return SpectralDecomposition(lam, v)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues plus orthonormal eigenvector columns (read-only)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.array(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "vectors", _tidy_field(self.vectors))
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)
        lam, v = self.eigenvalues, self.vectors
        if lam.ndim != 1 or v.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues/vectors shapes are inconsistent")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        gram_defect = np.linalg.norm(v.conj().T @ v - np.eye(lam.size), "fro")
        if gram_defect > 1e-11:
            raise ValueError(f"eigenvector columns are not orthonormal (defect {gram_defect:.3e})")

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


@dataclass(frozen=True)
class Projection:
    """An orthonormal basis of a subspace; the projector matrix is derived."""

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
    def from_span(cls, cols: np.ndarray, rtol: float = ZERO_TOL) -> "Projection":
        """Orthonormal basis of the column span, rank decided at ``rtol``."""
        cols = _tidy_field(np.atleast_2d(cols))
        if cols.shape[1] == 0:
            return cls(cols)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        keep = s > rtol * max(s[0], 1e-300) if s.size else np.zeros(0, bool)
        return cls(u[:, keep])

    @classmethod
    def zero(cls, n: int, complex_field: bool = False) -> "Projection":
        dtype = np.complex128 if complex_field else np.float64
        return cls(np.zeros((n, 0), dtype=dtype))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Projection":
        """Projection onto the orthogonal complement of the range."""
        n, k = self.basis.shape
        if k == 0:
            eye = np.eye(n, dtype=self.basis.dtype)
            return Projection(eye)
        u = np.linalg.svd(self.basis, full_matrices=True)[0]
        return Projection(u[:, k:])


def eig_herm(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Deterministic for a fixed input.  For a :class:`HermitianMatrix` this is
    its cached :attr:`~HermitianMatrix.decomposition`.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(np.asarray(a))
    return h.decomposition


def require_positive(dec: SpectralDecomposition, name: str, definite: bool) -> None:
    """Reject a spectrum that is not positive semidefinite (``definite``
    false: min eigenvalue below ``-1e-12 * max``) or not positive definite
    (``definite`` true: min eigenvalue at or below ``1e-12 * max``)."""
    lo, hi = dec.eigenvalues[0], dec.eigenvalues[-1]
    cutoff = ZERO_TOL * max(hi, 1e-300)
    if (lo <= cutoff) if definite else (lo < -cutoff):
        kind = "definite" if definite else "semidefinite"
        raise ValueError(f"{name} must be positive {kind}: "
                         f"min eigenvalue {lo:.6e} vs max {hi:.6e}")


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``A = U diag(s) V*``.

    Returns ``(s, U, V)`` with ``s`` nonnegative and descending, and the
    *right* singular vectors as columns of ``V`` (not conjugated).
    """
    mat = _tidy_field(_as_array(a))
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        offdiag = np.linalg.norm(mat, "fro")
        raise ConvergenceError(f"SVD did not converge (residual scale {offdiag:.3e})") from exc
    return s, u, vh.conj().T


def _from_spectrum(dec: SpectralDecomposition, mapped: np.ndarray) -> HermitianMatrix:
    """``V diag(mapped) V*`` for finite mapped eigenvalues."""
    if not np.all(np.isfinite(mapped)):
        bad = dec.eigenvalues[~np.isfinite(mapped)]
        raise ValueError(f"spectral function is not finite on eigenvalue(s) {bad}")
    return HermitianMatrix((dec.vectors * mapped) @ dec.vectors.conj().T)


def apply_spectral_fn(dec: SpectralDecomposition, f: Callable[[float], float],
                      zero_tol: float = ZERO_TOL) -> HermitianMatrix:
    """Evaluate ``V diag(f(lambda)) V*``.

    Eigenvalues with ``|lambda| <= zero_tol * max|lambda|`` are routed through
    ``f(0)``, which realizes the pseudo-inverse convention ``f(0) = 0``.
    """
    lam = dec.eigenvalues
    scale = np.max(np.abs(lam)) if lam.size else 0.0
    thresh = zero_tol * scale
    mapped = np.array([f(0.0) if abs(x) <= thresh else f(x) for x in lam], dtype=np.float64)
    return _from_spectrum(dec, mapped)


def _pseudo_power(lam: np.ndarray, p: float, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Entrywise ``lam ** p`` under the pseudo-inverse convention: values with
    ``|lam| <= zero_tol * max|lam|`` map to ``0 ** p`` (``0 ** 0 = 1``), and a
    negative or non-integer power maps every nonpositive value to zero."""
    thresh = zero_tol * (np.max(np.abs(lam)) if lam.size else 0.0)
    live = np.abs(lam) > thresh if p >= 0 and p == round(p) else lam > thresh
    return np.where(live, np.where(live, lam, 1.0) ** p, float(p == 0))


def fractional_power(dec: SpectralDecomposition, p: float,
                     zero_tol: float = ZERO_TOL) -> HermitianMatrix:
    """Fractional power by spectral calculus, with the pseudo-inverse
    convention for negative exponents (zero maps to zero).

    Raises if the power demands positivity but a significantly negative
    eigenvalue is present.
    """
    lam = dec.eigenvalues
    scale = np.max(np.abs(lam)) if lam.size else 0.0
    if p != round(p) or p < 0:
        lam_min = lam.min() if lam.size else 0.0
        if lam_min < -zero_tol * scale:
            raise ValueError(
                f"power {p} requires a nonnegative spectrum; "
                f"offending eigenvalue {lam_min:.6e}"
            )
    return _from_spectrum(dec, _pseudo_power(lam, p, zero_tol))


def pseudo_inverse(dec: SpectralDecomposition, zero_tol: float = ZERO_TOL) -> HermitianMatrix:
    """Spectral-calculus inverse with zero eigenvalues mapped to zero."""
    return fractional_power(dec, -1.0, zero_tol=zero_tol)


def coupling_kernel(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``lam^{1/2} mu^{+1/2} - lam^{+1/2} mu^{1/2}`` (``+1/2``: the pseudo power
    ``-1/2``), the :func:`two_sided_fn` kernel of the weak Sylvester operator
    ``X -> A^{1/2} X M^{+1/2} - A^{+1/2} X M^{1/2}``."""
    return (_pseudo_power(lam, 0.5) * _pseudo_power(mu, -0.5)
            - _pseudo_power(lam, -0.5) * _pseudo_power(mu, 0.5))


def two_sided_fn(dec_l: SpectralDecomposition, dec_r: SpectralDecomposition,
                 kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 x: np.ndarray | None = None) -> np.ndarray:
    """``U_l (k(lam_i, mu_j) o (U_l* X U_r)) U_r*`` for the eigenbases of two
    decompositions; ``kernel`` gets the left eigenvalues as a column and the
    right ones as a row.  ``X`` defaults to the identity (equal dimensions)."""
    ul, ur = dec_l.vectors, dec_r.vectors
    core = ul.conj().T @ (ur if x is None else x @ ur)
    weights = kernel(dec_l.eigenvalues[:, None], dec_r.eigenvalues[None, :])
    return ul @ (weights * core) @ ur.conj().T


def op_norm(a) -> float:
    mat = _tidy_field(_as_array(a))
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def hs_norm(a) -> float:
    return float(np.linalg.norm(_tidy_field(_as_array(a)), "fro"))


@dataclass(frozen=True)
class Norms:
    op: float
    hs: float


def norms(a) -> Norms:
    """Operator (largest singular value) and Hilbert-Schmidt (Frobenius) norms."""
    return Norms(op=op_norm(a), hs=hs_norm(a))


def spectral_projector(dec: SpectralDecomposition, a: float, b: float) -> Projection:
    """Projection onto the span of eigenvectors with eigenvalue in ``[a, b]``.

    An empty selection yields a valid rank-0 projection.
    """
    if a > b:
        raise ValueError(f"interval bounds out of order: [{a}, {b}]")
    keep = (dec.eigenvalues >= a) & (dec.eigenvalues <= b)
    return Projection(dec.vectors[:, keep])


def spectral_projector_below(dec: SpectralDecomposition, d: float) -> Projection:
    """The spectral projector onto ``(-inf, d]`` (right-continuous convention)."""
    return spectral_projector(dec, -np.inf, d)


# ---------------------------------------------------------------------------
# shared matrix text format
#
#   first line:  n m field          (field in {real, complex})
#   then n*m whitespace-separated entries, row major; a complex entry is the
#   token pair "re im".  17 significant digits round-trip float64 exactly.
# ---------------------------------------------------------------------------

def save_matrix(dest, a) -> None:
    """Write ``a`` in the matrix text format to a path or an open text stream."""
    mat = _tidy_field(np.atleast_2d(_as_array(a)))
    n, m = mat.shape
    field = "complex" if np.iscomplexobj(mat) else "real"
    flat = mat.view(np.float64) if field == "complex" else mat  # re, im alternate
    row = " ".join(["%.17g"] * flat.shape[1])
    text = "\n".join([f"{n} {m} {field}"] + [row % tuple(r) for r in flat.tolist()]) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
        return
    with open(dest, "w") as fh:
        fh.write(text)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed matrix header {header!r}; expected 'n m field'")
        n, m, field = int(header[0]), int(header[1]), header[2]
        if field not in ("real", "complex"):
            raise ValueError(f"unknown scalar field {field!r}")
        toks = fh.read().split()
    count = (2 if field == "complex" else 1) * n * m
    if len(toks) != count:
        raise ValueError(f"expected {count} numbers, found {len(toks)}")
    vals = np.fromiter(map(float, toks), np.float64, count)
    if field == "complex":
        vals = vals.view(np.complex128)  # keeps signed zeros in both parts
    return _tidy_field(vals.reshape(n, m))
