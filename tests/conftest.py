import os

import numpy as np
import pytest
from hypothesis import settings

from relgap.matcore import HermitianMatrix, Projection
from relgap.splines import _moments

SEED = int(os.environ.get("RELGAP_SEED", "20260808"))

settings.register_profile("relgap", deadline=None, max_examples=60,
                          derandomize=True, database=None)
settings.load_profile("relgap")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def make_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def random_unitary(rng, n: int, complex_field: bool = True) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def hermitian_from_spectrum(rng, eigs, complex_field: bool = True) -> HermitianMatrix:
    eigs = np.asarray(eigs, dtype=np.float64)
    u = random_unitary(rng, eigs.size, complex_field)
    return HermitianMatrix(u @ np.diag(eigs) @ u.conj().T)


def random_hermitian(rng, n: int, complex_field: bool = False, scale: float = 1.0) -> HermitianMatrix:
    z = rng.standard_normal((n, n))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (z + z.conj().T) / 2.0)


def random_pd(rng, n: int, complex_field: bool = False,
              eig_range: tuple[float, float] = (0.5, 10.0)) -> HermitianMatrix:
    eigs = rng.uniform(*eig_range, size=n)
    return hermitian_from_spectrum(rng, eigs, complex_field)


def random_pd_logcond(rng, n: int, max_log10_cond: float,
                      complex_field: bool = False) -> HermitianMatrix:
    span = rng.uniform(0.0, max_log10_cond)
    eigs = 10.0 ** rng.uniform(-span / 2.0, span / 2.0, size=n)
    eigs[0] = 10.0 ** (-span / 2.0)
    eigs[-1] = 10.0 ** (span / 2.0)
    return hermitian_from_spectrum(rng, eigs, complex_field)


def spectral_projector(dec, a: float, b: float) -> Projection:
    """Reference projection onto the eigenvectors of ``dec`` with eigenvalue in
    ``[a, b]``; an empty selection is a rank-0 projection, a NaN bound an error."""
    if not a <= b:
        raise ValueError(f"interval bounds out of order or NaN: [{a}, {b}]")
    return Projection(dec.vectors[:, (dec.eigenvalues >= a) & (dec.eigenvalues <= b)])


def perp(p: Projection, x: np.ndarray) -> np.ndarray:
    """Reference ``(I - P) x = x - W (W* x)`` for the basis W of ``p``."""
    return x - p.basis @ (p.basis.conj().T @ x)


def random_projection(rng, n: int, k: int, complex_field: bool = False) -> Projection:
    z = rng.standard_normal((n, k))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, k))
    return Projection.from_span(z)


def pairwise_l2_inner(pa, pb) -> complex:
    """Reference ``int conj(pa) pb`` on a shared knot grid: both functions
    evaluated at 8-point Gauss-Legendre nodes of every piece, summed per pair."""
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(pa.knots)
    t = (0.5 * (pa.knots[:-1] + pa.knots[1:]))[:, None] + half[:, None] * x
    return complex(np.sum(half[:, None] * w * np.conj(pa(t)) * pb(t)))


def per_piece_modal(pp, freqs) -> np.ndarray:
    """Reference ``int pp(t) exp(i f t) dt``, one value per frequency: the
    moments ``mu_r(i f h_j)`` evaluated for every piece ``j``, then one
    ``einsum`` over pieces and degrees against the phase ``exp(i f a_j)``."""
    freqs = np.asarray(freqs, dtype=np.float64)
    h = np.diff(pp.knots)
    mu = _moments(1j * np.outer(freqs, h), pp.degree)
    scaled = pp.coeffs * h ** np.arange(1, pp.degree + 2)[:, None]
    phase = np.exp(1j * np.outer(freqs, pp.knots[:-1]))
    return np.einsum("fj,rfj,rj->f", phase, mu, scaled)
