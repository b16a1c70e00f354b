"""Seeded inputs for the `queries` workload, its dense calls and its quadrature
oracles, and the plain-numpy reference values the benchmark checks the
program's outputs against.

The generator fixes every size and every spectral envelope; the seed only
picks eigenvectors, the eigenvalues inside each envelope and the
perturbation E.  Every seed therefore costs about the same and satisfies
every bound hypothesis:

* H has CLUSTER eigenvalues in [1, 2] and the rest in [8, 16], with both ends
  of each envelope attained, so [D1, D2] = [3, 6] is spectral-free and the
  (CLUSTER+1)-st eigenvalue is exactly NEXT_EV = 8.
* M = (I + E)^T H (I + E) with ||E||_2 = 0.05.  By Ostrowski's theorem each
  eigenvalue of M is the matching one of H times a factor in
  [0.95^2, 1.05^2], so [D1, D2] stays spectral-free for M as well.
* The Sylvester coefficients have spectra A in [4, 8] and M in [0.5, 2], so
  the dichotomy ||M|| < d < 1/||A^{-1}|| holds for every d in (2, 4).
* The Ritz trial basis tilts the first CLUSTER eigenvectors of H by
  BASIS_TILT, far inside the smallness hypothesis of the estimator.
"""

from __future__ import annotations

import pathlib

import numpy as np

H_LOW = (1.0, 2.0)
H_HIGH = (8.0, 16.0)
CLUSTER = 5
E_NORM = 0.05
A_ENV = (4.0, 8.0)
MS_ENV = (0.5, 2.0)
D1, D2 = 3.0, 6.0
NEXT_EV = H_HIGH[0]
BASIS_TILT = 0.02


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _envelope(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """`count` ascending values in [lo, hi] that attain both ends."""
    if count == 1:
        return np.array([lo])
    return np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, count - 2)]))


def _symmetric(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    mat = (q * lam) @ q.T
    return (mat + mat.T) / 2.0


def pd_pair(rng: np.random.Generator, n: int) -> dict:
    """H with its two clusters, and the congruent perturbation M."""
    low = min(CLUSTER, n - 1)
    lam = np.concatenate([_envelope(rng, low, *H_LOW), _envelope(rng, n - low, *H_HIGH)])
    q = _orthogonal(rng, n)
    h = _symmetric(q, lam)
    e = rng.standard_normal((n, n))
    e *= E_NORM / np.linalg.norm(e, 2)
    g = np.eye(n) + e
    m = g.T @ h @ g
    return {"h": h, "m": (m + m.T) / 2.0, "h_vectors": q}


def sylvester_triple(rng: np.random.Generator, n: int) -> dict:
    """A, M and F for the weak Sylvester equation, with ||F||_2 = 1."""
    a = _symmetric(_orthogonal(rng, n), _envelope(rng, n, *A_ENV))
    ms = _symmetric(_orthogonal(rng, n), _envelope(rng, n, *MS_ENV))
    f = rng.standard_normal((n, n))
    return {"a": a, "ms": ms, "f": f / np.linalg.norm(f, 2)}


def queries_inputs(rng: np.random.Generator, n: int) -> dict:
    pair = pd_pair(rng, n)
    tilt = rng.standard_normal((n, CLUSTER))
    basis = pair.pop("h_vectors")[:, :CLUSTER] + BASIS_TILT * tilt / np.linalg.norm(tilt, 2)
    return {**pair, "basis": basis, **sylvester_triple(rng, n)}


def oracles_inputs(rng: np.random.Generator, n: int) -> dict:
    pair = pd_pair(rng, n)
    del pair["h_vectors"]
    return {**pair, **sylvester_triple(rng, n)}


def write_matrix(path: pathlib.Path, mat: np.ndarray) -> None:
    """The shared matrix text format: 'n m real', then one row per line.
    `repr` gives the shortest text that reads back to the same float64."""
    rows = [f"{mat.shape[0]} {mat.shape[1]} real"]
    rows += [" ".join(map(repr, row)) for row in mat.tolist()]
    path.write_text("\n".join(rows) + "\n")


def read_matrix(path: pathlib.Path) -> np.ndarray:
    toks = path.read_text().split()
    n, m, field = int(toks[0]), int(toks[1]), toks[2]
    if field != "real" or len(toks) != 3 + n * m:
        raise ValueError(f"{path}: expected {n}x{m} real entries")
    return np.array(toks[3:], dtype=np.float64).reshape(n, m)


def write_inputs(directory: pathlib.Path, mats: dict) -> dict:
    """Write every matrix as `<name>.mtx`; return the file paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, mat in mats.items():
        paths[name] = directory / f"{name}.mtx"
        write_matrix(paths[name], mat)
    return paths


# ---------------------------------------------------------------------------
# plain-numpy references, independent of relgap's code paths
# ---------------------------------------------------------------------------

def _power(mat: np.ndarray, p: float) -> np.ndarray:
    lam, v = np.linalg.eigh(mat)
    return (v * lam ** p) @ v.T


def eta_reference(h: np.ndarray, m: np.ndarray) -> float:
    """||H^{1/2} M^{-1/2} - H^{-1/2} M^{1/2}||_2 for positive definite H, M."""
    s = _power(h, 0.5) @ _power(m, -0.5) - _power(h, -0.5) @ _power(m, 0.5)
    return float(np.linalg.norm(s, 2))


def sylvester_reference(a: np.ndarray, ms: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T with ``A^{1/2} T M^{-1/2} - A^{-1/2} T M^{1/2} = F`` by kernel division."""
    la, ua = np.linalg.eigh(a)
    lm, um = np.linalg.eigh(ms)
    kernel = np.sqrt(la[:, None] * lm[None, :]) / (la[:, None] - lm[None, :])
    return ua @ ((ua.T @ f @ um) * kernel) @ um.T


def ritz_eta_reference(h: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Ascending invariance-defect values of span(basis) from
    ``eta^2 = eig(H11^{-1/2} (H11 - (W^T H^{-1} W)^{-1}) H11^{-1/2})``,
    W an orthonormal basis of the span and H11 = W^T H W."""
    w = np.linalg.qr(basis)[0]
    h11 = w.T @ h @ w
    chol = np.linalg.cholesky(h)
    y = np.linalg.solve(chol, w)
    schur = np.linalg.inv(y.T @ y)          # (W^T H^{-1} W)^{-1}
    h11_ihalf = _power(h11, -0.5)
    nu = np.linalg.eigvalsh(h11_ihalf @ (h11 - schur) @ h11_ihalf)
    return np.sqrt(np.maximum(nu, 0.0))
