"""Closeness of two nonnegative forms.

Quantifies how far two positive semidefinite operators H and M are from each
other in the form-relative sense: the smallest eta with
``|h(u,v) - m(u,v)| <= eta * sqrt(h[u] m[v])``, the two-sided constant eps
with ``(1-eps) m[u] <= h[u] <= (1+eps) m[u]``, and the S operator.  Every
quantity reads ``H - M``, taken once from the exact inputs:
eta and eps from the difference pencil ``M^{+1/2} (H - M) M^{+1/2}``, S as
``H^{+1/2} (H - M) M^{+1/2}``; no two nearly equal products cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpectralDecomposition,
    ZERO_TOL,
    _pseudo_power,
    eig_herm,
    op_norm,
    require_positive,
    two_sided_fn,
)

KERNEL_ANGLE_TOL = 1e-8


def _range_mask(dec: SpectralDecomposition) -> np.ndarray:
    """Eigenvalues above the pseudo-inverse rank cutoff; the rest span the kernel."""
    lam = np.abs(dec.eigenvalues)
    return lam > ZERO_TOL * np.max(lam)


@dataclass(frozen=True)
class FormPair:
    """Two positive semidefinite matrices of the same dimension.

    ``dec_h`` and ``dec_m`` are the matrices' own cached eigendecompositions,
    shared with every other consumer of the same objects.
    """

    h: HermitianMatrix
    m: HermitianMatrix
    dec_h: SpectralDecomposition = field(init=False, repr=False)
    dec_m: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        if self.h.n != self.m.n:
            raise ValueError(f"dimension mismatch: {self.h.n} vs {self.m.n}")
        object.__setattr__(self, "dec_h", eig_herm(self.h))
        object.__setattr__(self, "dec_m", eig_herm(self.m))
        require_positive(self.dec_h, "H", definite=False)
        require_positive(self.dec_m, "M", definite=False)

    def kernel_angle(self) -> float:
        """Sine of the largest principal angle between ker(H) and ker(M)."""
        kh = self.dec_h.vectors[:, ~_range_mask(self.dec_h)]
        km = self.dec_m.vectors[:, ~_range_mask(self.dec_m)]
        if kh.shape[1] != km.shape[1]:
            return 1.0
        resid = km - kh @ (kh.conj().T @ km)
        return min(1.0, op_norm(resid))

    def ensure_shared_kernel(self) -> None:
        angle = self.kernel_angle()
        if angle > KERNEL_ANGLE_TOL:
            raise ValueError(
                "H and M must share their kernel for the form-closeness operator "
                f"to exist; largest kernel principal angle {angle:.3e} exceeds "
                f"{KERNEL_ANGLE_TOL:.0e}"
            )


@dataclass(frozen=True)
class ClosenessReport:
    """Exact eta and the two-sided epsilon when available."""

    eta: float
    epsilon: float | None
    eta_from_eps: float | None


def s_operator(fp: FormPair) -> np.ndarray:
    """``S = H^{1/2} M^{+1/2} - H^{+1/2} M^{1/2}`` (pseudo powers), formed as
    ``H^{+1/2} (H - M) M^{+1/2}``: equal under the shared pseudo-power cutoff,
    and free of the cancellation between the two products."""
    fp.ensure_shared_kernel()
    return two_sided_fn(fp.dec_h, fp.dec_m,
                        lambda lam, mu: _pseudo_power(lam, -0.5) * _pseudo_power(mu, -0.5),
                        fp.h.mat - fp.m.mat)


def _pencil(fp: FormPair) -> np.ndarray:
    """Ascending eigenvalues x of ``M^{+1/2} (H - M) M^{+1/2}`` on range(M) (none if
    M has rank 0); ``|||S|||^2 = sum x^2 / (1 + x)``.  ``H - M`` is taken once from the
    exact inputs, so a small x keeps its relative accuracy."""
    fp.ensure_shared_kernel()
    keep = _range_mask(fp.dec_m)
    r = fp.dec_m.vectors[:, keep] * fp.dec_m.eigenvalues[keep] ** -0.5  # M^{+1/2} on range(M)
    x = np.linalg.eigvalsh(r.conj().T @ (fp.h.mat - fp.m.mat) @ r)
    if not np.all(x > -1.0):  # a NaN fails too
        raise ValueError(f"the pencil (H, M) has eigenvalue 1 + {np.min(x):.6e} <= 0 on range(M)")
    return x


def eta_exact(fp: FormPair) -> ClosenessReport:
    """Exact smallest eta for the pair, ``||S|| = max |x| / sqrt(1 + x)`` over
    the pencil eigenvalues x (0 if none), and, when M has positive rank,
    ``eps = max |x|`` and, for eps < 1, the eta it implies,
    ``eps / sqrt(1 - eps)``.  S is not formed; :func:`s_operator` forms it."""
    x = _pencil(fp)
    eps = float(np.max(np.abs(x))) if x.size else None
    eta_eps = eps / np.sqrt(1.0 - eps) if eps is not None and eps < 1.0 else None
    eta = float(np.max(np.abs(x) / np.sqrt(1.0 + x), initial=0.0))
    return ClosenessReport(eta=eta, epsilon=eps, eta_from_eps=eta_eps)

