"""Closeness of two nonnegative forms.

Quantifies how far two positive semidefinite operators H and M are from each
other in the form-relative sense: the smallest eta with
``|h(u,v) - m(u,v)| <= eta * sqrt(h[u] m[v])``, the two-sided constant eps
with ``(1-eps) m[u] <= h[u] <= (1+eps) m[u]``, and the S operator.  Every
quantity reads ``H - M``, taken once from the exact inputs:
eta and eps from the difference pencil ``M^{+1/2} (H - M) M^{+1/2}``, S as
``H^{+1/2} (H - M) M^{+1/2}``; no two nearly equal products cancel.  S is
formed in one place, in the eigenbases of the pair (``FormPair.s_hat``), and
every consumer, :func:`s_operator`, the HS subspace bound and both square-root
routes, reads that array.  Which eigenvalues count as zero, for the kernels,
the pseudo powers and the PSD check alike, is matcore's one rank rule
(``_range_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpectralDecomposition,
    _pseudo_power,
    _range_mask,
    eig_herm,
    op_norm,
    require_positive,
)

KERNEL_ANGLE_TOL = 1e-8  # largest sine of a principal angle between ker(H) and ker(M)


@dataclass(frozen=True)
class FormPair:
    """Two positive semidefinite matrices of one dimension whose kernels agree to
    KERNEL_ANGLE_TOL, checked once, here (kernels of different dimensions are 1 apart).

    ``dec_h``, ``dec_m`` are the matrices' own cached eigendecompositions, shared with every
    other consumer, and ``range_h``, ``range_m`` their :func:`_range_mask`, read-only.
    """

    h: HermitianMatrix
    m: HermitianMatrix
    dec_h: SpectralDecomposition = field(init=False, repr=False)
    dec_m: SpectralDecomposition = field(init=False, repr=False)
    range_h: np.ndarray = field(init=False, repr=False, compare=False)
    range_m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h.n != self.m.n:
            raise ValueError(f"dimension mismatch: {self.h.n} vs {self.m.n}")
        object.__setattr__(self, "dec_h", eig_herm(self.h))
        object.__setattr__(self, "dec_m", eig_herm(self.m))
        require_positive(self.dec_h, "H", definite=False)
        require_positive(self.dec_m, "M", definite=False)
        for name, dec in (("range_h", self.dec_h), ("range_m", self.dec_m)):
            object.__setattr__(self, name, _range_mask(dec.eigenvalues))
            getattr(self, name).setflags(write=False)
        kernel_dim = np.count_nonzero(~self.range_h)
        angle = float(kernel_dim != np.count_nonzero(~self.range_m))
        if kernel_dim and not angle:  # two nonempty kernels of one dimension
            kh, km = self.dec_h.vectors[:, ~self.range_h], self.dec_m.vectors[:, ~self.range_m]
            angle = min(1.0, op_norm(km - kh @ (kh.conj().T @ km)))
        if angle > KERNEL_ANGLE_TOL:
            raise ValueError(
                "H and M must share their kernel for the form-closeness operator "
                f"to exist; largest kernel principal angle {angle:.3e} exceeds "
                f"{KERNEL_ANGLE_TOL:.0e}"
            )

    @cached_property
    def s_hat(self) -> np.ndarray:
        """S in the eigenbases, ``S = V_H S_hat V_M*``: the read-only
        ``S_hat = diag(lam^{+1/2}) V_H* (H - M) V_M diag(mu^{+1/2})`` (pseudo
        powers), formed on first read; the constructor checked the kernels agree."""
        lam, mu = self.dec_h.eigenvalues, self.dec_m.eigenvalues
        s_hat = self.dec_h.vectors.conj().T @ ((self.h.mat - self.m.mat) @ self.dec_m.vectors)
        s_hat *= _pseudo_power(lam[:, None], -0.5) * _pseudo_power(mu[None, :], -0.5)
        s_hat.setflags(write=False)
        return s_hat


@dataclass(frozen=True)
class ClosenessReport:
    """Exact eta and the two-sided epsilon when available."""

    eta: float
    epsilon: float | None
    eta_from_eps: float | None


def s_operator(fp: FormPair) -> np.ndarray:
    """``S = H^{1/2} M^{+1/2} - H^{+1/2} M^{1/2}`` (pseudo powers) as
    ``V_H S_hat V_M*`` from :attr:`FormPair.s_hat`, that is
    ``H^{+1/2} (H - M) M^{+1/2}``: equal under the shared pseudo-power cutoff,
    and free of the cancellation between the two products."""
    return fp.dec_h.vectors @ fp.s_hat @ fp.dec_m.vectors.conj().T


def _pencil(fp: FormPair) -> np.ndarray:
    """Ascending eigenvalues x of ``R* (H - M) R``, ``R = M^{+1/2}`` on range(M) (none if
    M has rank 0); ``|||S|||^2 = sum x^2 / (1 + x)``.  ``H - M`` is taken once from the
    exact inputs, so a small x keeps its relative accuracy."""
    r = fp.dec_m.vectors[:, fp.range_m] * fp.dec_m.eigenvalues[fp.range_m] ** -0.5
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

