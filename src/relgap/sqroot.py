"""Square-root perturbation for positive definite pairs.

Relates the relative difference of H and M to the relative difference of
their square roots: ``||X|| <= ||T|| / 2`` for
``T = M^{1/2} H^{-1/2} - M^{-1/2} H^{1/2}`` and
``X = M^{1/4} H^{-1/4} - M^{-1/4} H^{1/4}``.  T is ``-S*``, formed from the
exact difference ``H - M``; X solves the coupling Sylvester identity
``M^{1/4} X H^{-1/4} + M^{-1/4} X H^{1/4} = T``, which in the eigenbases of M
and H divides ``-S_hat*`` by ``(mu/lam)^{1/4} + (lam/mu)^{1/4} >= 2`` and cannot
cancel.  Both routes read S in those eigenbases from the pair
(``FormPair.s_hat``).  The independent check of X is its exponential integral
solution, evaluated by quadrature (``integral_vs_spectral`` in
``relgap sqroot check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import FormPair, s_operator
from .matcore import HermitianMatrix, _pow2_scale, op_norm, require_positive
from .quadrature import integrate_adaptive


@dataclass(frozen=True, eq=False)
class SqrtPerturbation:
    """T, X and their norms, with the checked pair ``fp`` they came from."""

    fp: FormPair = field(repr=False)
    t: np.ndarray
    x: np.ndarray
    norm_t: float
    norm_x: float

    @property
    def margin(self) -> float:
        """Slack in the half rule: ``norm_t / 2 - norm_x`` (nonnegative)."""
        return self.norm_t / 2.0 - self.norm_x


def sqrt_pair(h: HermitianMatrix, m: HermitianMatrix) -> SqrtPerturbation:
    """T, X and their norms for a positive definite pair of one size."""
    require_positive(h.decomposition, "H", definite=True)
    require_positive(m.decomposition, "M", definite=True)
    fp = FormPair(h, m)
    t = -s_operator(fp).conj().T
    lam, mu = fp.dec_h.eigenvalues[None, :], fp.dec_m.eigenvalues[:, None]
    x_hat = -fp.s_hat.conj().T / ((mu / lam) ** 0.25 + (lam / mu) ** 0.25)
    x = fp.dec_m.vectors @ x_hat @ fp.dec_h.vectors.conj().T
    return SqrtPerturbation(fp=fp, t=t, x=x, norm_t=op_norm(t), norm_x=op_norm(x))


@dataclass(frozen=True, eq=False)
class SqrtIntegralResult:
    x: np.ndarray
    identity_defect: float  # defect of int_0^inf exp(-2Ct) C dt = I/2 at C = H^{-1/2}


def _ray_integral(f, rate: float, weight: float) -> np.ndarray:
    """``int_0^inf f(t) dt`` for an f bounded entrywise by ``weight * exp(-rate t)``,
    in log time ``t = e^u / _pow2_scale(rate)``: every rate is one bump, however fast,
    at nodes u that no power-of-two scaling moves.  Each cut tail drops at most 1e-13;
    the rest has tolerance 1e-10."""
    cut, p = 1e-13, _pow2_scale(rate)
    t0 = cut / max(weight, cut * rate)
    t1 = np.log(max(weight / (cut * rate), np.e)) / rate

    def integrand(u: np.ndarray) -> np.ndarray:
        t = (np.exp(u) / p)[:, None, None]
        return f(t) * t

    return integrate_adaptive(integrand, np.log(t0 * p), np.log(t1 * p), tol=1e-10)[0]


def sqrt_integral_solution(pair: SqrtPerturbation) -> SqrtIntegralResult:
    """Quadrature evaluation of

        X = int_0^inf exp(-M^{-1/2} t) M^{-1/4} T H^{-1/4} exp(-H^{-1/2} t) dt

    in log time (``_ray_integral``) for the pair :func:`sqrt_pair` checked.  With
    ``c = 1/sqrt`` of each spectrum and the core ``K = c_M^{1/2} (-S_hat*) c_H^{1/2}``
    of ``pair.fp.s_hat``, a node is ``(V_M e^{-t c_M}) K (V_H e^{-t c_H})*``: two products.
    The self-test of the exponential identity at ``C = H^{-1/2}`` runs through
    the same substitution.
    """
    fp = pair.fp
    vm, vh = fp.dec_m.vectors, fp.dec_h.vectors
    c_m = 1.0 / np.sqrt(fp.dec_m.eigenvalues)
    c_h = 1.0 / np.sqrt(fp.dec_h.eigenvalues)
    core = np.sqrt(c_m)[:, None] * -fp.s_hat.conj().T * np.sqrt(c_h)

    def integrand(t: np.ndarray) -> np.ndarray:
        return (vm * np.exp(-t * c_m)) @ core @ (vh * np.exp(-t * c_h)).conj().mT

    # ||V_M exp(-c_m t) core exp(-c_h t) V_H*|| <= ||core||_F exp(-(min c_m + min c_h) t)
    x = _ray_integral(integrand, c_m.min() + c_h.min(), float(np.linalg.norm(core)))
    if not (np.iscomplexobj(fp.h.mat) or np.iscomplexobj(fp.m.mat)):
        x = x.real

    def identity_integrand(t: np.ndarray) -> np.ndarray:
        return (vh * (np.exp(-2.0 * t * c_h) * c_h)) @ vh.conj().T

    half_id = _ray_integral(identity_integrand, 2.0 * c_h.min(), c_h.max())
    defect = op_norm(half_id - 0.5 * np.eye(fp.h.n))
    return SqrtIntegralResult(x=x, identity_defect=float(defect))

