"""Square-root perturbation for positive definite pairs.

Relates the relative difference of H and M to the relative difference of
their square roots: ``||X|| <= ||T|| / 2`` for
``T = M^{1/2} H^{-1/2} - M^{-1/2} H^{1/2}`` and
``X = M^{1/4} H^{-1/4} - M^{-1/4} H^{1/4}``, with the coupling Sylvester
identity ``M^{1/4} X H^{-1/4} + M^{-1/4} X H^{1/4} = T`` and its exponential
integral solution evaluated by quadrature as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (HermitianMatrix, coupling_kernel, eig_herm, fractional_power, op_norm,
                      require_positive, two_sided_fn)
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class SqrtPerturbation:
    t: np.ndarray
    x: np.ndarray
    norm_t: float
    norm_x: float
    sylvester_defect: float

    @property
    def margin(self) -> float:
        """Slack in the half rule: ``norm_t / 2 - norm_x`` (nonnegative)."""
        return self.norm_t / 2.0 - self.norm_x


def sqrt_pair(h: HermitianMatrix, m: HermitianMatrix) -> SqrtPerturbation:
    """T, X and their norms for a positive definite pair, with the defect of
    the coupling identity reported."""
    if h.n != m.n:
        raise ValueError(f"dimension mismatch: {h.n} vs {m.n}")
    dec_h, dec_m = eig_herm(h), eig_herm(m)
    require_positive(dec_h, "H", definite=True)
    require_positive(dec_m, "M", definite=True)
    # T, X and the coupling operator all act between the eigenbases of M and H
    t = two_sided_fn(dec_m, dec_h, coupling_kernel)
    x = two_sided_fn(dec_m, dec_h, lambda mu, lam: (mu / lam) ** 0.25 - (lam / mu) ** 0.25)
    coupled = two_sided_fn(dec_m, dec_h,
                           lambda mu, lam: (mu / lam) ** 0.25 + (lam / mu) ** 0.25, x)
    defect = op_norm(coupled - t)
    return SqrtPerturbation(t=t, x=x, norm_t=op_norm(t), norm_x=op_norm(x),
                            sylvester_defect=defect)


@dataclass(frozen=True)
class SqrtIntegralResult:
    x: np.ndarray
    identity_defect: float  # defect of int_0^inf exp(-2Ct) C dt = I/2 at C = H^{-1/2}


def sqrt_integral_solution(h: HermitianMatrix, m: HermitianMatrix,
                           tol: float = 1e-10) -> SqrtIntegralResult:
    """Quadrature evaluation of

        X = int_0^inf exp(-M^{-1/2} t) M^{-1/4} T H^{-1/4} exp(-H^{-1/2} t) dt

    after the substitution ``t = -c log(1 - s)`` that compactifies the ray
    onto [0, 1); matrix exponentials are taken by spectral calculus.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    pair = sqrt_pair(h, m)
    dec_h, dec_m = eig_herm(h), eig_herm(m)

    mu = dec_m.eigenvalues
    lam = dec_h.eigenvalues
    vm, vh = dec_m.vectors, dec_h.vectors
    rate = 1.0 / np.sqrt(mu.max()) + 1.0 / np.sqrt(lam.max())
    scale = 2.0 / rate

    core = fractional_power(dec_m, -0.25).mat @ pair.t @ fractional_power(dec_h, -0.25).mat

    def integrand(s: float) -> np.ndarray:
        t = -scale * np.log1p(-s)
        em = (vm * np.exp(-t / np.sqrt(mu))) @ vm.conj().T
        eh = (vh * np.exp(-t / np.sqrt(lam))) @ vh.conj().T
        return (em @ core @ eh) * (scale / (1.0 - s))

    x, _ = integrate_adaptive(integrand, 0.0, 1.0, tol=tol)
    if not (np.iscomplexobj(h.mat) or np.iscomplexobj(m.mat)):
        x = x.real

    # self-test of the exponential identity at C = H^{-1/2}
    c_eigs = 1.0 / np.sqrt(lam)
    c_scale = 1.0 / c_eigs.min()

    def identity_integrand(s: float) -> np.ndarray:
        t = -c_scale * np.log1p(-s)
        vals = np.exp(-2.0 * t * c_eigs) * c_eigs
        return ((vh * vals) @ vh.conj().T) * (c_scale / (1.0 - s))

    half_id, _ = integrate_adaptive(identity_integrand, 0.0, 1.0, tol=tol)
    defect = op_norm(half_id - 0.5 * np.eye(h.n))
    return SqrtIntegralResult(x=x, identity_defect=float(defect))


def sqrt_form_bound(eta: float) -> float:
    """Closeness constant inherited by the square roots: eta / 2."""
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    return eta / 2.0
