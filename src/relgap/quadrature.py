"""Adaptive Gauss-Kronrod quadrature for matrix-valued integrands.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies the
per-panel error estimate; panels are bisected worst-first until the summed
entrywise error estimate drops below the requested absolute tolerance.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .matcore import ConvergenceError

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights; the embedded
# 7-point Gauss rule lives on nodes 1, 3, 5, 7.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:][::-1], _XGK[6::-1]])  # ascending, 15 nodes
_W_KRONROD = np.concatenate([_WGK[:7], _WGK[7:][::-1], _WGK[6::-1]])
_w_gauss = np.zeros(15)
_w_gauss[1:14:2] = np.concatenate([_WG[:3], _WG[3:][::-1], _WG[2::-1]])
_W_GAUSS = _w_gauss


def _panel(f: Callable[[float], np.ndarray], a: float, b: float):
    """Kronrod and Gauss estimates plus the entrywise error gauge on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = [np.asarray(f(mid + half * x)) for x in _NODES]
    k15 = half * sum(w * v for w, v in zip(_W_KRONROD, vals))
    if not np.all(np.isfinite(k15)):
        raise ConvergenceError(f"integrand is not finite on the panel [{a:.6g}, {b:.6g}]")
    g7 = half * sum(w * v for w, v in zip(_W_GAUSS, vals))
    err = float(np.max(np.abs(k15 - g7))) if k15.size else 0.0
    return k15, err


def integrate_adaptive(f: Callable[[float], np.ndarray], a: float, b: float,
                       tol: float, max_panels: int = 4096):
    """Integrate a matrix-valued ``f`` over ``[a, b]`` to absolute entrywise
    tolerance ``tol``.

    Returns ``(integral, error_estimate)``.  Raises :class:`ConvergenceError`
    with the achieved residual if the panel budget is exhausted first, and
    on a panel whose estimate is not finite.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    val, err = _panel(f, a, b)
    # heap of (-err, counter, a, b, value); counter breaks exact-error ties
    counter = 0
    heap = [(-err, counter, a, b, val)]
    total_err = err
    n_panels = 1
    while total_err > tol:
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol:.3e} within {max_panels} panels; "
                f"achieved residual {total_err:.3e}"
            )
        neg_err, _, pa, pb, _pval = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        left, err_l = _panel(f, pa, pm)
        right, err_r = _panel(f, pm, pb)
        total_err += err_l + err_r - (-neg_err)
        counter += 1
        heapq.heappush(heap, (-err_l, counter, pa, pm, left))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, pm, pb, right))
        n_panels += 1
    total = sum(item[4] for item in heap)
    return total, total_err
