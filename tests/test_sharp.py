"""Sharp families: for each bound, a checked-in case where it is attained.

A bound that is too large passes every ``truth <= bound`` test, so each family
here pins both sides: ``1 - slack <= truth / bound <= 1 + ALLOWANCE``.  The slack
is the measured distance of the family from equality at the chosen e, which
shrinks with e; the allowance covers the rounding by which a computed truth can
sit above a computed bound on an exactly sharp case.
"""

import numpy as np
import pytest

from relgap.matcore import HermitianMatrix, Projection
from relgap.ritz import ritz_bounds
from relgap.sqroot import sqrt_pair
from relgap.subspace import hs_subspace_bounds, subspace_bounds

U = np.finfo(float).eps
# provisional: four rounding units until the cross-check tolerances come from a
# measured error model (ROADMAP item 11)
ALLOWANCE = 4 * U
# e -> slack; the widest measured one is the Ritz family at L = 100, which reads
# 1 - 4.95e-4 at e = 1e-4 and 1 - 4.95e-6 at e = 1e-6
SLACK = {1e-4: 6e-4, 1e-6: 6e-6}


def _pair(big_l, e):
    """``H = diag(1, L)`` and ``M = H^{1/2} (I + e [[0, 1], [1, 0]]) H^{1/2}``."""
    h = np.diag([1.0, big_l])
    root = np.sqrt(h)
    return HermitianMatrix(h), HermitianMatrix(root @ np.array([[1.0, e], [e, 1.0]]) @ root)


def op_subspace(big_l, e):
    # [d1, d2] 1e-9 inside the inner eigenvalues of both H and M
    h, m = _pair(big_l, e)
    lam_m = np.linalg.eigvalsh(m.mat)
    rep = subspace_bounds(h, m, max(1.0, lam_m[0]) + 1e-9, min(big_l, lam_m[1]) - 1e-9)
    return rep.true_value, rep.bound, rep.hypothesis_ok


def hs_subspace(big_l, e):
    rep = hs_subspace_bounds(*_pair(big_l, e), np.sqrt(big_l))
    return rep.true_diff, rep.bound_diff, rep.hypothesis_ok


def _ritz(norm):
    def family(big_l, e):
        # W along (1, e), and next_ev the second eigenvalue of H
        rep = ritz_bounds(HermitianMatrix(np.diag([1.0, big_l])),
                          Projection.from_span(np.array([[1.0], [e]])), big_l, norm=norm)
        return rep.true_value, rep.bound, rep.hypothesis_ok
    return family


def half_rule(big_l, e):
    # the scalar pair (1, 1 + e) is the witness; L plays no part
    rep = sqrt_pair(HermitianMatrix([[1.0]]), HermitianMatrix([[1.0 + e]]))
    return rep.norm_x, rep.norm_t / 2.0, True


@pytest.fixture(params=[op_subspace, hs_subspace, _ritz("op"), _ritz("hs"), half_rule],
                ids=["op-subspace", "hs-subspace", "ritz-op", "ritz-hs", "half-rule"])
def family(request):
    return request.param


@pytest.mark.parametrize("big_l", [4.0, 100.0])
@pytest.mark.parametrize("e", sorted(SLACK))
def test_bound_is_attained(family, big_l, e):
    truth, bound, hypothesis_ok = family(big_l, e)
    assert hypothesis_ok
    assert 1.0 - SLACK[e] <= truth / bound <= 1.0 + ALLOWANCE
