"""The one exact comparison behind every better-response verdict.

A miner of power ``p`` gains by moving from coin *c* to coin *j* iff
``R_j·M_c > R_c·(M_j + p)`` on the kernel's scaled integers. The tensor
kernel and :class:`~repro.kernel.space.ConfigSpace` decide that
cross-multiplication with :func:`cross_gt`, in the lane
:func:`kernel_lane` picks. In the ``"float"`` lane each float64 product
has a relative error of at most about ``3·2**-53`` and their difference
one rounding more, so a screened difference beyond
``_REL_TOL·(a·b + c·d)`` (over 20 times that error) is certain; the
rest is confirmed in Python integers.
"""

from __future__ import annotations

import numpy as np

from repro.obs.recorder import get_recorder

__all__ = ["cross_gt", "kernel_lane"]

#: Largest integer the int64 fast paths may produce: kernel products
#: here, lottery draw bounds in :mod:`repro.stochastic.lottery`.
_INT64_SAFE = 2**62

#: Relative bracket of the float64 screen.
_REL_TOL = 1e-14


def kernel_lane(kernel) -> str:
    """Which comparison lane a kernel's integer magnitudes admit.

    ``"int"`` — every product fits int64; ``"float"`` — operands fit
    but products may not: float64 screen with exact confirmation;
    ``"exact"`` — state itself passes int64: Python integers.
    """
    total = sum(kernel.powers)
    peak = max(kernel.powers)
    top = max(kernel.rewards)
    if top * (total + peak) < _INT64_SAFE:
        return "int"
    if total + peak < _INT64_SAFE and top < _INT64_SAFE:
        return "float"
    return "exact"


def cross_gt(a, b, c, d, lane: str, *, counter: str, where=None, ties: bool = False):
    """Elementwise exact ``a·b > c·d`` over broadcast nonnegative integers.

    Only the ``"float"`` *lane* screens; any other compares directly,
    on int64 or object arrays. With *ties* the result is ``(a·b > c·d,
    a·b == c·d)``. Bracketed entries are confirmed where *where* holds
    (everywhere by default) and counted under *counter*; the others
    read as neither greater nor equal.
    """
    if lane != "float":
        lhs, rhs = a * b, c * d
        return (lhs > rhs, lhs == rhs) if ties else lhs > rhs
    lhs = np.multiply(a, b, dtype=np.float64)
    rhs = np.multiply(c, d, dtype=np.float64)
    diff = lhs - rhs
    tol = (lhs + rhs) * _REL_TOL
    gt = diff > tol
    unsure = (diff >= -tol) & ~gt
    if where is not None:
        unsure &= where
    eq = np.zeros_like(gt) if ties else None
    at = np.nonzero(unsure)
    if at[0].size:
        get_recorder().count(counter, int(at[0].size))
        a, b, c, d = (np.broadcast_to(x, gt.shape)[at].astype(object) for x in (a, b, c, d))
        lhs, rhs = a * b, c * d
        gt[at] = lhs > rhs
        if ties:
            eq[at] = lhs == rhs
    return (gt, eq) if ties else gt
