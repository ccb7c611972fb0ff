"""The one exact comparison, :func:`repro.kernel.exact.cross_gt`.

Every better-response verdict of the tensor kernel and of
:class:`~repro.kernel.space.ConfigSpace` is ``a·b > c·d`` on
kernel-scaled integers. These tests feed the comparison near-ties whose
cross products differ by exactly 0 or ±1 — the cases a float screen
cannot decide — in each lane: int64 operands whose products fit
(``"int"``), int64 operands up to ``2**62`` whose products do not
(``"float"``, broadcast the way the stepper and the move builders
broadcast), and object arrays past int64 (``"exact"``). ``>`` and
``==`` must equal Python's, and the float screen must confirm no entry
that the caller's *where* mask leaves out.
"""

from __future__ import annotations

from math import gcd

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.exact import cross_gt
from repro.obs.recorder import MetricsRecorder, observe

COUNTER = "test.confirmations"

#: Per lane: (range of the coprime row pair, range of the column
#: multiplier, operand dtype). Operands stay below 2**31 in the int
#: lane; in the float lane they reach 2**62 and their products pass
#: 2**53, so float64 rounds them; in the exact lane they pass int64.
LANES = {
    "int": ((1, 2**15), (1, 2**15), np.int64),
    "float": ((2**20, 2**30), (2**20, 2**31), np.int64),
    "exact": ((2**40, 2**60), (2**40, 2**60), object),
}


def _bezout(x: int, y: int):
    """Nonnegative ``(u, v)`` with ``u·x − v·y == 1`` for coprime x, y."""
    if y == 1:
        return 1, x - 1
    u = pow(x, -1, y)
    return u, (u * x - 1) // y


@st.composite
def near_tie_grids(draw):
    """``(lane, a, b, c, d)`` with ``a, c`` per row broadcast over columns.

    Row ``r`` holds a coprime pair ``(a_r, c_r)``; column entry ``(δ, k)``
    gives ``b = δ·u + k·c_r`` and ``d = δ·v + k·a_r`` from the row's
    Bézout pair, so ``a_r·b − c_r·d == δ`` exactly: δ ∈ {−1, 0, 1}
    mostly, and now and then a far entry the screen decides alone.
    Half the grids swap the roles, broadcasting ``(b, d)`` instead.
    """
    lane = draw(st.sampled_from(sorted(LANES)))
    pairs, ks, dtype = LANES[lane]
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    a, c, b, d = [], [], [], []
    for _ in range(rows):
        x = draw(st.integers(*pairs))
        y = draw(st.integers(*pairs))
        g = gcd(x, y)
        x, y = x // g, y // g
        u, v = _bezout(x, y)
        a.append([x])
        c.append([y])
        b_row, d_row = [], []
        for _ in range(cols):
            delta = draw(st.sampled_from((-1, 0, 1, 1 << 20)))
            k = draw(st.integers(*ks))
            b_row.append(delta * u + k * y)
            d_row.append(delta * v + k * x)
        b.append(b_row)
        d.append(d_row)
    a, b, c, d = (np.array(v, dtype=dtype) for v in (a, b, c, d))
    if draw(st.booleans()):
        a, b, c, d = b, a, d, c
    return lane, a, b, c, d


def _truth(a, b, c, d):
    """``(a·b > c·d, a·b == c·d)`` in Python integers."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(v, dtype=object) for v in (a, b, c, d)))
    lhs, rhs = a * b, c * d
    return (lhs > rhs).astype(bool), (lhs == rhs).astype(bool)


def _confirmations(*args, **kwargs):
    recorder = MetricsRecorder()
    with observe(recorder):
        result = cross_gt(*args, counter=COUNTER, **kwargs)
    return result, recorder.counter(COUNTER)


@settings(max_examples=300, deadline=None)
@given(grid=near_tie_grids(), data=st.data())
def test_cross_gt_matches_python_integers_on_near_ties(grid, data):
    lane, a, b, c, d = grid
    gt_true, eq_true = _truth(a, b, c, d)

    (gt, eq), everywhere = _confirmations(a, b, c, d, lane, ties=True)
    assert gt.dtype == eq.dtype == bool
    assert (gt == gt_true).all() and (eq == eq_true).all()
    plain, _ = _confirmations(a, b, c, d, lane)
    assert (plain == gt_true).all()
    if lane != "float":
        assert everywhere == 0
    else:
        # Every exact tie of positive products lies inside the bracket.
        assert everywhere >= np.count_nonzero(eq_true)

    # A mask of the output's shape, or one broadcast over its rows.
    shape = gt.shape if data.draw(st.booleans()) else (1, gt.shape[1])
    size = int(np.prod(shape))
    where = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    where = where.reshape(shape)
    inside = np.broadcast_to(where, gt.shape)
    (gt_in, eq_in), confirmed = _confirmations(a, b, c, d, lane, where=where, ties=True)
    _, confirmed_out = _confirmations(a, b, c, d, lane, where=~where, ties=True)
    assert (gt_in[inside] == gt_true[inside]).all()
    assert (eq_in[inside] == eq_true[inside]).all()
    # The masked-in and masked-out confirmations split the unmasked
    # ones: no entry outside *where* is ever confirmed.
    assert confirmed + confirmed_out == everywhere
    assert confirmed <= np.count_nonzero(inside)
    if lane == "float":
        # An unconfirmed tie reads as neither greater nor equal.
        outside_ties = eq_true & ~inside
        assert not eq_in[outside_ties].any() and not gt_in[outside_ties].any()
    _, none = _confirmations(a, b, c, d, lane, where=np.zeros(gt.shape, dtype=bool))
    assert none == 0


def test_float_screen_decides_far_entries_alone():
    """Products ~2**100 whose difference is far above the bracket."""
    a = np.array([2**50, 2**50], dtype=np.int64)
    b = np.array([2**50 + 2**40, 2**50 - 2**40], dtype=np.int64)
    (gt, eq), confirmed = _confirmations(a, b, a, a, "float", ties=True)
    assert gt.tolist() == [True, False] and eq.tolist() == [False, False]
    assert confirmed == 0


def test_scalar_and_row_operands_broadcast():
    """The stepper's shapes: a ``(G, 1)`` column against ``(G, m)``."""
    r_j = np.array([[3], [2**61]], dtype=np.int64)
    best_den = np.array([[5, 7], [2**61 - 1, 2**61]], dtype=np.int64)
    best_r = np.array([[5, 1], [2**61 - 1, 2**61 + 1]], dtype=np.int64)
    den_j = np.array([[3, 21], [2**61, 2**61 - 1]], dtype=np.int64)
    gt_true, eq_true = _truth(r_j, best_den, best_r, den_j)
    (gt, eq), _ = _confirmations(r_j, best_den, best_r, den_j, "float", ties=True)
    assert (gt == gt_true).all() and (eq == eq_true).all()
    assert eq_true.any() and gt_true.any()
