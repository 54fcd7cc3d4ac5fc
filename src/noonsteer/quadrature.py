"""Adaptive Gauss-Kronrod quadrature, refined panel by panel and row by row.

Every panel carries the 10-point Gauss rule and its 21-point Kronrod
extension (QUADPACK qk21), whose difference estimates the panel's error; a
row bisects only its own panels that miss their share of its tolerance.
Chosen over plain Gauss-Hermite because S_N^2 / P has poles near the real
axis, which a few small panels then resolve. ``integrate_abs`` locates the
sign changes of a kinked |f| first and integrates piecewise; it serves the
matrix route only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure

DEFAULT_HALF_WIDTH = 12.0

#: QUADPACK qk21 on [0, 1], from the outside in to the centre: the Kronrod
#: abscissae, their Kronrod weights, and the Gauss weights, which are zero at
#: the abscissae only the Kronrod rule uses. Mirrored, they give ascending nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720, 0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980029535, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697, 0.0,
    0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469, 0.0,
    0.295524224714752870173892994651338, 0.0,
])
KRONROD_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_RULES = np.array([np.concatenate([w, w[-2::-1]]) for w in (_WGK, _WG)])
for _table in (KRONROD_NODES, _RULES):
    _table.flags.writeable = False
KRONROD_WEIGHTS, GAUSS_WEIGHTS = _RULES

#: A row is done once the sum of its panels' error estimates is at most
#: ABS_TOL + REL_TOL |value|; its panels then bisect where their estimate
#: passes their width's share of that bound.
ABS_TOL = 1e-9
REL_TOL = 1e-12

#: A row that would hold more panels than this, or bisect a panel 2^-_MAX_LEVEL
#: the width of a first-pass panel, raises ConvergenceFailure; a stalled row
#: evaluates fewer than 2 MAX_PANELS panels of 21 nodes.
MAX_PANELS = 2048
_MAX_LEVEL = 40


def _panel_sums(values: np.ndarray, half):
    """(K21, error estimate) of each panel from its 21 values, shape (panels, 21).

    The estimate is QUADPACK's r min(1, (200 |K21 - G10| / r)^1.5), r = int
    |f - mean|: on a panel that does not resolve f the two sums can agree by
    chance (|K21 - G10| 400 times below K21's own error), and it reports most of r.
    """
    kronrod, gauss = np.einsum("pk,wk->wp", values, _RULES)
    spread = np.einsum("pk,k->p", np.abs(values - 0.5 * kronrod[:, None]), KRONROD_WEIGHTS)
    difference = np.abs(kronrod - gauss)
    # all 21 values equal where spread = 0, and K21 is exact there
    scaled = np.divide(200.0 * difference, spread, out=np.zeros_like(spread), where=spread > 0.0)
    return kronrod * half, spread * np.minimum(1.0, scaled * np.sqrt(scaled)) * half


def _panel_nodes(lo: float, width: float, level: np.ndarray, index: np.ndarray):
    """(nodes, half widths) of the panels (level, index) of a domain starting at
    ``lo`` with first-pass panels ``width`` wide; 21 nodes a panel, in order."""
    half = 0.5 * width * 0.5**level
    centre = lo + (index + 0.5) * (2.0 * half)
    return (centre[:, None] + half[:, None] * KRONROD_NODES).ravel(), half


@lru_cache(maxsize=16)
def _first_pass(lo: float, hi: float):
    """(nodes, panels, half width) of the first pass over [lo, hi], two panels
    per unit length and at least 8; the shared nodes are read-only."""
    panels = max(8, math.ceil(2.0 * (hi - lo)))
    nodes, half = _panel_nodes(lo, (hi - lo) / panels, np.zeros(panels, dtype=np.int64), np.arange(panels))
    nodes.flags.writeable = False
    return nodes, panels, float(half[0])


def integrate(f, domain: tuple[float, float] = (-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH)):
    """Integrate a vectorized real function over ``domain``, refining each row
    until its error estimate settles.

    ``f`` is called with a 1-d ndarray of nodes. It returns either values of
    the same shape, and the integral comes back as a float, or shape
    (C, nodes) for C integrands at once, and a length-C array comes back.
    The first call covers the domain with ``_first_pass``. Each later call
    evaluates the halves of the panels that the pending rows bisect, and a
    row keeps the Kronrod sum of its own panels, added in position order,
    once it meets the tolerance above. A row's panels, and so its value, do
    not depend on the rows beside it. Raises ConvergenceFailure at once for a
    non-finite pending row, or when a row would pass MAX_PANELS or _MAX_LEVEL.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("empty integration domain")
    nodes, first, half = _first_pass(lo, hi)
    values = np.asarray(f(nodes))
    scalar = values.ndim == 1
    values = values.reshape(-1, KRONROD_NODES.size)
    n_rows = values.shape[0] // first
    kronrod, error = _panel_sums(values, half)
    # one record per panel of a pending row, grouped by row and in position order;
    # the panel of a record is (level, index), built once a row is pending
    row = np.repeat(np.arange(n_rows), first)
    level = index = None
    result = np.empty(n_rows)
    pending = np.ones(n_rows, dtype=bool)
    while True:
        panels = np.bincount(row, minlength=n_rows)
        value = np.bincount(row, kronrod, minlength=n_rows)
        estimate = np.bincount(row, error, minlength=n_rows)
        bad = pending & ~(np.isfinite(value) & np.isfinite(estimate))
        if bad.any():
            raise ConvergenceFailure(f"integral is not finite on {panels[bad][0]} panels")
        bound = ABS_TOL + REL_TOL * np.abs(value)
        done = pending & (estimate <= bound)
        result[done] = value[done]
        pending &= ~done
        if not pending.any():
            return float(result[0]) if scalar else result
        if level is None:
            level = np.zeros(row.size, dtype=np.int64)
            index = np.tile(np.arange(first), n_rows)
        keep = pending[row]
        row, level, index, kronrod, error = (a[keep] for a in (row, level, index, kronrod, error))
        split = error > bound[row] * 0.5**level / first
        grown = panels + np.bincount(row, split, minlength=n_rows)
        deepest = np.bincount(row[split & (level == _MAX_LEVEL)], minlength=n_rows) > 0
        over = pending & ((grown > MAX_PANELS) | deepest)
        if over.any():
            worst = np.argmax(np.where(over, estimate, -1.0))
            raise ConvergenceFailure(
                f"refinement stalled at {panels[worst]} panels (cap {MAX_PANELS}) with error estimate "
                f"{estimate[worst]:.3e}" + ("" if n_rows == 1 else f" (largest of {int(over.sum())} stalled rows)")
            )
        # each bisected panel becomes its two halves, in place
        copies = 1 + split
        new = np.repeat(split, copies)
        right = np.arange(new.size) - np.repeat(np.cumsum(copies) - copies, copies)
        row, kronrod, error = np.repeat(row, copies), np.repeat(kronrod, copies), np.repeat(error, copies)
        level = np.repeat(level, copies) + new
        index = np.repeat(index, copies) * (1 + new) + right
        # rows that bisect the same panel share its nodes
        keys, where = np.unique((level[new] << 48) | index[new], return_inverse=True)
        nodes, half = _panel_nodes(lo, (hi - lo) / first, keys >> 48, keys & ((1 << 48) - 1))
        values = np.asarray(f(nodes)).reshape(n_rows, keys.size, KRONROD_NODES.size)
        kronrod[new], error[new] = _panel_sums(values[row[new], where], half[where])


def _sign_change_points(f, domain, scan_points):
    """Locate sign changes of f on the domain by scan + bisection, which stops
    once the midpoint is no longer strictly inside: no step can move it then."""
    xs = np.linspace(domain[0], domain[1], scan_points)
    vals = np.asarray(f(xs), dtype=float)
    signs = np.sign(vals)
    cuts = list(xs[signs == 0.0])
    idx = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    for i in idx:
        lo, hi = xs[i], xs[i + 1]
        flo = vals[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            fmid = float(f(np.array([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return sorted(set(cuts))


def integrate_abs(f) -> float:
    """Integral of |f| over [-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH] for
    piecewise-smooth f with finitely many sign changes.

    The domain is split at the zeros found on a 2049-point scan, so each
    segment is smooth; the segment integrals (``integrate`` on each, with its
    tolerances) are taken in absolute value and summed. Deterministic
    left-to-right summation order.
    """
    domain = (-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH)
    cuts = _sign_change_points(f, domain, 2049)
    edges = [domain[0], *cuts, domain[1]]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-13:
            continue
        total += abs(integrate(f, (lo, hi)))
    return total
