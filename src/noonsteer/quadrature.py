"""Composite Gauss-Legendre quadrature with nested refinement.

Fixed-order panels over a symmetric interval, doubled until two successive
levels agree. Chosen over plain Gauss-Hermite because S_N^2 / P has poles
near the real axis. Every default-domain level is mirror-symmetric bit for
bit, nodes and weights alike (its panel edges are exact binary fractions and
the Gauss-Legendre rule is symmetrised), so ``even`` can hand ``integrate``
an even integrand evaluated on the positive half only; its one caller is
``inferred.inferred_variance_quadrature``. ``integrate_abs`` locates the
sign changes of a kinked |f| first and integrates piecewise; it serves the
matrix route only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceFailure

DEFAULT_HALF_WIDTH = 12.0

#: Gauss-Legendre nodes per panel.
PANEL_ORDER = 10

#: ``integrate`` keeps a value once it moves by at most ABS_TOL + REL_TOL |value|
#: from the level before, and raises ConvergenceFailure after MAX_REFINEMENTS
#: panel doublings.
ABS_TOL = 1e-9
REL_TOL = 1e-12
MAX_REFINEMENTS = 14

#: A batched ``integrate`` call stops refining, and raises ConvergenceFailure,
#: once rows x nodes would pass this many values (4 MB per working array), so
#: one stalled row cannot inflate a whole batch; ``steering._reports`` re-runs
#: such a batch one row at a time. One-row calls are not limited.
BATCH_VALUE_BUDGET = 1 << 19


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a composite panel rule on [domain[0], domain[1]]."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    domain: tuple[float, float]
    panels: int

    def refined(self) -> "QuadratureGrid":
        return build_grid(self.domain, panels=2 * self.panels)


@lru_cache(maxsize=None)
def _base_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and
    shared read-only by every grid."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


#: Default-domain levels with at most this many panels (48 to 768 in
#: ``integrate``'s doubling, 0.24 MB in all) are built once and shared.
CACHED_PANELS = 768


def build_grid(domain: tuple[float, float], panels: int = 48) -> QuadratureGrid:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("empty integration domain")
    if (lo, hi) == (-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH) and panels <= CACHED_PANELS:
        return _default_level(panels)
    return _panel_rule(lo, hi, panels)


@lru_cache(maxsize=8)
def _default_level(panels: int) -> QuadratureGrid:
    """A default-domain level, keyed on its panel count alone and read-only,
    like ``_base_rule``."""
    grid = _panel_rule(-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH, panels)
    grid.nodes.flags.writeable = False
    grid.weights.flags.writeable = False
    return grid


def _panel_rule(lo: float, hi: float, panels: int) -> QuadratureGrid:
    base_x, base_w = _base_rule(PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return QuadratureGrid(nodes=nodes, weights=weights, domain=(lo, hi), panels=panels)


def default_grid() -> QuadratureGrid:
    return build_grid((-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH))


def even(f):
    """``f`` for an integrand that is even in x bit for bit, evaluated on the
    positive half of mirror-symmetric nodes and mirrored, so the caller
    receives the same full-length values in the same order. ValueError for
    nodes that are not mirror pairs bit for bit."""

    def mirrored(x):
        if x.size % 2 or not np.array_equal(x, -x[::-1]):
            raise ValueError("nodes are not mirror-symmetric")
        half = f(x[x.size // 2 :])
        return np.concatenate([half[..., ::-1], half], axis=-1)

    return mirrored


def integrate(f, grid: QuadratureGrid | None = None) -> float | np.ndarray:
    """Integrate a vectorized real function, refining until stable.

    ``f`` is called with the ndarray of nodes. It returns either values of
    the same shape, and the integral comes back as a float, or shape
    (C, nodes) for C integrands at once, and a length-C array comes back.
    Each row keeps the value of the first level at which it agrees with the
    level before within ``ABS_TOL + REL_TOL * |value|``, and each row is summed
    on its own, so a row's result does not depend on the rows beside it.
    Every default-domain level is mirror-symmetric bit for bit, which
    ``inferred_variance_quadrature`` relies on through ``even``.
    Raises ConvergenceFailure if ``MAX_REFINEMENTS`` panel doublings leave
    any row above tolerance (at once for a non-finite value), or if a batch
    outgrows ``BATCH_VALUE_BUDGET``.
    """
    if grid is None:
        grid = default_grid()
    previous = np.asarray(np.sum(f(grid.nodes) * grid.weights, axis=-1))
    result = np.empty_like(previous)
    pending = np.ones(previous.shape, dtype=bool)
    delta = np.full(previous.shape, np.inf)
    for _ in range(MAX_REFINEMENTS):
        grid = grid.refined()
        if previous.size > 1 and previous.size * grid.nodes.size > BATCH_VALUE_BUDGET:
            raise ConvergenceFailure(
                f"batch of {previous.size} rows would pass {BATCH_VALUE_BUDGET} values at "
                f"panels={grid.panels}; largest unconverged delta {np.max(delta[pending]):.3e}"
            )
        current = np.asarray(np.sum(f(grid.nodes) * grid.weights, axis=-1))
        delta = np.abs(current - previous)
        if not np.isfinite(delta[pending]).all():
            raise ConvergenceFailure(f"integral is not finite at panels={grid.panels}")
        converged = pending & (delta <= ABS_TOL + REL_TOL * np.abs(current))
        result[converged] = current[converged]
        pending &= ~converged
        if not pending.any():
            return float(result) if result.ndim == 0 else result
        previous = current
    rows = "" if delta.ndim == 0 else f" (largest of {int(pending.sum())} unconverged rows)"
    raise ConvergenceFailure(
        f"refinement stalled at panels={grid.panels} with last delta "
        f"{np.max(delta[pending]):.3e}{rows}"
    )


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
        panels = max(8, int(np.ceil(2.0 * (hi - lo))))
        total += abs(integrate(f, build_grid((lo, hi), panels=panels)))
    return total
