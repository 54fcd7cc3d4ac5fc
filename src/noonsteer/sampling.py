"""Shot-level Monte Carlo realization of the measurement protocol.

Number pairs are drawn from the loss-model joint distribution; homodyne
shots draw the a-mode X outcome by inverse CDF from a precomputed monotone
table, equal to np.interp bit for bit but located through a guide table of
uniform u-cells, then the b-mode quadrature from the conditional density by
rejection against a Gaussian envelope scaled by a per-shot bound proven from
exact wavefunction peaks, so every proposal is accepted with probability at
least 1 / (2 max_k M_k). The accept test divides out the factor e^{-q^2/2}
that the density and the envelope share, which leaves one exp and a Hermite
recurrence per proposal (see ``sample_quadrature_pair``). Conditioning on the
continuous outcome is done by binning, which the analytic pipeline never
needs - that makes the sampler an independent statistical oracle for every
inferred quantity.

All three components come from one occupancy-weighted estimator
(``_occupancy_weighted``): the average of a per-group value over conditioning
groups, with a delta-method error made of a within-group and a between-group
term. For var_number the groups are the n_a outcomes and the value is the
variance of n_b; for var_quadN and the commutator they are the merged x bins,
and the values are the variance of Q^N and the modulus of the per-bin
combination of setting means (the modulus is taken per bin, never per shot).
Both groupings take each group's moments from one helper that centres them on
the group mean (``_group_moments``); x bins are found by arithmetic, not search.

Each setting's shots are drawn in blocks of SHOT_BLOCK shots (the last one
may be partial). A (setting, block) pair draws from its own substream and
fills its own slice of the setting's outcome arrays, so the blocks run on a
thread per usable core and the result, shot log included, is the same for
any core count. The draw's working set is bounded per block, not per setting.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import zip_longest

import numpy as np
from numpy.polynomial.hermite import Hermite

from .errors import DegenerateChannel, InsufficientBinOccupancy
from .fock import OBSERVABLE_THETA, homodyne_combination
from .inferred import px_density
from .lossy import LossChannel, _branch_profiles, binomial_ladder, check_finite_phase

SETTING_NUMBER = "number-pair"

X_TABLE_NODES = 4096
X_RANGE = (-8.0, 8.0)
#: Uniform u-cells of the guide table that locates a uniform draw in the x CDF.
X_GUIDE_CELLS = 1 << 14
MIN_BIN_OCCUPANCY = 20
#: Most fine x bins one estimate may ask for, checked before any array is built.
MAX_BINS = 10**6
#: Shots per block: every (setting, block) draws from its own substream, so
#: this fixes the random stream; it also bounds the per-block working set.
SHOT_BLOCK = 1 << 16


def setting_label(name: str) -> str:
    """Wire name of a setting as written to shot logs."""
    return name if name == SETTING_NUMBER else f"x-then-{name}"


@dataclass(frozen=True)
class ComponentEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class SteeringEstimate:
    """Sampler-side steering evaluation with delta-method standard errors."""

    n_quanta: int
    phi: float
    channel: LossChannel
    which: str
    shots: int
    seed: int
    bins: int
    e_hat: float
    stderr: float
    var_number: ComponentEstimate
    var_quadrature_n: ComponentEstimate
    commutator_modulus: ComponentEstimate
    #: accepted homodyne shots over the rejection loop's proposals
    acceptance: float
    #: fewest shots of one setting in one merged bin
    min_occupancy: int


def sample_number_pair(n_quanta: int, channel: LossChannel, rng: np.random.Generator, size: int = 1):
    """Joint (n_a, n_b) samples from the lossy NOON number distribution.

    The coherence terms carry no number weight, so the joint is an even
    mixture of the two surviving binomial ladders, whatever the phase.
    """
    n_a = np.zeros(size, dtype=np.int64)
    n_b = np.zeros(size, dtype=np.int64)
    a_branch = rng.random(size) < 0.5
    n_a[a_branch] = rng.binomial(n_quanta, channel.eta_a, size=int(a_branch.sum()))
    n_b[~a_branch] = rng.binomial(n_quanta, channel.eta_b, size=int((~a_branch).sum()))
    return n_a, n_b


@lru_cache(maxsize=8)
def _x_cdf_table(n_quanta: int, eta_a: float):
    """(xs, cdf, slope, guide) of the inverse-CDF x draw: the trapezoid CDF of
    P(x) on the nodes xs, normalised to end at 1; np.interp's slopes
    diff(xs) / diff(cdf), with a 0 appended for u = 1; and per u-cell
    [c, c + 1) / X_GUIDE_CELLS the interval j = searchsorted(cdf, u, "right") - 1
    at the start of the cell, or -1 where more than one node lies inside it
    (the entry past the last cell, for u = 1, is the interval before last)."""
    xs = np.linspace(X_RANGE[0], X_RANGE[1], X_TABLE_NODES)
    dens = px_density(n_quanta, LossChannel(eta_a, 1.0), xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    # the top of the CDF can hold flat steps, where the increments fall below
    # an ulp of 1; their slope is infinite, but the search never selects
    # one, as it puts u in the last interval that starts at or below u
    with np.errstate(divide="ignore"):
        slope = np.append(np.diff(xs) / np.diff(cdf), 0.0)
    ends = np.searchsorted(cdf, np.arange(X_GUIDE_CELLS + 1) / X_GUIDE_CELLS, "right") - 1
    guide = np.append(np.where(np.diff(ends) <= 1, ends[:-1], -1), cdf.size - 2)
    return xs, cdf, slope, guide


def _inverse_cdf(u, xs, cdf, slope, guide):
    """np.interp(u, cdf, xs) bit for bit for u in [0, 1] (``_x_cdf_table``): j is
    u's guide entry (u X_GUIDE_CELLS is exact, the cell count being a power of
    two), searched only in cells with more than one node, plus 1 if u reaches the
    next node; the value is np.interp's own formula slope[j] (u - cdf[j]) + xs[j]."""
    j = guide[(u * X_GUIDE_CELLS).astype(np.intp)]
    crowded = np.flatnonzero(j < 0)
    j[crowded] = np.searchsorted(cdf, u[crowded], "right") - 1
    j += u >= cdf[j + 1]
    x = u - cdf[j]
    x *= slope[j]
    x += xs[j]
    return x


def _draw_x(n_quanta, channel, rng, size):
    return _inverse_cdf(rng.random(size), *_x_cdf_table(n_quanta, channel.eta_a))


@lru_cache(maxsize=None)
def _envelope_peaks(n_quanta):
    """(M, sigma): M_k = sup_q psi_k(q)^2 / g(q), k = 0..N, for g the N(0, sigma^2)
    density with sigma = sqrt(2 (N + 1)). With y = q / sqrt(2) the ratio is
    sigma H_k(y)^2 e^{-a y^2} / (2^k k!), a = 1 - 1 / sigma^2, which peaks at
    one of the k + 1 real roots of H_k' - a y H_k.
    """
    sigma = math.sqrt(2.0 * (n_quanta + 1.0))
    a = 1.0 - 1.0 / sigma**2
    peaks = np.empty(n_quanta + 1)
    for k in range(n_quanta + 1):
        h_k = Hermite.basis(k)
        y = (h_k.deriv() - a * Hermite([0.0, 0.5]) * h_k).roots().real
        peaks[k] = sigma * np.max(h_k(y) ** 2 * np.exp(-a * y * y)) / (2.0**k * math.factorial(k))
    return peaks, sigma


def _conditional_profile(n_quanta, phi, channel, theta, x):
    """Per-shot terms (branch_a, psi0_sq, c_x, bound) of the unnormalized
    conditional density raw(q) = branch_a psi_0(q)^2
    + psi0_sq sum_k ladder_b[k] psi_k(q)^2 + c_x psi_0(q) psi_N(q), which
    integrates to 2 P(x), and of its bound M_0 branch_a
    + (sum_k ladder_b[k] M_k) psi0_sq + sqrt(M_0 M_N) |c_x| (``_envelope_peaks``):
    as |psi_0 psi_N| / g <= sqrt(M_0 M_N), raw <= bound g at every q.
    """
    (branch_a,), psi0_sq, psi0_psin, _ = _branch_profiles(n_quanta, binomial_ladder(n_quanta, [channel.eta_a]), x)
    psi0_sq = psi0_sq.copy()  # a view would keep the whole stack alive
    c_x = 2.0 * channel.coherence_damping(n_quanta) * math.cos(n_quanta * theta - phi) * psi0_psin
    peaks, _ = _envelope_peaks(n_quanta)
    bound = peaks[0] * branch_a + (binomial_ladder(n_quanta, channel.eta_b) @ peaks) * psi0_sq
    bound += math.sqrt(peaks[0] * peaks[n_quanta]) * np.abs(c_x)
    return branch_a, psi0_sq, c_x, bound


def _raw_over_envelope(n_quanta, ladder_b, branch_a, psi0_sq, c_x, q):
    """raw(q) / (sigma g(q)) for the profile terms of ``_conditional_profile``.

    raw and g share the factor (2 pi)^{-1/2} e^{-q^2/2}: psi_k(q)^2 is that
    factor times He_k(q)^2 / k!, He_k the probabilists' Hermite polynomial
    (He_{k+1} = q He_k - k He_{k-1}), and sigma g(q) is it times e^{a q^2 / 2},
    a = 1 - 1 / sigma^2. The ratio is e^{-a q^2 / 2} R with
    R = branch_a + psi0_sq sum_k ladder_b[k] He_k^2 / k! + c_x He_N / sqrt(N!).
    """
    _, sigma = _envelope_peaks(n_quanta)
    he_prev, he, mix = 0.0, 1.0, ladder_b[0]  # He_{-1}, He_0 and the k = 0 term
    for k in range(n_quanta):
        he_prev, he = he, q * he - k * he_prev
        mix = mix + (ladder_b[k + 1] / math.factorial(k + 1)) * np.square(he)
    mix *= psi0_sq
    mix += branch_a
    mix += c_x * he / math.sqrt(math.factorial(n_quanta))
    ratio = np.square(q)
    ratio *= -0.5 * (1.0 - 1.0 / sigma**2)
    np.exp(ratio, out=ratio)
    ratio *= mix
    return ratio


def sample_quadrature_pair(
    n_quanta: int,
    phi: float,
    channel: LossChannel,
    observable: str,
    rng: np.random.Generator,
    size: int = 1,
):
    """(x_a, q_b) pairs: inverse-CDF x draw, then rejection-sampled q.

    x is np.interp(u, cdf, xs) on the ``_x_cdf_table`` CDF, found through the
    table's guide cells (``_inverse_cdf``). A proposal q ~ g = N(0, sigma^2) is
    accepted when u bound(x) g(q) <= raw(q) (``_conditional_profile``), with
    probability 2 P(x) / bound(x); the test is taken divided by sigma g(q) as
    u bound(x) / sigma <= e^{-a q^2 / 2} R(q) (``_raw_over_envelope``), one
    exp per proposal and no wavefunction stack. As the conditional block is
    positive, |c_x| <= c_0 + c_N for the coefficients c_k of psi_k^2 in raw,
    so that probability is at least 1 / (2 max_k M_k) (about 0.17 at N = 3)
    and the loop always ends.
    """
    if observable not in OBSERVABLE_THETA:
        raise ValueError(f"observable must be one of {sorted(OBSERVABLE_THETA)}")
    check_finite_phase(phi)
    theta = OBSERVABLE_THETA[observable]
    x = _draw_x(n_quanta, channel, rng, size)
    branch_a, psi0_sq, c_x, bound = _conditional_profile(n_quanta, phi, channel, theta, x)
    ladder_b = binomial_ladder(n_quanta, channel.eta_b)
    _, sigma = _envelope_peaks(n_quanta)
    bound /= sigma
    q = np.empty(size)
    # shots still waiting for an accepted q, their profile terms and bounds,
    # compacted after every round
    pending = np.arange(size)
    while pending.size:
        prop = rng.normal(0.0, sigma, size=pending.size)
        ratio = _raw_over_envelope(n_quanta, ladder_b, branch_a, psi0_sq, c_x, prop)
        keep = rng.random(pending.size) * bound <= ratio
        del ratio  # free it before the compaction below
        hits = np.flatnonzero(keep)
        q[pending[hits]] = prop[hits]
        misses = np.flatnonzero(~keep)
        pending = pending[misses]
        branch_a, psi0_sq, c_x, bound = (v[misses] for v in (branch_a, psi0_sq, c_x, bound))
    return x, q


class _ProposalCounter:
    """A generator that counts the normal variates drawn through it: in
    ``sample_quadrature_pair`` those are the rejection loop's proposals. It
    wraps ``np.random.Generator`` instead of subclassing it, so importing this
    module leaves ``numpy.random`` unloaded for the commands that never draw."""

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self.proposals = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self.generator.normal(loc, scale, size)
        self.proposals += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self.generator, name)


def _worker_count() -> int:
    """Cores this process may run on (its CPU affinity where the OS reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _homodyne_settings(n_quanta: int, which: str):
    """Settings needed for the variance and commutator estimators.

    The first entry always measures the criterion quadrature itself (it
    feeds the variance estimator); the ``combo`` maps settings to the
    coefficients of the per-bin commutator combination of q^N means.
    """
    combo = homodyne_combination(n_quanta, which)
    quad = which.upper()
    settings = [quad] + [s for s in combo if s != quad]
    return settings, combo


def _merged_partition(bin_counts: np.ndarray):
    """Greedy left-to-right merge until every kept bin is occupied enough.

    ``bin_counts`` is the minimum per-bin occupancy across settings. Each cut
    ends the shortest run of fine bins after the previous cut that holds
    MIN_BIN_OCCUPANCY shots; a table from shot count to fine edge gives it
    without a search. Returns the merged edges as fine-edge indices; raises
    if not one merged bin fills.
    """
    counts = np.asarray(bin_counts, dtype=np.intp)
    below = np.concatenate([[0], np.cumsum(counts)])  # shots below each fine edge
    # first_edge[v] is the first fine edge with at least v shots below it
    first_edge = np.repeat(np.arange(below.size), np.concatenate([[1], counts]))
    cuts = [0]
    while (reach := below[cuts[-1]] + MIN_BIN_OCCUPANCY) < first_edge.size:
        cuts.append(first_edge[reach])
    if len(cuts) < 2:
        raise InsufficientBinOccupancy(
            f"fewer than {MIN_BIN_OCCUPANCY} shots per setting in every bin, "
            "even after merging the whole axis"
        )
    # fold the (underfull or empty) right tail into the last kept bin
    cuts[-1] = len(bin_counts)
    return np.array(cuts)


def _fine_bins(x: np.ndarray, edges: np.ndarray):
    """clip(searchsorted(edges, x, "right") - 1, 0, bins - 1) for evenly spaced
    ``edges``, without the search: as bins span over 16 ulps of the range ends
    (``estimate_steering``), the guess (x - lo) / width is at most one bin off,
    and a comparison with each edge of the guessed bin corrects it."""
    n_fine = len(edges) - 1
    width = (edges[-1] - edges[0]) / n_fine
    with np.errstate(over="ignore"):  # a far outlier clips to an end bin
        guess = np.clip((x - edges[0]) / width, 0, n_fine - 1).astype(np.intp)
    return np.clip(guess - (x < edges[guess]) + (x >= edges[guess + 1]), 0, n_fine - 1)


def _group_moments(group: np.ndarray, y: np.ndarray, n_groups: int, weight=None):
    """Per-group count n, mean, unbiased variance m2 and the squared standard
    error (m4 - m2^2) / n of that variance of the values ``y`` (each counted
    ``weight`` times if given), the central moments summed as powers of
    y - mean in a second pass after the means; empty groups give zeros."""
    counts = np.bincount(group, weights=weight, minlength=n_groups).astype(float)
    occupied = np.maximum(counts, 1.0)
    mean = np.bincount(group, weights=y if weight is None else weight * y, minlength=n_groups) / occupied
    d2 = np.square(y - mean[group])
    w_d2 = d2 if weight is None else weight * d2
    m2 = np.bincount(group, weights=w_d2, minlength=n_groups) / occupied
    m4 = np.bincount(group, weights=w_d2 * d2, minlength=n_groups) / occupied
    m2 *= np.where(counts > 1, counts / np.maximum(counts - 1.0, 1.0), 1.0)
    return counts, mean, m2, np.maximum(m4 - np.square(m2), 0.0) / occupied


def _binned_moments(x_by: dict, y_by: dict, edges: np.ndarray):
    """Merged partition, then ``_group_moments`` of y per merged bin.

    Every setting's x is located once on the fine ``edges`` (values outside
    the range fall into the end bins). The merged edges are a subset of the
    fine edges, so each fine bin lies inside exactly one merged bin and a
    lookup table turns fine indices into merged ones. Returns
    ``{name: (counts, mean, m2, m2_se2)}``, one entry per merged bin.
    """
    fine_idx = {name: _fine_bins(x, edges) for name, x in x_by.items()}
    min_counts = np.min([np.bincount(idx, minlength=len(edges) - 1) for idx in fine_idx.values()], axis=0)
    cuts = _merged_partition(min_counts)
    fine_to_merged = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    return {
        name: _group_moments(fine_to_merged[idx], y_by[name], len(cuts) - 1)
        for name, idx in fine_idx.items()
    }


def _occupancy_weighted(counts, value, within) -> ComponentEstimate:
    """The average sum_g w_g value_g over conditioning groups g, w_g = counts_g / n,
    with its delta-method stderr: the within-group term sum_g w_g^2 within_g
    (within_g is the squared stderr of value_g) plus the between-group term
    sum_g w_g (value_g - average)^2 / n."""
    n_total = counts.sum()
    weights = counts / n_total
    average = float(np.dot(weights, value))
    se2 = float(np.dot(weights**2, within))
    se2 += float(np.dot(weights, (value - average) ** 2)) / n_total
    return ComponentEstimate(average, math.sqrt(se2))


def _number_variance(n_quanta, n_a, n_b) -> ComponentEstimate:
    """var(n_b | n_a) from number pairs: the n_b outcomes grouped by n_a, as the
    cells of one (N + 1) x (N + 1) histogram of the pairs weighted by count."""
    levels = n_quanta + 1
    hist = np.bincount(n_a * levels + n_b, minlength=levels**2)
    cells = np.arange(levels**2)
    counts, _, m2, m2_se2 = _group_moments(cells // levels, cells % levels, levels, hist)
    return _occupancy_weighted(counts, m2, m2_se2)


def estimate_steering(
    n_quanta: int,
    phi: float,
    channel: LossChannel,
    which: str = "p",
    shots: int = 1_000_000,
    bins: int = 40,
    seed: int = 0,
    bin_range: tuple[float, float] = X_RANGE,
    shot_log=None,
) -> SteeringEstimate:
    """Estimate E and its three components from simulated shots.

    Shots are split round-robin across the number setting and the homodyne
    settings the configuration needs. ``SeedSequence(seed)`` spawns one
    sequence per setting, and each of those one substream per block of
    SHOT_BLOCK shots; the blocks are drawn concurrently, one thread per usable
    core, each into its own slice of the outcomes, so the estimate and the
    shot log depend on the seed alone, never on the core count, and the
    draw's temporaries are bounded per block. ``acceptance`` counts the
    homodyne shots over the rejection loop's proposals, and ``min_occupancy``
    is the fewest shots of one setting in one merged bin. ``shot_log`` may be a
    path or file object; records are written interleaved in round-robin
    order as ``setting,outcome_a,outcome_b``. A path is opened before any
    shot is drawn, so one that cannot be written fails at once; an estimate
    that fails later leaves it empty.
    """
    if channel.eta_a * channel.eta_b == 0.0:
        raise DegenerateChannel("eta_a * eta_b = 0: nothing to estimate")
    if shots < 1:
        raise ValueError(f"sampling needs shots >= 1, got {shots}")
    if not 1 <= bins <= MAX_BINS or not -math.inf < bin_range[0] < bin_range[1] < math.inf:
        raise ValueError(f"binning needs 1 <= bins <= {MAX_BINS} and bin_range[0] < bin_range[1], got bins={bins}")
    if not 16.0 * math.ulp(max(map(abs, bin_range))) < (bin_range[1] - bin_range[0]) / bins < math.inf:
        raise ValueError(f"bins must be finite and wider than 16 ulps of the range ends, got {bins} over {bin_range}")
    own = isinstance(shot_log, (str, bytes)) or hasattr(shot_log, "__fspath__")
    with open(shot_log, "w") if own else contextlib.nullcontext(shot_log) as log:
        return _estimate(n_quanta, phi, channel, which, shots, bins, seed, bin_range, log)


def _estimate(n_quanta, phi, channel, which, shots, bins, seed, bin_range, shot_log):
    """``estimate_steering`` on checked arguments, with ``shot_log`` None or
    an open file object."""
    which = which.lower()
    hom_settings, combo = _homodyne_settings(n_quanta, which)
    settings = [SETTING_NUMBER, *hom_settings]
    sizes = [shots // len(settings) + (i < shots % len(settings)) for i in range(len(settings))]
    # per setting, the outcome pair (n_a, n_b) or (x, q) that its blocks fill
    outcomes = [(np.empty(sizes[0], np.int64), np.empty(sizes[0], np.int64))]
    outcomes += [(np.empty(size), np.empty(size)) for size in sizes[1:]]
    blocks = []  # (setting, substream, shot slice, outcome pair)
    for name, sequence, size, pair in zip(settings, np.random.SeedSequence(seed).spawn(len(settings)), sizes, outcomes):
        starts = range(0, size, SHOT_BLOCK)
        blocks += [
            (name, child, slice(start, min(start + SHOT_BLOCK, size)), pair)
            for start, child in zip(starts, sequence.spawn(len(starts)))
        ]

    def draw(block) -> int:
        """Fill one block's slice of its setting's outcomes; returns its proposals."""
        name, sequence, part, (out_a, out_b) = block
        stream = _ProposalCounter(np.random.Generator(np.random.PCG64(sequence)))
        size = part.stop - part.start
        if name == SETTING_NUMBER:
            out_a[part], out_b[part] = sample_number_pair(n_quanta, channel, stream, size)
            return 0
        out_a[part], out_b[part] = sample_quadrature_pair(n_quanta, phi, channel, name, stream, size)
        return stream.proposals

    # the shared tables are built here, not raced for by the workers
    _x_cdf_table(n_quanta, channel.eta_a)
    _envelope_peaks(n_quanta)
    workers = _worker_count()
    if workers == 1:
        # on one core, this thread: a worker thread draws in its own malloc
        # arena, which took 36% more page faults and 13-15% more time per
        # estimate (BENCH_sampler_blocks.json, "one_worker")
        proposals = sum(map(draw, blocks))
    else:
        # imported here: concurrent.futures imports logging, a start-up cost
        # that every command but ``sample`` would pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # map yields in block order, re-raises a block's exception and
            # cancels the blocks not yet started
            proposals = sum(pool.map(draw, blocks))

    (n_a, n_b), *pairs = outcomes
    number = _number_variance(n_quanta, n_a, n_b)
    x_by = {name: x for name, (x, _) in zip(hom_settings, pairs)}
    q_by = {name: q for name, (_, q) in zip(hom_settings, pairs)}

    edges = np.linspace(bin_range[0], bin_range[1], bins + 1)
    moments = _binned_moments(x_by, {name: reduce(np.multiply, [q] * n_quanta) for name, q in q_by.items()}, edges)
    pooled = np.sum(np.stack([moments[name][0] for name in hom_settings]), axis=0)

    # variance of Q^N: occupancy-weighted within-bin variance
    _, _, m2_q, m2_q_se2 = moments[hom_settings[0]]
    quad_n = _occupancy_weighted(pooled, m2_q, m2_q_se2)

    # commutator modulus: per-bin |combination of setting means|
    combo_mean, combo_se2 = np.zeros((2, pooled.size))
    for name, coeff in combo.items():
        counts, mean, m2, _ = moments[name]
        combo_mean += coeff * mean
        combo_se2 += coeff**2 * m2 / np.maximum(counts, 1.0)
    commutator = _occupancy_weighted(pooled, np.abs(combo_mean), combo_se2)

    floor = 1.0 / shots
    number, quad_n, commutator = (
        ComponentEstimate(c.value, max(c.stderr, floor)) for c in (number, quad_n, commutator)
    )
    var_n, se_var_n = number.value, number.stderr
    var_q, se_var_q = quad_n.value, quad_n.stderr
    c_hat, se_c = commutator.value, commutator.stderr

    if c_hat > 0.0:
        e_hat = 2.0 * math.sqrt(var_n * var_q) / c_hat
    else:
        e_hat = math.inf
    # conservative first-order propagation; the sqrt of a near-zero variance
    # estimate fluctuates like sqrt(se), not se/(2 sqrt(v))
    d_sqrt_n = se_var_n / (2.0 * math.sqrt(var_n)) if var_n > se_var_n else math.sqrt(se_var_n)
    d_sqrt_q = se_var_q / (2.0 * math.sqrt(var_q)) if var_q > se_var_q else math.sqrt(se_var_q)
    if math.isfinite(e_hat):
        se_e = (2.0 / c_hat) * (
            math.sqrt(var_q) * d_sqrt_n + math.sqrt(max(var_n, 0.0)) * d_sqrt_q
        ) + e_hat * se_c / c_hat
        se_e = max(se_e, floor)
    else:
        se_e = math.inf

    if shot_log is not None:
        _write_shot_log(shot_log, settings, n_a, n_b, x_by, q_by)

    return SteeringEstimate(
        n_quanta=n_quanta,
        phi=phi,
        channel=channel,
        which=which,
        shots=shots,
        seed=seed,
        bins=pooled.size,
        e_hat=e_hat,
        stderr=se_e,
        var_number=number,
        var_quadrature_n=quad_n,
        commutator_modulus=commutator,
        acceptance=sum(sizes[1:]) / proposals,
        min_occupancy=int(min(moments[name][0].min() for name in hom_settings)),
    )


#: Shot-log rounds formatted per write, which bounds the text held in memory.
SHOT_LOG_ROUNDS = 1 << 14


def _write_shot_log(handle, settings, n_a, n_b, x_by, q_by):
    """One CSV line per shot: setting,outcome_a,outcome_b (9 significant digits).

    Shots are interleaved round-robin: round r holds the r-th shot of every
    setting that has one, in setting order. Number outcomes must be integers
    and homodyne outcomes finite; anything else raises ValueError before
    anything is written to the open file ``handle``.
    """
    n_a, n_b = np.asarray(n_a), np.asarray(n_b)
    if not (np.issubdtype(n_a.dtype, np.integer) and np.issubdtype(n_b.dtype, np.integer)):
        raise ValueError("number settings carry integer outcomes")
    columns = [(f"{SETTING_NUMBER},%d,%d\n", n_a, n_b)]
    for name in settings[1:]:
        x, q = x_by[name], q_by[name]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
            raise ValueError("quadrature outcomes must be finite")
        columns.append((f"{setting_label(name)},%.9g,%.9g\n", x, q))
    rounds = max(out_a.size for _, out_a, _ in columns)
    handle.write("setting,outcome_a,outcome_b\n")
    for start in range(0, rounds, SHOT_LOG_ROUNDS):
        part = slice(start, start + SHOT_LOG_ROUNDS)
        lines = [
            [template % pair for pair in zip(out_a[part].tolist(), out_b[part].tolist())]
            for template, out_a, out_b in columns
        ]
        handle.writelines(
            line for shot_round in zip_longest(*lines) for line in shot_round if line is not None
        )
