"""Steering functionals, thresholds, sweeps, homodyne-protocol right-hand
sides, and the two-hill coherence inequality.

The central object is the ratio

    E = 2 sqrt(var_number * var_quadrature_N) / commutator_modulus

with E < 1 certifying steering of mode b by measurements on mode a. A zero
denominator at a bad phase is reported as NondiscriminatingPhase rather than
as an infinite E: the configuration is unusable, not steered or unsteered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DegenerateChannel,
    NondiscriminatingPhase,
    NoonSteerError,
    NoThresholdInBracket,
)
from .fock import OBSERVABLE_THETA, homodyne_combination, quadrature_power
from .inferred import (
    _norm_which,
    commutator_phase_factor,
    inferred_commutator_modulus,
    inferred_number_variance,
    inferred_variance_quadrature,
    moment_integral,
    overlap_abs_integral,
)
from .lossy import LossChannel, check_finite_phase, conditional_number_b, number_marginal_a

#: Phase factors smaller than this count as an analytically zero denominator.
PHASE_TOLERANCE = 1e-9

#: Configurations per batched variance integral in ``_reports`` (eval, threshold,
#: sweep). Bounds the (configurations x nodes) working arrays of one evaluation.
SWEEP_CHUNK = 32

#: Efficiency range that ``threshold_efficiency`` scans for E = 1, and the
#: width to which it narrows the crossing.
THRESHOLD_BRACKET = (0.5, 1.0)
THRESHOLD_WIDTH = 1e-6


def caption_phase(n_quanta: int) -> float:
    """Default sweep phase: 0 for odd orders, pi/2 for even ones (where the
    P-criterion denominator is maximal)."""
    return 0.0 if n_quanta % 2 == 1 else math.pi / 2.0


@dataclass(frozen=True)
class SteeringReport:
    """One steering evaluation: numerator factors, denominator, and verdict."""

    n_quanta: int
    phi: float
    channel: LossChannel
    which: str
    var_number: float
    var_quadrature_n: float
    commutator_modulus: float
    E: float
    violated: bool


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; ``error`` ("Class: message") replaces aborting."""

    n_quanta: int
    phi: float
    eta_a: float
    eta_b: float
    which: str
    var_number: float | None = None
    var_quadrature_n: float | None = None
    commutator_modulus: float | None = None
    E: float | None = None
    violated: bool | None = None
    error: str | None = None


@dataclass(frozen=True)
class CoherenceReport:
    """Two-hill number statistics against the steering product. The n_a > 0
    hill has no spread: any detected quantum on a pins n_b = 0."""

    p_hill_nonzero: float
    p_hill_zero: float
    hill2_mean: float
    hill2_var: float
    lhs: float
    rhs: float
    violated: bool


def check_phase(n_quanta: int, phi: float, which: str):
    """Raise NondiscriminatingPhase when the criterion denominator vanishes,
    and ValueError for N < 1, where it vanishes at every phase, or phi = nan/inf."""
    if n_quanta < 1:
        raise ValueError(f"NOON order must be >= 1, got N={n_quanta}")
    if commutator_phase_factor(n_quanta, phi, which) < PHASE_TOLERANCE:
        form = "cos" if (which.lower() == "p" and n_quanta % 2 == 1) else "sin"
        raise NondiscriminatingPhase(
            f"criterion {which!r} needs {form}(phi) != 0 for N={n_quanta}; "
            f"phi={phi} makes the denominator analytically zero"
        )


def _modulus(n_quanta: int, phi: float, channel: LossChannel, which: str) -> float:
    """The commutator modulus at a discriminating phase; DegenerateChannel if it
    is 0 (eta_a eta_b = 0, or underflow), OutOfSupportedOrder past N = 16."""
    if channel.eta_a * channel.eta_b == 0.0:
        raise DegenerateChannel("eta_a * eta_b = 0 zeroes the denominator")
    modulus = inferred_commutator_modulus(n_quanta, phi, channel, which)
    if modulus == 0.0:
        # eta_a eta_b > 0, but (eta_a eta_b)^(N/2) or a phase factor near its
        # zero can still take the modulus below the smallest float
        raise DegenerateChannel(f"the commutator modulus underflows to 0 at N={n_quanta}, phi={phi}")
    return modulus


def _attempt(evaluate, *args):
    """``evaluate(*args)``, or the NoonSteerError it raises."""
    try:
        return evaluate(*args)
    except NoonSteerError as exc:
        return exc


def _reports(n_quanta: int, phi: float, channels: list[LossChannel], which: str) -> list:
    """The SteeringReport or NoonSteerError of each channel, for eval,
    threshold, sweep and coherence_inequality alike. The phase and then each
    ``_modulus`` are checked before any quadrature; the usable channels share
    one batched variance integral per SWEEP_CHUNK, and a chunk that fails is
    re-run one channel at a time, so a report equals the one-channel report bit
    for bit. ValueErrors propagate."""
    try:
        check_phase(n_quanta, phi, which)
    except NondiscriminatingPhase as exc:
        return [exc] * len(channels)
    which = _norm_which(which)
    outcomes = [_attempt(_modulus, n_quanta, phi, channel, which) for channel in channels]
    usable = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, NoonSteerError)]
    for start in range(0, len(usable), SWEEP_CHUNK):
        chunk = usable[start : start + SWEEP_CHUNK]
        batch = [channels[i] for i in chunk]
        try:
            var_quad = inferred_variance_quadrature(n_quanta, phi, batch, which)
        except NoonSteerError:
            var_quad = [_attempt(inferred_variance_quadrature, n_quanta, phi, c, which) for c in batch]
        for i, var_q in zip(chunk, var_quad):
            if isinstance(var_q, NoonSteerError):
                outcomes[i] = var_q
                continue
            modulus = outcomes[i]
            values = {
                "var_number": inferred_number_variance(n_quanta, channels[i]),
                "var_quadrature_n": float(var_q),
                "commutator_modulus": modulus,
            }
            for name, value in values.items():
                if value < 0.0:
                    raise ValueError(f"{name} must be nonnegative")
            e_value = 2.0 * math.sqrt(values["var_number"] * values["var_quadrature_n"]) / modulus
            outcomes[i] = SteeringReport(
                n_quanta=n_quanta, phi=phi, channel=channels[i], which=which, **values,
                E=e_value, violated=bool(e_value < 1.0),
            )
    return outcomes


def _raise_first(outcomes: list) -> list:
    """``outcomes`` when none is a NoonSteerError; the first one raised otherwise."""
    for outcome in outcomes:
        if isinstance(outcome, NoonSteerError):
            raise outcome
    return outcomes


def steering_functional(
    n_quanta: int, phi: float, channel: LossChannel, which: str = "p"
) -> SteeringReport:
    """Evaluate the steering ratio E for one configuration."""
    (report,) = _raise_first(_reports(n_quanta, phi, [channel], which))
    return report


def e1p_closed_form(channel: LossChannel) -> float:
    """Closed-form E for N = 1, phi = 0, P criterion."""
    eta_a, eta_b = channel.eta_a, channel.eta_b
    if eta_a * eta_b == 0.0:
        raise DegenerateChannel("eta_a * eta_b = 0 zeroes the denominator")
    inner = eta_b * (eta_a + eta_b - 2.0) * (1.0 + eta_b) / (2.0 * (eta_a - 2.0))
    return 2.0 * math.sqrt(inner) / (math.sqrt(2.0 / math.pi) * math.sqrt(eta_a * eta_b))


def threshold_efficiency(
    n_quanta: int,
    phi: float,
    which: str = "p",
    *,
    fix_eta_a: float | None = None,
    fix_eta_b: float | None = None,
) -> float:
    """Solve for the efficiency at which E crosses 1, to within THRESHOLD_WIDTH / 2.

    It solves for eta_a = eta_b, or for the efficiency not fixed (fix one at
    most). Requires E < 1 at the high end of THRESHOLD_BRACKET and E >= 1 at the
    low end, and asserts empirically that E is monotone on 7 bracket points (one
    batched scan). Rounds of one batched call then narrow the scan step
    straddling E = 1 to the width w: they probe g -/+ d, g inverse-interpolating
    E = 1 and d a fifth of g's last change (>= 0.4 w), or the thirds when g is
    outside or the last round did not halve: at most 2 ceil(log3(step / w)) + 1.
    """
    if fix_eta_a is not None and fix_eta_b is not None:
        raise ValueError("fix at most one of eta_a and eta_b")
    width = THRESHOLD_WIDTH
    lo, hi = THRESHOLD_BRACKET

    def e_values(etas) -> list[float]:
        channels = [
            LossChannel(eta if fix_eta_a is None else fix_eta_a, eta if fix_eta_b is None else fix_eta_b)
            for eta in etas
        ]
        return [report.E for report in _raise_first(_reports(n_quanta, phi, channels, which))]

    etas = np.linspace(lo, hi, 7).tolist()
    seq = e_values(etas)
    e_lo, e_hi = seq[0], seq[-1]
    if not (e_hi < 1.0 <= e_lo):
        raise NoThresholdInBracket(
            f"E({lo})={e_lo:.4f}, E({hi})={e_hi:.4f}: no crossing of 1 inside the bracket"
        )
    if any(b > a + 1e-9 for a, b in zip(seq, seq[1:])):
        raise NoThresholdInBracket("E is not monotone on the bracket; refusing to solve")
    known = list(zip(etas, seq))
    i = next(k for k, e in enumerate(seq) if e < 1.0)
    lo, hi = etas[i - 1], etas[i]
    guess, halved = _inverse_estimate(known[i - 1 : i + 1]), True
    while hi - lo > width:
        span, mid = hi - lo, 0.5 * (lo + hi)
        last, guess = guess, _inverse_estimate(sorted(known, key=lambda p: abs(p[0] - mid))[:4])
        d = max(0.2 * abs(guess - last), 0.4 * width)
        if not (halved and lo < guess < hi):
            guess, d = mid, span / 6.0
        probes = sorted({p for p in (guess - d, guess + d) if lo < p < hi} or {mid} - {lo, hi})
        if not probes:
            break
        values = e_values(probes)
        known += zip(probes, values)
        k = next((j for j, e in enumerate(values) if e < 1.0), len(probes))
        lo, hi = ([lo] + probes)[k], (probes + [hi])[k]
        halved = hi - lo <= 0.5 * span
    return 0.5 * (lo + hi)


def _inverse_estimate(points) -> float:
    """Neville's scheme: eta where the polynomial eta(E) through the (eta, E)
    ``points`` reaches E = 1; inf or nan when two E values coincide."""
    x, e = (np.array(points) - [0.0, 1.0]).T
    with np.errstate(all="ignore"):
        for k in range(1, len(x)):
            x = (e[k:] * x[:-1] - e[:-k] * x[1:]) / (e[k:] - e[:-k])
    return float(x[0])


def sweep(
    orders: Iterable[int],
    phi_rule: Callable[[int], float] | float,
    channels: Iterable[LossChannel],
    which: str = "p",
) -> list[SweepRow]:
    """Evaluate E at each order and channel, one row per pair.

    Failing points are flagged in their row instead of aborting the sweep.
    Rows are sorted by (N, eta_a, eta_b) regardless of evaluation order. Each
    N is evaluated in batches (see ``_reports``); a row equals
    ``steering_functional`` at its point bit for bit, and its ``which`` is the
    lower-case criterion.
    """
    channels = list(channels)
    criterion = _norm_which(which)
    rows = []
    for n_quanta in orders:
        phi = phi_rule(n_quanta) if callable(phi_rule) else float(phi_rule)
        # ``which`` as given, so a phase error names it as ``steering_functional`` does
        for channel, outcome in zip(channels, _reports(n_quanta, phi, channels, which)):
            if isinstance(outcome, NoonSteerError):
                values = {"error": f"{type(outcome).__name__}: {outcome}"}
            else:
                names = ("var_number", "var_quadrature_n", "commutator_modulus", "E", "violated")
                values = {name: getattr(outcome, name) for name in names}
            rows.append(SweepRow(n_quanta=n_quanta, phi=phi, eta_a=channel.eta_a, eta_b=channel.eta_b,
                                 which=criterion, **values))
    rows.sort(key=lambda r: (r.n_quanta, r.eta_a, r.eta_b))
    return rows


def protocol_combination(n_quanta: int, which: str, dim: int) -> np.ndarray:
    """The homodyne-measurable operator whose conditional |mean| equals the
    commutator modulus: sum c X_theta^N over ``homodyne_combination``, built
    from X, P, and the pi/4-rotated quadratures."""
    return sum(
        coeff * quadrature_power(dim, OBSERVABLE_THETA[name], n_quanta)
        for name, coeff in homodyne_combination(n_quanta, which).items()
    )


def protocol_rhs(
    n_quanta: int, phi: float, channel: LossChannel, which: str = "p"
) -> float:
    """The measurable right-hand side of the steering inequality: half of
    int P(x) |<M_b>_x| dx for the state-independent ``protocol_combination`` M,
    so a bound for any state. Exact on lossy NOON states: M has a zero diagonal
    on k <= N (the N = 2 coefficients sum to 0; parity zeroes N = 1, 3), which
    leaves 2 P(x) <M_b>_x = 2 damping Re(e^{-i phi} M_N0) psi_0 psi_N, with
    Re(e^{-i phi} M_N0) = R_N(0, N) sum c cos(N theta_c - phi) (``_moment_numerators``)."""
    check_finite_phase(phi)
    cross = moment_integral(n_quanta, 0, n_quanta) * sum(
        coeff * math.cos(n_quanta * OBSERVABLE_THETA[name] - phi)
        for name, coeff in homodyne_combination(n_quanta, which).items()
    )
    return 0.5 * channel.coherence_damping(n_quanta) * abs(cross) * overlap_abs_integral(n_quanta)


def coherence_inequality(
    n_quanta: int, phi: float, channel: LossChannel, which: str = "p"
) -> CoherenceReport:
    """Split mode-b number statistics into the two hills selected by the
    n_a = 0 vs n_a > 0 outcome and test the product inequality against the
    squared half-modulus. The quadrature variance and the modulus are those of
    ``steering_functional``, which raises its errors here too."""
    report = steering_functional(n_quanta, phi, channel, which)
    marginal = number_marginal_a(n_quanta, channel)
    p_zero = float(marginal[0])
    values = np.arange(n_quanta + 1, dtype=float)
    hill2 = conditional_number_b(n_quanta, channel, 0)
    hill2_mean = float(np.dot(hill2, values))
    hill2_var = float(np.dot(hill2, (values - hill2_mean) ** 2))
    lhs = p_zero * hill2_var * report.var_quadrature_n
    rhs = report.commutator_modulus**2 / 4.0
    return CoherenceReport(
        p_hill_nonzero=float(marginal[1:].sum()),
        p_hill_zero=p_zero,
        hill2_mean=hill2_mean,
        hill2_var=hill2_var,
        lhs=lhs,
        rhs=rhs,
        violated=bool(lhs < rhs),
    )
