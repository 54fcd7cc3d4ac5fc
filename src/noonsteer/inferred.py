"""Inferred (conditional) statistics of mode b given measurements on mode a.

Two independent routes live here:

* the integral route: conditional moments of the lossy NOON state written
  with oscillator wavefunctions and the exact Fock matrix elements
  R_n(j, k) = <j|X^n|k> = int q^n psi_j psi_k dq. Every average over the
  a-mode outcome is exact except one: the adaptive quadrature of
  S_N^2 / (4 P) in the inferred variance (``inferred_variance_quadrature``);
* the matrix route (``density_*`` functions): the same quantities from an
  explicit two-mode density matrix, conditioned numerically and traced
  against the exact operator powers of ``quadrature_power``, so any cutoff
  that holds the state will do.

The conditioning observables are fixed: number on a infers number on b, and
the X quadrature on a infers every quadrature-power quantity on b.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermroots, hermval

from .errors import ZeroProbabilityConditioning
from .fock import OBSERVABLE_THETA, check_wavefunction_order, quadrature_power
from .lossy import (
    CONDITIONING_FLOOR,
    LossChannel,
    TwoModeDensity,
    _branch_profiles,
    binomial_ladder,
    check_finite_phase,
    conditioned_b_blocks,
    conditioning_outcomes,
    number_joint,
)
from .quadrature import DEFAULT_HALF_WIDTH, integrate, integrate_abs


def _norm_which(which: str) -> str:
    w = which.lower()
    if w not in ("x", "p"):
        raise ValueError(f"criterion must be 'x' or 'p', got {which!r}")
    return w


@lru_cache(maxsize=None)
def moment_integral(order: int, j: int, k: int) -> float:
    """R_n(j, k) = int q^n <q|j><q|k> dq, the (j, k) entry of X^n from
    ``quadrature_power``. X has no negative entries to cancel, and the entry
    is exactly zero when order + j + k is odd."""
    return float(quadrature_power(max(j, k) + 1, 0.0, order)[j, k].real)


@lru_cache(maxsize=None)
def overlap_abs_integral(n_quanta: int) -> float:
    """int |<x|0><x|N>| dx, the kernel of every commutator modulus.

    With y = x / sqrt(2) the integrand is H_N(y) e^{-y^2} / sqrt(pi 2^N N!)
    per unit y, and d/dy [H_{N-1}(y) e^{-y^2}] = -H_N(y) e^{-y^2}. So the
    integral is the sum of |jumps| of that antiderivative between the roots
    of H_N, where it is stationary, and 0 at either infinity.
    """
    if n_quanta < 1:
        raise ValueError("overlap order must be >= 1")
    roots = hermroots([0.0] * n_quanta + [1.0])
    antiderivative = -hermval(roots, [0.0] * (n_quanta - 1) + [1.0]) * np.exp(-roots * roots)
    jumps = np.diff(np.concatenate([[0.0], antiderivative, [0.0]]))
    return float(np.sum(np.abs(jumps))) / math.sqrt(math.pi * 2.0**n_quanta * math.factorial(n_quanta))


def px_density(n_quanta: int, channel: LossChannel, x):
    """Density of the a-mode X outcome; the phase carries no X_a weight.
    ValueError unless every outcome is finite."""
    x_arr = conditioning_outcomes(x)
    _, _, _, px = _branch_profiles(n_quanta, binomial_ladder(n_quanta, [channel.eta_a]), x_arr)
    return px[0] if np.ndim(x) else float(px[0, 0])


def _diagonal_integral(n_quanta: int, order: int, ladder_b: np.ndarray) -> np.ndarray:
    """sum_k ladder_b[k] M_kk for M = (X_theta)^order, one entry per row of
    ``ladder_b``; the diagonal carries no theta phase."""
    return sum(ladder_b[:, k] * moment_integral(order, k, k) for k in range(n_quanta + 1))


def _moment_numerators(n_quanta, phi, channels, which, order):
    """(x -> (S(x), P(x)), ladder_b) for M = (X_theta)^order, with S and P of
    shape (C, len(x)): S(x) = 2 P(x) <M_b>_x = branch_a M_00
    + psi_0^2 sum_k ladder_b[k] M_kk + 2 damping Re(e^{-i phi} M_N0) psi_0 psi_N,
    where M_jk = <j|M|k> = e^{i (j - k) theta} R_order(j, k) from the exact
    moment table. ``ladder_b`` holds the channels' b-mode ladders, shape
    (C, N+1), for callers that need other diagonal sums of the same state."""
    check_finite_phase(phi)
    theta = OBSERVABLE_THETA[_norm_which(which).upper()]
    ladder_a = binomial_ladder(n_quanta, [ch.eta_a for ch in channels])
    ladder_b = binomial_ladder(n_quanta, [ch.eta_b for ch in channels])
    damping = np.array([ch.coherence_damping(n_quanta) for ch in channels])
    m_00 = moment_integral(order, 0, 0)
    diag_b = _diagonal_integral(n_quanta, order, ladder_b)
    cross = (2.0 * damping * moment_integral(order, 0, n_quanta) * math.cos(n_quanta * theta - phi))[:, None]

    def numerators(x):
        branch_a, psi0_sq, psi0_psin, px = _branch_profiles(n_quanta, ladder_a, x)
        return branch_a * m_00 + psi0_sq * diag_b[:, None] + cross * psi0_psin, px

    return numerators, ladder_b


def conditional_quadrature_moment(
    n_quanta: int,
    phi: float,
    channel: LossChannel,
    order: int,
    x,
    which: str = "p",
):
    """<X_b^order>_x or <P_b^order>_x given the a-mode outcome x."""
    if order < 1:
        raise ValueError("moment order must be >= 1")
    x_arr = conditioning_outcomes(x)
    s, px = _moment_numerators(n_quanta, phi, [channel], which, order)[0](x_arr)
    if np.any(px < CONDITIONING_FLOOR):
        raise ZeroProbabilityConditioning("conditioning density vanished")
    out = (s / (2.0 * px))[0]
    return out if np.ndim(x) else float(out[0])


def inferred_variance_quadrature(n_quanta: int, phi: float, channel, which: str = "p"):
    """Average conditional variance of Q_b^N given the a-mode X outcome,
    int (S_2N / 2 - S_N^2 / (4 P)) dx in the terms of ``_moment_numerators``.
    The S_2N term is exact: int S_2N / 2 dx = (M_00 + sum_k ladder_b[k] M_kk) / 2
    (int branch_a = int psi_0^2 = 1, int psi_0 psi_N = 0). Only the ratio term,
    finite where P(x) underflows, is integrated, and convergence is judged on
    it alone. ``channel`` is one LossChannel, giving a float, or a sequence of
    them, giving an array: their integrands share one batched ``integrate``
    call, and each entry equals the one-channel value bit for bit.

    The ratio is even in x, so ``integrate`` takes it over [0, 12] and the
    value is doubled. Each <x|n> has parity (-1)^n, so branch_a, psi_0^2 and P
    are even, and so is psi_0 psi_N for even N. For odd N the table gives exact
    zeros for R_N(0, 0) and R_N(k, k), so S_N reduces to cross psi_0 psi_N,
    which is odd, and S_N^2 is even."""
    channels = [channel] if isinstance(channel, LossChannel) else list(channel)
    numerators, ladder_b = _moment_numerators(n_quanta, phi, channels, which, n_quanta)
    second = moment_integral(2 * n_quanta, 0, 0) + _diagonal_integral(n_quanta, 2 * n_quanta, ladder_b)

    def ratio(x):
        s_n, px = numerators(x)
        return np.divide(s_n**2, 4.0 * px, out=np.zeros_like(px), where=px > CONDITIONING_FLOOR)

    values = 0.5 * second - 2.0 * integrate(ratio, (0.0, DEFAULT_HALF_WIDTH))
    return float(values[0]) if isinstance(channel, LossChannel) else values


def inferred_number_variance(n_quanta: int, channel: LossChannel) -> float:
    """Average conditional variance of n_b given the n_a outcome (closed form).

    Only the n_a = 0 branch contributes: any detected quantum on a pins
    n_b = 0 exactly under the loss model.
    """
    eta_a, eta_b = channel.eta_a, channel.eta_b
    lost_a = (1.0 - eta_a) ** n_quanta
    numer = eta_b * (n_quanta - n_quanta * eta_b) + n_quanta * lost_a * (
        eta_b - eta_b**2 + n_quanta * eta_b**2
    )
    return numer / (2.0 * (lost_a + 1.0))


def commutator_phase_factor(n_quanta: int, phi: float, which: str) -> float:
    """|trig(phi)| selecting the usable phases of each criterion."""
    check_finite_phase(phi)
    which = _norm_which(which)
    if which == "p" and n_quanta % 2 == 1:
        return abs(math.cos(phi))
    return abs(math.sin(phi))


def inferred_commutator_modulus(
    n_quanta: int, phi: float, channel: LossChannel, which: str = "p"
) -> float:
    """|<[n_b, Q_b^N]>|_inf, the steering-criterion denominator (times 2).

    Equals N sqrt(N!) |trig(phi)| (eta_a eta_b)^{N/2} int |<x|0><x|N>| dx
    at every N. Conditioned on x, the lossy b-block has one off-diagonal
    pair, (0, N). [n, X_theta^N] has a zero diagonal and (N, 0) entry
    N e^{i N theta} sqrt(N!), so only that coherence survives the trace, and
    loss enters only through its (eta_a eta_b)^{N/2} damping.
    """
    check_wavefunction_order(n_quanta)
    return (
        n_quanta
        * math.sqrt(math.factorial(n_quanta))
        * commutator_phase_factor(n_quanta, phi, which)
        * channel.coherence_damping(n_quanta)
        * overlap_abs_integral(n_quanta)
    )


# -- matrix route --------------------------------------------------------------


def density_number_variance(rho: TwoModeDensity) -> float:
    """Sum_m P(m) Var(n_b | n_a = m) from the joint number distribution."""
    joint = number_joint(rho)
    n_b = np.arange(rho.dim, dtype=float)
    total = 0.0
    for row in joint:
        pm = row.sum()
        if pm <= 0.0:
            continue
        mean = float(np.dot(row, n_b)) / pm
        total += float(np.dot(row, (n_b - mean) ** 2))
    return total


def density_quadrature_variance(rho: TwoModeDensity, theta: float, order: int) -> float:
    """Inferred variance of (X_b,theta)^order via explicit conditioning."""
    m_n = quadrature_power(rho.dim, theta, order)
    m_2n = quadrature_power(rho.dim, theta, 2 * order)

    def integrand(x):
        blocks, px = conditioned_b_blocks(rho, x)
        first = np.einsum("xks,sk->x", blocks, m_n).real
        second = np.einsum("xks,sk->x", blocks, m_2n).real
        safe = px > CONDITIONING_FLOOR
        ratio = np.zeros_like(px)
        ratio[safe] = first[safe] ** 2 / px[safe]
        return second - ratio

    return integrate(integrand)


def density_conditional_moment(rho: TwoModeDensity, theta: float, order: int, x) -> float:
    """<(X_b,theta)^order>_x from an explicit density, for cross-checks."""
    x_arr = conditioning_outcomes(x)
    blocks, px = conditioned_b_blocks(rho, x_arr)
    if np.any(px < CONDITIONING_FLOOR):
        raise ZeroProbabilityConditioning("conditioning density vanished")
    vals = np.einsum("xks,sk->x", blocks, quadrature_power(rho.dim, theta, order)).real / px
    return vals if np.ndim(x) else float(vals[0])


def density_abs_conditional_mean(rho: TwoModeDensity, operator: np.ndarray) -> float:
    """int P(x) |<M>_x| dx for a Hermitian mode-b operator M."""
    if operator.shape != (rho.dim, rho.dim):
        raise ValueError("operator cutoff must match the density cutoff")

    def signed(x):
        blocks, _ = conditioned_b_blocks(rho, x)
        vals = np.einsum("xks,sk->x", blocks, operator)
        if np.max(np.abs(vals.imag)) > 1e-9:
            raise ValueError("conditional mean of a Hermitian operator came out complex")
        return vals.real

    return integrate_abs(signed)
