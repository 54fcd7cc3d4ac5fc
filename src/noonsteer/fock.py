"""Truncated Fock-basis primitives for two bosonic modes.

Conventions used throughout the package:

* quadratures X = a + a† and P = (a - a†)/i, so [X, P] = 2i;
* position eigenfunctions are the oscillator wavefunctions with the scale
  constant c fixed to 2, which makes x the eigenvalue of X;
* a rotated quadrature X_theta = cos(theta) X + sin(theta) P has the same
  eigenfunctions with <theta; q|n> = e^{-i n theta} <q|n>, so every
  quadrature is read in the X frame (P is theta = pi/2);
* ``quadrature_power`` is the one builder of (X_theta)^N, exact on every
  entry, and ``wavefunction_stack`` the one evaluation of <x|n>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfSupportedOrder, UnsupportedOrder

#: Highest wavefunction order with a verified overflow-free evaluation.
SUPPORTED_WAVEFUNCTION_ORDER = 16

_OPERATOR_KINDS = ("number", "x", "p")

#: Angle theta of each homodyne observable X_theta = cos(theta) X + sin(theta) P;
#: the steering criterion "x" or "p" measures the quadrature named in capitals.
OBSERVABLE_THETA = {
    "X": 0.0,
    "P": math.pi / 2.0,
    "X_pi4": math.pi / 4.0,
    "P_pi4": 3.0 * math.pi / 4.0,
}

#: (N, criterion) -> {observable: c}: the combination sum_theta c X_theta^N on
#: mode b whose conditional |mean|, averaged over the a-mode X outcome, is the
#: criterion's commutator modulus. Dict order fixes the sampler's settings after
#: the criterion quadrature, and so which RNG substream each one draws from.
HOMODYNE_COMBINATIONS = {
    (1, "p"): {"X": 1.0},
    (1, "x"): {"P": 1.0},
    (2, "p"): {"X_pi4": 2.0, "X": -1.0, "P": -1.0},
    (2, "x"): {"X_pi4": 2.0, "X": -1.0, "P": -1.0},
    (3, "p"): {"X_pi4": math.sqrt(2.0), "P_pi4": -math.sqrt(2.0), "X": -1.0},
    (3, "x"): {"X_pi4": math.sqrt(2.0), "P_pi4": math.sqrt(2.0), "P": -1.0},
}


def homodyne_combination(n_quanta: int, which: str) -> dict:
    """The ``HOMODYNE_COMBINATIONS`` entry, or UnsupportedOrder outside it."""
    try:
        return HOMODYNE_COMBINATIONS[n_quanta, which.lower()]
    except KeyError:
        raise UnsupportedOrder(
            f"the homodyne combination is defined only for N = 1..3 and criteria "
            f"'x', 'p' (got N={n_quanta}, criterion {which!r})"
        ) from None


#: sqrt(2^n n!) for every supported order, the per-row divisor of the stack.
_STACK_NORMS = np.array(
    [math.sqrt(2.0**n * math.factorial(n)) for n in range(SUPPORTED_WAVEFUNCTION_ORDER + 1)]
)


def check_wavefunction_order(order: int):
    """Raise ValueError for a negative order and OutOfSupportedOrder for an
    order above SUPPORTED_WAVEFUNCTION_ORDER."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > SUPPORTED_WAVEFUNCTION_ORDER:
        raise OutOfSupportedOrder(
            f"wavefunction order {order} exceeds supported maximum "
            f"{SUPPORTED_WAVEFUNCTION_ORDER}"
        )


def wavefunction_stack(max_order: int, x: np.ndarray) -> np.ndarray:
    """All <x|n> for n = 0..max_order, shape (max_order+1, len(x)).

    One upward pass of the physicists' Hermite recurrence
    H_{n+1}(y) = 2y H_n(y) - 2n H_{n-1}(y) at y = x / sqrt(2), scaled in place.
    """
    check_wavefunction_order(max_order)
    x = np.asarray(x, dtype=float)
    two_y = 2.0 * (x / math.sqrt(2.0))
    gauss = (2.0 * math.pi) ** (-0.25) * np.exp(-0.25 * x * x)
    out = np.empty((max_order + 1, x.size), dtype=float)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = two_y
    for n in range(1, max_order):
        np.multiply(two_y, out[n], out=out[n + 1])
        out[n + 1] -= (2.0 * n) * out[n - 1]
    out *= gauss
    out /= _STACK_NORMS[: max_order + 1, None]
    return out


@dataclass(frozen=True)
class ModeOperator:
    """Truncated single-mode operator matrix."""

    kind: str
    dim: int
    matrix: np.ndarray = field(repr=False)


def operator_matrix(kind: str, dim: int) -> ModeOperator:
    """Truncated matrix for one of number/x/p.

    Truncation leaves every stored entry exact; only products of these
    matrices acquire artifacts near the cutoff. Take powers of a quadrature
    from ``quadrature_power``, which is exact on every entry.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if kind not in _OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; one of {_OPERATOR_KINDS}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    if kind == "number":
        mat = (a.conj().T @ a).round(12)
    elif kind == "x":
        mat = a + a.conj().T
    else:
        mat = (a - a.conj().T) / 1j
    return ModeOperator(kind=kind, dim=dim, matrix=mat)


def quadrature_power(dim: int, theta: float, order: int) -> np.ndarray:
    """(X_theta)^order on levels 0..dim-1, exact in every entry: X^order with
    entry (j, k) phased by e^{i (j - k) theta}, as X_theta = e^{i theta a^dag a}
    X e^{-i theta a^dag a}. X is built at a cutoff of dim + order and cropped:
    a path of ``order`` ladder steps between levels below dim never leaves it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    ladder = np.sqrt(np.arange(1, dim + order, dtype=float))
    x = np.diag(ladder, k=1) + np.diag(ladder, k=-1)
    levels = np.arange(dim)
    phase = np.exp(1j * theta * np.subtract.outer(levels, levels))
    return np.linalg.matrix_power(x, order)[:dim, :dim] * phase
