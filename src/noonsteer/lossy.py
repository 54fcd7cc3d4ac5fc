"""Lossy NOON density operators and their conditional/marginal reductions.

Loss is the beam-splitter vacuum-coupling model: each mode is transmitted
with efficiency eta and the reflected share is traced out. For a NOON input
the surviving state is two binomial diagonal ladders plus a pair of
N-quantum coherence terms damped by (eta_a eta_b)^{N/2}.

Everything here is dense: per-mode cutoffs stay <= 17, so the product space
is at most 289 x 289 and sparsity buys nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimTooSmall, InvalidOutcome, ZeroProbabilityConditioning
from .fock import wavefunction_stack

#: Conditioning probabilities below this declare a failure instead of NaNs.
CONDITIONING_FLOOR = 1e-300


@dataclass(frozen=True)
class LossChannel:
    """Transmission efficiencies of the two beam-splitter loss couplings."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for name in ("eta_a", "eta_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    def coherence_damping(self, n_quanta: int) -> float:
        """(eta_a eta_b)^(N/2): the factor loss puts on the |N,0><0,N| coherence."""
        return math.sqrt(self.eta_a * self.eta_b) ** n_quanta


LOSSLESS = LossChannel(1.0, 1.0)


@dataclass(frozen=True)
class TwoModeDensity:
    """Density matrix on the product basis |n_a>|n_b>, index n_a*dim + n_b."""

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        size = self.dim**2
        if mat.shape != (size, size):
            raise ValueError(f"two-mode density must be {size} x {size}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("two-mode density has a non-finite entry")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"two-mode density trace {trace} deviates from 1 beyond 1e-10")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("two-mode density is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", mat)

    def as_tensor(self) -> np.ndarray:
        """Shape (dim, dim, dim, dim): [j_a, k_b, j_a', k_b']."""
        d = self.dim
        return self.matrix.reshape(d, d, d, d)


def binomial_ladder(n_quanta: int, eta) -> np.ndarray:
    """P(k survivors of n_quanta) for k = 0..n_quanta, for one efficiency or an
    array of them: shape eta.shape + (n_quanta + 1,). The powers are Python's
    float ** int, as numpy's own power can differ from it in the last bit."""
    eta = np.asarray(eta, dtype=float)[..., None].astype(object)
    k = np.arange(n_quanta + 1, dtype=object)
    comb = np.array([math.comb(n_quanta, j) for j in range(n_quanta + 1)], dtype=float)
    return comb * (eta**k).astype(float) * ((1.0 - eta) ** (n_quanta - k)).astype(float)


def lossy_noon_density(
    n_quanta: int, phi: float, channel: LossChannel, dim: int | None = None
) -> TwoModeDensity:
    """Two-mode density after independent beam-splitter loss on a NOON state,
    on ``dim`` levels per mode (by default the state's own N + 1); at
    ``LOSSLESS`` (one-hot ladders, damping 1) the NOON projector itself."""
    if n_quanta < 1:
        raise ValueError("NOON order must be >= 1")
    if dim is None:
        dim = n_quanta + 1
    if dim <= n_quanta:
        raise DimTooSmall(f"dim={dim} cannot hold |{n_quanta}>")

    def idx(na, nb):
        return na * dim + nb

    mat = np.zeros((dim**2, dim**2), dtype=complex)
    ladder_a, ladder_b = binomial_ladder(n_quanta, [channel.eta_a, channel.eta_b])
    for k in range(n_quanta + 1):
        mat[idx(k, 0), idx(k, 0)] += 0.5 * ladder_a[k]
        mat[idx(0, k), idx(0, k)] += 0.5 * ladder_b[k]
    damping = channel.coherence_damping(n_quanta)
    mat[idx(n_quanta, 0), idx(0, n_quanta)] += 0.5 * damping * np.exp(-1j * phi)
    mat[idx(0, n_quanta), idx(n_quanta, 0)] += 0.5 * damping * np.exp(1j * phi)
    return TwoModeDensity(dim=dim, matrix=mat)


def _branch_profiles(n_quanta: int, ladder_a: np.ndarray, x: np.ndarray):
    """The x-profiles of the mode-b block 2 <x|rho|x> of a lossy NOON state,
    branch_a |0><0| + psi0_sq sum_k ladder_b[k] |k><k| + damping psi0_psiN
    (e^{-i phi} |0><N| + h.c.), with psi_n = <x|n>.

    ``ladder_a`` has one a-mode ladder per channel, shape (C, N+1). Returns
    (branch_a, psi0_sq, psi0_psiN, px); branch_a and the outcome density px
    have shape (C, len(x)), summed term by term so that a row's arithmetic is
    that of a one-channel call.
    """
    psi = wavefunction_stack(n_quanta, x)
    psi0_psin = psi[0] * psi[n_quanta]
    psi_sq = np.square(psi, out=psi)
    branch_a = ladder_a[:, :1] * psi_sq[0]
    for m in range(1, n_quanta + 1):
        branch_a += ladder_a[:, m : m + 1] * psi_sq[m]
    px = 0.5 * (branch_a + psi_sq[0])
    return branch_a, psi_sq[0], psi0_psin, px


def check_finite_phase(phi: float):
    """Raise ValueError for phi = nan or +-inf, which no criterion accepts."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got phi={phi}")


def conditioning_outcomes(x) -> np.ndarray:
    """The a-mode outcomes ``x`` as a 1-d float array; ValueError unless all are finite."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("conditioning outcome must be finite")
    return x_arr


def conditional_density_given_x(n_quanta: int, phi: float, channel: LossChannel, x: float) -> np.ndarray:
    """Mode-b density matrix conditioned on measuring X = x on mode a
    (normalized), on the state's levels 0..N: shape (N + 1, N + 1)."""
    check_finite_phase(phi)
    profiles = _branch_profiles(n_quanta, binomial_ladder(n_quanta, [channel.eta_a]), conditioning_outcomes(x))
    branch_a, psi0_sq, psi0_psin, px = (v.item() for v in profiles)  # one outcome, or ValueError
    if px < CONDITIONING_FLOOR:
        raise ZeroProbabilityConditioning(f"P(x={x}) = {px} below {CONDITIONING_FLOOR}")
    mat = np.diag(binomial_ladder(n_quanta, channel.eta_b) * psi0_sq).astype(complex)
    mat[0, 0] += branch_a
    coherence = channel.coherence_damping(n_quanta) * psi0_psin
    mat[0, n_quanta] += coherence * np.exp(-1j * phi)
    mat[n_quanta, 0] += coherence * np.exp(1j * phi)
    return mat / (2.0 * px)


def number_marginal_a(n_quanta: int, channel: LossChannel) -> np.ndarray:
    """P(n_a = m) for m = 0..N: half a binomial ladder plus half at m = 0."""
    probs = 0.5 * binomial_ladder(n_quanta, channel.eta_a)
    probs[0] += 0.5
    return probs


def conditional_number_b(n_quanta: int, channel: LossChannel, m: int) -> np.ndarray:
    """P(n_b | n_a = m) for n_b = 0..N.

    Any m > 0 pins n_b = 0 (loss never adds quanta); m = 0 mixes the fully
    lost a-branch with the b-mode binomial ladder.
    """
    if not 0 <= m <= n_quanta:
        raise InvalidOutcome(f"outcome m={m} outside [0, {n_quanta}]")
    table = np.zeros(n_quanta + 1)
    if m > 0:
        table[0] = 1.0
        return table
    table[0] += 0.5 * (1.0 - channel.eta_a) ** n_quanta
    table += 0.5 * binomial_ladder(n_quanta, channel.eta_b)
    prob_zero = 0.5 * (1.0 - channel.eta_a) ** n_quanta + 0.5
    return table / prob_zero


# -- generic machinery over arbitrary two-mode densities ----------------------
#
# These take any TwoModeDensity, not just the NOON loss family; they back the
# matrix-oracle cross-checks and the separable-state property tests.


def number_joint(rho: TwoModeDensity) -> np.ndarray:
    """Joint P(n_a, n_b) from the density diagonal, shape (dim, dim)."""
    joint = np.diag(rho.matrix).real.reshape(rho.dim, rho.dim).copy()
    joint[np.abs(joint) < 1e-15] = 0.0
    return joint


def conditioned_b_blocks(rho: TwoModeDensity, x: np.ndarray):
    """Unnormalized mode-b blocks <x|rho|x> for an array of a-mode outcomes.

    Returns (blocks, px): blocks has shape (len(x), dim, dim) and satisfies
    trace(blocks[i]) = px[i], so conditional moments can be formed in the
    product form px * moment without dividing by small probabilities.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = wavefunction_stack(rho.dim - 1, x)  # (dim, nx)
    tensor = rho.as_tensor()
    blocks = np.einsum("jx,lx,jkls->xks", psi, psi, tensor, optimize=True)
    px = np.einsum("xkk->x", blocks).real
    return blocks, px
