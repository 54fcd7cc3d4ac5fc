import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonsteer.errors import DimTooSmall, InvalidOutcome, ZeroProbabilityConditioning
from noonsteer.fock import operator_matrix, wavefunction_stack
from noonsteer.inferred import density_number_variance, px_density
from noonsteer.lossy import (
    LOSSLESS,
    LossChannel,
    TwoModeDensity,
    binomial_ladder,
    conditional_density_given_x,
    conditional_number_b,
    conditioned_b_blocks,
    lossy_noon_density,
    number_joint,
    number_marginal_a,
)

etas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestLossChannel:
    @settings(max_examples=30, deadline=None)
    @given(ea=etas, eb=etas)
    def test_valid_range_accepted(self, ea, eb):
        ch = LossChannel(ea, eb)
        assert (ch.eta_a, ch.eta_b) == (ea, eb)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.inf])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            LossChannel(bad, 0.5)


class TestLossyDensity:
    def test_lossless_limit_is_projector(self):
        rho = lossy_noon_density(2, 0.7, LOSSLESS, dim=8)
        # (|2,0> + e^{0.7i}|0,2>)/sqrt(2) at indices 2*8 + 0 and 0*8 + 2
        expected = np.zeros((64, 64), dtype=complex)
        expected[16, 16] = expected[2, 2] = 0.5
        expected[16, 2] = 0.5 * np.exp(-0.7j)
        expected[2, 16] = 0.5 * np.exp(0.7j)
        np.testing.assert_array_equal(rho.matrix, expected)
        for n_quanta in range(1, 6):
            rho = lossy_noon_density(n_quanta, 0.7, LOSSLESS)
            assert np.trace(rho.matrix) == 1.0
            assert density_number_variance(rho) == 0.0

    def test_n1_half_loss_coefficients(self):
        rho = lossy_noon_density(1, 0.0, LossChannel(0.5, 1.0), dim=4)
        t = rho.as_tensor()
        assert t[1, 0, 1, 0].real == pytest.approx(0.25, abs=1e-15)
        assert t[0, 0, 0, 0].real == pytest.approx(0.25, abs=1e-15)
        assert abs(t[1, 0, 0, 1]) == pytest.approx(math.sqrt(0.5) / 2, abs=1e-12)

    def test_trace_one(self):
        rho = lossy_noon_density(3, 0.0, LossChannel(0.7, 0.9))
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-10

    def test_dim_too_small(self):
        with pytest.raises(DimTooSmall):
            lossy_noon_density(2, 0.0, LossChannel(0.5, 0.5), dim=2)

    @pytest.mark.parametrize("entry", [(8, 2), (0, 0)], ids=["coherence", "diagonal"])
    def test_nan_entry_refused(self, entry):
        # NaN compares False with every bound, so the trace and Hermiticity
        # checks alone would let it through
        mat = lossy_noon_density(2, 0.0, LOSSLESS, dim=4).matrix.copy()
        mat[entry] = mat[entry[::-1]] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoModeDensity(dim=4, matrix=mat)

    def test_nan_phase_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            lossy_noon_density(2, math.nan, LOSSLESS)

    @pytest.mark.parametrize("eta_a", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("eta_b", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4])
    def test_positive_semidefinite_grid(self, n_quanta, eta_a, eta_b):
        rho = lossy_noon_density(n_quanta, 0.4, LossChannel(eta_a, eta_b), dim=n_quanta + 2)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_partial_trace_matches_number_marginal(self):
        channel = LossChannel(0.6, 0.85)
        rho = lossy_noon_density(3, 0.3, channel, dim=6)
        marginal = number_marginal_a(3, channel)
        np.testing.assert_allclose(number_joint(rho).sum(axis=1)[:4], marginal, atol=1e-12)


class TestPositionProbability:
    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4, 5])
    def test_normalized(self, n_quanta):
        xs = np.linspace(-12, 12, 100_001)
        dens = px_density(n_quanta, LossChannel(0.8, 0.6), xs)
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-8)

    def test_lossless_closed_form(self):
        xs = np.linspace(-6, 6, 101)
        dens = px_density(2, LOSSLESS, xs)
        psi = wavefunction_stack(2, xs)
        expected = 0.5 * (psi[0] ** 2 + psi[2] ** 2)
        np.testing.assert_allclose(dens, expected, atol=1e-14)


class TestConditionalDensity:
    def test_trace_one_sampled(self):
        for n_quanta in (1, 2, 3):
            for x in (-3.0, 0.0, 2.0):
                for channel in (LOSSLESS, LossChannel(0.8, 0.8)):
                    rho = conditional_density_given_x(n_quanta, 0.5, channel, x)
                    assert abs(np.trace(rho) - 1.0) < 1e-10

    def test_no_coherence_at_origin_n1(self):
        rho = conditional_density_given_x(1, 0.0, LOSSLESS, 0.0)
        assert abs(rho[0, 1]) == 0.0

    def test_conditional_x2_moment(self):
        rho = conditional_density_given_x(2, math.pi / 2, LOSSLESS, 1.0)
        dim = len(rho)
        x_sq = np.linalg.matrix_power(operator_matrix("x", 2 * dim).matrix, 2)[:dim, :dim]
        moment = float(np.trace(rho @ x_sq).real)
        assert moment == pytest.approx(1.0 + 8.0 / (3.0 - 2.0 + 1.0), abs=1e-10)  # = 5

    def test_matches_generic_conditioning(self):
        # closed form against numerically projecting the full two-mode density
        channel = LossChannel(0.75, 0.9)
        phi = 0.8
        full = lossy_noon_density(2, phi, channel, dim=6)
        for x in (-1.3, 0.4, 2.2):
            direct = conditional_density_given_x(2, phi, channel, x)
            blocks, px = conditioned_b_blocks(full, np.array([x]))
            block = blocks[0] / px[0]
            np.testing.assert_allclose(direct, block[:3, :3], atol=1e-12)
            block[:3, :3] = 0.0
            assert np.all(block == 0.0)

    def test_lossless_matches_pure_state_reduction(self):
        phi = 1.1
        for x in (-0.9, 0.7):
            rho = conditional_density_given_x(3, phi, LOSSLESS, x)
            psi = wavefunction_stack(3, np.array([x]))[:, 0]
            vec = np.zeros(4, dtype=complex)
            vec[0] = psi[3]
            vec[3] = np.exp(1j * phi) * psi[0]
            vec /= np.linalg.norm(vec)
            np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_zero_probability_conditioning(self):
        with pytest.raises(ZeroProbabilityConditioning):
            conditional_density_given_x(1, 0.0, LOSSLESS, 60.0)

    def test_one_outcome_only(self):
        # an array of outcomes is refused, not read at its first entry
        with pytest.raises(ValueError):
            conditional_density_given_x(1, 0.0, LOSSLESS, np.array([0.5, 0.7]))
        rho = conditional_density_given_x(1, 0.0, LOSSLESS, np.array([0.5]))
        np.testing.assert_array_equal(rho, conditional_density_given_x(1, 0.0, LOSSLESS, 0.5))

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_refused(self, phi):
        # the coherences would be NaN
        with pytest.raises(ValueError, match="phase must be finite"):
            conditional_density_given_x(2, phi, LOSSLESS, 0.3)


def scalar_ladder(n_quanta, eta):
    """Reference ladder: one Python float ** int per entry."""
    return [math.comb(n_quanta, k) * eta**k * (1.0 - eta) ** (n_quanta - k) for k in range(n_quanta + 1)]


class TestNumberTables:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=16),
        values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-300]), etas), min_size=1, max_size=12),
    )
    def test_ladder_of_an_array_equals_the_scalar_form(self, n, values):
        # numpy's own power can differ from float ** int in the last bit; the
        # x table of the sampler reads these ladders, so they stay bit-identical
        got = binomial_ladder(n, np.reshape(values, (-1, 1)))
        assert got.shape == (len(values), 1, n + 1)
        want = np.array([[scalar_ladder(n, eta)] for eta in values])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert binomial_ladder(n, values[0]).tolist() == scalar_ladder(n, values[0])

    def test_lossless_marginal(self):
        marginal = number_marginal_a(3, LOSSLESS)
        assert marginal[3] == pytest.approx(0.5)
        assert marginal[0] == pytest.approx(0.5)
        assert marginal[1] == marginal[2] == 0.0

    def test_half_loss_marginal(self):
        marginal = number_marginal_a(1, LossChannel(0.5, 1.0))
        assert marginal[1] == pytest.approx(0.25)
        assert marginal[0] == pytest.approx(0.75)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6), ea=etas, eb=etas)
    def test_marginal_sums_to_one(self, n, ea, eb):
        assert number_marginal_a(n, LossChannel(ea, eb)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_conditional_lossless(self):
        zero_given = conditional_number_b(2, LOSSLESS, 0)
        np.testing.assert_allclose(zero_given, [0.0, 0.0, 1.0], atol=1e-15)
        top_given = conditional_number_b(2, LOSSLESS, 2)
        np.testing.assert_allclose(top_given, [1.0, 0.0, 0.0], atol=1e-15)

    def test_conditional_mean_half_loss(self):
        table = conditional_number_b(1, LossChannel(0.5, 0.5), 0)
        mean = float(np.dot(np.arange(2), table))
        assert mean == pytest.approx(0.25 / 0.75, abs=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(InvalidOutcome):
            conditional_number_b(2, LOSSLESS, 3)
