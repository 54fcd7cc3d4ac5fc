import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonsteer import inferred
from noonsteer.errors import OutOfSupportedOrder, ZeroProbabilityConditioning
from noonsteer.inferred import (
    _diagonal_integral,
    _moment_numerators,
    conditional_quadrature_moment,
    density_abs_conditional_mean,
    density_conditional_moment,
    density_number_variance,
    density_quadrature_variance,
    inferred_commutator_modulus,
    inferred_number_variance,
    inferred_variance_quadrature,
    moment_integral,
    overlap_abs_integral,
    px_density,
)
from noonsteer.fock import OBSERVABLE_THETA, operator_matrix, quadrature_power, wavefunction_stack
from noonsteer.quadrature import integrate, integrate_abs
from noonsteer.lossy import (
    CONDITIONING_FLOOR,
    LOSSLESS,
    LossChannel,
    _branch_profiles,
    binomial_ladder,
    conditional_density_given_x,
    conditional_number_b,
    lossy_noon_density,
    number_marginal_a,
)

mid_etas = st.floats(min_value=0.05, max_value=1.0)


def bits(values):
    """The IEEE-754 bit patterns of a float array, for bitwise comparison."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def ideal_px_n2(x):
    """Closed-form outcome density for the two-quantum lossless case."""
    return np.exp(-(x**2) / 2) / (2 * np.sqrt(2 * np.pi)) * ((2 * x**2 - 2) ** 2 / 8 + 1)


def padded_real_moment(order, j, k):
    """Reference R_n(j, k): the real power of X on a cutoff two above
    max(j, k) + n, one ``matrix_power`` per entry."""
    x = operator_matrix("x", max(j, k) + order + 2).matrix.real
    return float(np.linalg.matrix_power(x, order)[j, k])


class TestMomentIntegrals:
    def test_odd_parity_zero(self):
        assert moment_integral(3, 0, 2) == 0.0

    def test_bit_identical_to_padded_real_power(self):
        for order in range(17):
            for j in range(9):
                for k in range(9):
                    assert moment_integral(order, j, k) == padded_real_moment(order, j, k), (order, j, k)

    def test_matches_operator_elements(self):
        # reference: int q^n psi_j psi_k dq by a fixed 20-point Gauss-Legendre
        # rule on 80 panels over [-20, 20], wide enough for q^32 e^{-q^2/2}
        base_x, base_w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(-20.0, 20.0, 81)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        q = (mid[:, None] + half[:, None] * base_x).ravel()
        w = (half[:, None] * base_w).ravel()
        psi = wavefunction_stack(8, q)
        for order in range(17):
            weighted = q**order * w
            ref = np.einsum("x,jx,kx->jk", weighted, psi, psi)
            scale = np.einsum("x,jx,kx->jk", np.abs(weighted), np.abs(psi), np.abs(psi))
            got = np.array([[moment_integral(order, j, k) for k in range(9)] for j in range(9)])
            nonzero = got != 0.0
            np.testing.assert_allclose(got[nonzero], ref[nonzero], rtol=1e-12, atol=0)
            # entries with no ladder path between |j> and |k> are exactly zero
            assert np.all(np.abs(ref[~nonzero]) <= 1e-13 * scale[~nonzero])


class TestOverlapAbsIntegral:
    @pytest.mark.parametrize("n_quanta", range(1, 9))
    def test_matches_sign_split_quadrature(self, n_quanta):
        def overlap(x):
            psi = wavefunction_stack(n_quanta, x)
            return psi[0] * psi[n_quanta]

        assert overlap_abs_integral(n_quanta) == pytest.approx(integrate_abs(overlap), rel=1e-12)


class TestPxDensity:
    def test_n2_ideal_at_origin(self):
        assert px_density(2, LOSSLESS, 0.0) == pytest.approx(0.29921, abs=1e-5)

    def test_n2_ideal_closed_form(self):
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(px_density(2, LOSSLESS, xs), ideal_px_n2(xs), atol=1e-12)

    @pytest.mark.parametrize("channel", [LOSSLESS, LossChannel(0.7, 0.4)])
    def test_normalized(self, channel):
        from noonsteer.quadrature import integrate

        value = integrate(lambda x: px_density(3, channel, x))
        assert value == pytest.approx(1.0, abs=1e-8)


class TestConditionalMoments:
    def test_n2_second_moment_formula(self):
        xs = np.linspace(-4, 4, 33)
        got = conditional_quadrature_moment(2, math.pi / 2, LOSSLESS, 2, xs, "x")
        expected = 1 + 8 / (3 - 2 * xs**2 + xs**4)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_n2_fourth_moment_at_origin(self):
        got = conditional_quadrature_moment(2, math.pi / 2, LOSSLESS, 4, 0.0, "x")
        assert got == pytest.approx(27.0, abs=1e-10)

    def test_x_p_agree_at_quarter_phase(self):
        xs = np.linspace(-4, 4, 17)
        for order in (2, 4):
            x_m = conditional_quadrature_moment(2, math.pi / 2, LOSSLESS, order, xs, "x")
            p_m = conditional_quadrature_moment(2, math.pi / 2, LOSSLESS, order, xs, "p")
            np.testing.assert_allclose(x_m, p_m, atol=1e-10)

    def test_matrix_route_agrees_at_generic_phase(self):
        # phi = pi/4 makes the coherence term phase-sensitive in sign
        phi, channel = math.pi / 4, LossChannel(0.85, 0.95)
        rho = lossy_noon_density(1, phi, channel)
        for x in (-1.2, 0.5, 1.7):
            analytic = conditional_quadrature_moment(1, phi, channel, 1, x, "p")
            matrix = density_conditional_moment(rho, math.pi / 2, 1, x)
            assert analytic == pytest.approx(matrix, abs=1e-10)

    def test_first_moment_sign(self):
        # at phi = pi/2 the single-quantum P mean is strictly positive at x > 0
        got = conditional_quadrature_moment(1, math.pi / 2, LOSSLESS, 1, 1.0, "p")
        assert got > 0.1


def full_node_variance(n_quanta, phi, channel, which):
    """Reference ``inferred_variance_quadrature``: the same ratio term,
    integrated over [-12, 12] instead of doubled from [0, 12]."""
    channels = [channel] if isinstance(channel, LossChannel) else list(channel)
    numerators, ladder_b = _moment_numerators(n_quanta, phi, channels, which, n_quanta)
    second = moment_integral(2 * n_quanta, 0, 0) + _diagonal_integral(n_quanta, 2 * n_quanta, ladder_b)

    def ratio(x):
        s_n, px = numerators(x)
        return np.divide(s_n**2, 4.0 * px, out=np.zeros_like(px), where=px > CONDITIONING_FLOOR)

    values = 0.5 * second - integrate(ratio)
    return float(values[0]) if isinstance(channel, LossChannel) else values


edge_etas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def variance_cases(draw):
    """(N, channels): lossy N = 1..5 with efficiencies on [0, 1] and their
    ends, or lossless N up to 16; one to three channels."""
    n_quanta = draw(st.integers(min_value=1, max_value=16))
    if n_quanta > 5:
        return n_quanta, [LOSSLESS] * draw(st.integers(min_value=1, max_value=3))
    channel = st.builds(LossChannel, edge_etas, edge_etas)
    return n_quanta, draw(st.lists(channel, min_size=1, max_size=3))


class TestInferredVariance:
    def test_n1_ideal(self):
        assert inferred_variance_quadrature(1, 0.0, LOSSLESS, "p") == pytest.approx(2.0, abs=1e-6)

    def test_n2_ideal(self):
        value = inferred_variance_quadrature(2, math.pi / 2, LOSSLESS, "p")
        assert value == pytest.approx(10.1351, abs=1e-3)

    @pytest.mark.parametrize("n_quanta", [2, 4])
    def test_x_p_symmetry_even_orders(self, n_quanta):
        channel = LossChannel(0.9, 0.8)
        x_var = inferred_variance_quadrature(n_quanta, math.pi / 2, channel, "x")
        p_var = inferred_variance_quadrature(n_quanta, math.pi / 2, channel, "p")
        assert abs(x_var - p_var) < 1e-8

    @pytest.mark.parametrize(
        "n_quanta,uniform_nodes",
        [(6, 7440), (8, 15120), (10, 30480), (12, 122640), (14, 61200), (16, 122640)],
    )
    def test_few_nodes_at_unit_efficiency(self, n_quanta, uniform_nodes, monkeypatch):
        # at eta = (1, 1), P nearly vanishes at the outer zeros of psi_N and
        # S_N^2 / 4P has poles just off the real axis there; only the panels
        # near them bisect. ``uniform_nodes`` is what doubling every panel of
        # [0, 12] at once, from 24 10-point panels until two levels agree, evaluates.
        real, nodes = inferred.integrate, []
        monkeypatch.setattr(
            inferred, "integrate", lambda f, domain: real(lambda x: nodes.append(x.size) or f(x), domain)
        )
        inferred_variance_quadrature(n_quanta, math.pi / 2, LOSSLESS, "p")
        assert sum(nodes) <= uniform_nodes / 10

    @settings(max_examples=12, deadline=None)
    @given(eta_b=st.floats(min_value=0.0, max_value=1.0), eta_a=mid_etas)
    def test_n1_lossy_variance_closed_form(self, eta_a, eta_b):
        value = inferred_variance_quadrature(1, 0.0, LossChannel(eta_a, eta_b), "p")
        assert value == pytest.approx(1.0 + eta_b, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        n_quanta=st.integers(min_value=1, max_value=8),
        which=st.sampled_from(["p", "x"]),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        eta_a=st.floats(min_value=0.5, max_value=1.0),
        eta_b=st.floats(min_value=0.5, max_value=1.0),
    )
    # a variance 10^7 times its ratio term: a tolerance relative to the
    # variance left this 1.1e-12 relative off
    @example(n_quanta=7, which="x", phi=2.0, eta_a=1.0, eta_b=1.0)
    def test_matches_whole_integrand_quadrature(self, n_quanta, which, phi, eta_a, eta_b):
        # the S_2N term integrated with the ratio term instead of in closed form
        channel = LossChannel(eta_a, eta_b) if n_quanta <= 5 else LOSSLESS
        theta = OBSERVABLE_THETA[which.upper()]
        ladder_a = binomial_ladder(n_quanta, channel.eta_a)[None, :]
        ladder_b = binomial_ladder(n_quanta, channel.eta_b)
        damping = math.sqrt(channel.eta_a * channel.eta_b) ** n_quanta

        def numerator(order, branch_a, psi0_sq, psi0_psin):
            """2 P(x) <X_theta^order>_x."""
            diag_b = sum(ladder_b[k] * moment_integral(order, k, k) for k in range(n_quanta + 1))
            m_n0 = cmath.rect(moment_integral(order, 0, n_quanta), n_quanta * theta)
            cross = 2.0 * damping * (cmath.exp(-1j * phi) * m_n0).real
            return branch_a * moment_integral(order, 0, 0) + psi0_sq * diag_b + cross * psi0_psin

        def integrand(x):
            branch_a, psi0_sq, psi0_psin, px = _branch_profiles(n_quanta, ladder_a, x)
            s_n = numerator(n_quanta, branch_a[0], psi0_sq, psi0_psin)
            s_2n = numerator(2 * n_quanta, branch_a[0], psi0_sq, psi0_psin)
            ratio = np.divide(s_n**2, 4.0 * px[0], out=np.zeros_like(px[0]), where=px[0] > CONDITIONING_FLOOR)
            return 0.5 * s_2n - ratio

        value = inferred_variance_quadrature(n_quanta, phi, channel, which)
        assert value == pytest.approx(integrate(integrand), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        case=variance_cases(),
        which=st.sampled_from(["p", "x"]),
        phi=st.one_of(
            st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]), st.floats(-math.pi, math.pi)
        ),
        batched=st.booleans(),
    )
    def test_positive_half_equals_full_nodes_bit_for_bit(self, case, which, phi, batched):
        # the integrand is even bit for bit on every node it is evaluated on, so
        # doubling its integral over [0, 12] is the full-domain integral
        n_quanta, channels = case
        channel = channels if batched else channels[0]
        real, seen = inferred.integrate, []

        def recording(f, domain):
            seen.append((f, domain))
            return real(lambda x: seen.append(x) or f(x), domain)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inferred, "integrate", recording)
            got = np.atleast_1d(inferred_variance_quadrature(n_quanta, phi, channel, which))
        (integrand, domain), *nodes = seen
        assert domain == (0.0, 12.0)
        x = np.concatenate(nodes)
        assert np.array_equal(bits(integrand(x)), bits(integrand(-x)))
        want = np.atleast_1d(full_node_variance(n_quanta, phi, channel, which))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=2e-9)
        singles = [inferred_variance_quadrature(n_quanta, phi, c, which) for c in channels[: got.size]]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in singles]


class TestInferredNumberVariance:
    def test_lossless_is_exactly_zero(self):
        assert inferred_number_variance(4, LOSSLESS) == 0.0

    def test_half_loss_value(self):
        assert inferred_number_variance(1, LossChannel(0.5, 0.5)) == pytest.approx(1 / 6, abs=1e-12)

    @pytest.mark.parametrize("eta_a", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("eta_b", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4, 5])
    def test_table_oracle_agreement(self, n_quanta, eta_a, eta_b):
        # independent route: compose the marginal with the conditional tables
        channel = LossChannel(eta_a, eta_b)
        marginal = number_marginal_a(n_quanta, channel)
        values = np.arange(n_quanta + 1, dtype=float)
        total = 0.0
        for m in range(n_quanta + 1):
            table = conditional_number_b(n_quanta, channel, m)
            mean = float(np.dot(table, values))
            total += marginal[m] * float(np.dot(table, (values - mean) ** 2))
        assert inferred_number_variance(n_quanta, channel) == pytest.approx(total, abs=1e-12)

    def test_matrix_route(self):
        channel = LossChannel(0.65, 0.8)
        rho = lossy_noon_density(3, 0.0, channel, dim=6)
        assert density_number_variance(rho) == pytest.approx(
            inferred_number_variance(3, channel), abs=1e-12
        )


class TestCommutatorModulus:
    def test_n1_ideal(self):
        value = inferred_commutator_modulus(1, 0.0, LOSSLESS, "p")
        assert value == pytest.approx(math.sqrt(2 / math.pi), abs=1e-9)

    def test_n2_ideal(self):
        value = inferred_commutator_modulus(2, math.pi / 2, LOSSLESS, "p")
        assert value == pytest.approx(1.93577, abs=1e-3)

    def test_n5_ideal(self):
        value = inferred_commutator_modulus(5, 0.0, LOSSLESS, "p")
        assert value == pytest.approx(29.5504, abs=1e-2)

    @settings(max_examples=12, deadline=None)
    @given(ea=mid_etas, eb=mid_etas, n=st.integers(min_value=1, max_value=16))
    def test_loss_scaling(self, ea, eb, n):
        phi = 0.0 if n % 2 == 1 else math.pi / 2
        ideal = inferred_commutator_modulus(n, phi, LOSSLESS, "p")
        lossy = inferred_commutator_modulus(n, phi, LossChannel(ea, eb), "p")
        # the relative term takes over only where the modulus passes 1e6 (N >= 14)
        assert lossy == pytest.approx(ideal * (ea * eb) ** (n / 2), rel=1e-14, abs=1e-8)

    def test_lossy_refused_beyond_supported_order(self):
        # one order range with or without loss: the wavefunction range N <= 16
        for channel in (LossChannel(0.9, 0.9), LOSSLESS):
            with pytest.raises(OutOfSupportedOrder):
                inferred_commutator_modulus(17, 0.0, channel, "p")


class TestMatrixRoute:
    def test_quadrature_variance_matches_integral_route(self):
        channel = LossChannel(0.8, 0.9)
        phi = math.pi / 2
        rho = lossy_noon_density(2, phi, channel)
        matrix = density_quadrature_variance(rho, math.pi / 2, 2)
        analytic = inferred_variance_quadrature(2, phi, channel, "p")
        assert matrix == pytest.approx(analytic, abs=1e-8)

    @pytest.mark.parametrize("which", ["p", "x"])
    @pytest.mark.parametrize("n_quanta", range(6, 11))
    def test_lossy_modulus_matches_matrix_commutator(self, n_quanta, which):
        channel, phi = LossChannel(0.9, 0.8), 0.3
        rho = lossy_noon_density(n_quanta, phi, channel)
        power = quadrature_power(rho.dim, OBSERVABLE_THETA[which.upper()], n_quanta)
        number = np.diag(np.arange(rho.dim))
        matrix = density_abs_conditional_mean(rho, 1j * (number @ power - power @ number))
        analytic = inferred_commutator_modulus(n_quanta, phi, channel, which)
        assert matrix == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize("which", ["p", "x"])
    @pytest.mark.parametrize("n_quanta", range(1, 17))
    def test_lossy_variance_matches_matrix_route_past_five(self, n_quanta, which):
        channel, phi = LossChannel(0.9, 0.8), 0.3
        rho = lossy_noon_density(n_quanta, phi, channel)
        assert rho.dim == n_quanta + 1
        matrix = density_quadrature_variance(rho, OBSERVABLE_THETA[which.upper()], n_quanta)
        analytic = inferred_variance_quadrature(n_quanta, phi, channel, which)
        assert matrix == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize("which", ["p", "x"])
    @pytest.mark.parametrize("n_quanta", [8, 16])
    def test_lossless_variance_matches_matrix_route(self, n_quanta, which):
        # at eta = (1, 1) the ratio term has its poles closest to the real axis
        rho = lossy_noon_density(n_quanta, math.pi / 2, LOSSLESS)
        matrix = density_quadrature_variance(rho, OBSERVABLE_THETA[which.upper()], n_quanta)
        analytic = inferred_variance_quadrature(n_quanta, math.pi / 2, LOSSLESS, which)
        assert matrix == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize(
        "theta", [*OBSERVABLE_THETA.values(), 0.37, 1.1], ids=[*OBSERVABLE_THETA.keys(), "0.37", "1.1"]
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_phased_power_is_rotated_quadrature_power(self, theta, order):
        # the reference is cropped from a cutoff twice as large, where no
        # ladder path of length <= 3 from a level below 9 meets the edge
        dim = 9
        x, p = operator_matrix("x", 2 * dim).matrix, operator_matrix("p", 2 * dim).matrix
        direct = np.linalg.matrix_power(math.cos(theta) * x + math.sin(theta) * p, order)[:dim, :dim]
        np.testing.assert_allclose(quadrature_power(dim, theta, order), direct, rtol=0, atol=1e-13)

    def test_zero_probability_guard(self):
        with pytest.raises(ZeroProbabilityConditioning):
            conditional_quadrature_moment(1, 0.0, LOSSLESS, 1, 60.0, "p")


#: var_quadN for criterion p at phi = 0.3, keyed by (N, eta_a, eta_b). Each is
#: a 40-digit mpmath.quad of (1/2) second - int G(x) s(x)^2 / (4 q(x)) dx, with
#: G = e^{-x^2/2} / sqrt(2 pi), b(x) = sum_m ladder_a[m] He_m(x)^2 / m!,
#: q = (b + 1) / 2, s = R_N(0, 0) b + sum_k ladder_b[k] R_N(k, k)
#: + 2 damping R_N(0, N) cos(N pi/2 - phi) He_N / sqrt(N!), and
#: second = R_2N(0, 0) + sum_k ladder_b[k] R_2N(k, k). The R_n(j, k) = <j|X^n|k>
#: come from applying X = a + a^dag n times in mpmath, and the integral is split
#: at the real roots of He_N, near which s^2 / q has its poles at eta = (1, 1).
RECORDED_VARIANCES = {
    (6, 1.0, 1.0): "0x1.02d1ef56bb2a4p+25",
    (6, 0.95, 0.93): "0x1.9fa42b8b793a2p+24",
    (6, 1.0, 0.2): "0x1.91c41dee41d06p+18",
    (8, 1.0, 1.0): "0x1.85f1fab84ecb6p+37",
    (8, 0.95, 0.93): "0x1.1efdf1d9f4fc9p+37",
    (8, 1.0, 0.2): "0x1.e36e77831bfc6p+28",
    (12, 1.0, 1.0): "0x1.d22b6051946bep+64",
    (12, 0.95, 0.93): "0x1.2081795c447a5p+64",
    (12, 1.0, 0.2): "0x1.7b56e84bbdd16p+51",
    (16, 1.0, 1.0): "0x1.1529012734005p+94",
    (16, 0.95, 0.93): "0x1.20a649815cfddp+93",
    (16, 1.0, 0.2): "0x1.2ddca83d29a08p+76",
}


@pytest.mark.parametrize("n_quanta,eta_a,eta_b", sorted(RECORDED_VARIANCES))
def test_variance_matches_recorded_reference(n_quanta, eta_a, eta_b):
    # both routes share integrate and wavefunction_stack; this pins them to
    # values computed without either
    want = float.fromhex(RECORDED_VARIANCES[n_quanta, eta_a, eta_b])
    channel = LossChannel(eta_a, eta_b)
    analytic = inferred_variance_quadrature(n_quanta, 0.3, channel, "p")
    matrix = density_quadrature_variance(lossy_noon_density(n_quanta, 0.3, channel), math.pi / 2, n_quanta)
    assert analytic == pytest.approx(want, rel=1e-11)
    assert matrix == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize(
    "oracle",
    [
        lambda x: conditional_quadrature_moment(2, math.pi / 2, LossChannel(0.9, 0.8), 1, x, "p"),
        lambda x: density_conditional_moment(lossy_noon_density(1, 0.0, LOSSLESS), math.pi / 2, 1, x),
        lambda x: conditional_density_given_x(1, 0.0, LOSSLESS, x),
        lambda x: px_density(1, LOSSLESS, x),
    ],
    ids=[
        "conditional_quadrature_moment",
        "density_conditional_moment",
        "conditional_density_given_x",
        "px_density",
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_non_finite_outcome_refused(oracle, bad, as_array):
    x = np.array([0.5, bad]) if as_array else bad
    with pytest.raises(ValueError, match="conditioning outcome must be finite"):
        oracle(x)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: quadrature_power(4, 0.0, -1),
        lambda: quadrature_power(3, 0.0, -1),
        lambda: moment_integral(-1, 0, 1),
        lambda: density_quadrature_variance(lossy_noon_density(1, 0.0, LOSSLESS), 0.0, -1),
        lambda: density_conditional_moment(lossy_noon_density(1, 0.0, LOSSLESS), 0.0, -1, 0.5),
    ],
    ids=[
        "quadrature_power",
        "quadrature_power_odd_cutoff",
        "moment_integral",
        "density_quadrature_variance",
        "density_conditional_moment",
    ],
)
def test_negative_order_refused(evaluate):
    # a negative matrix power would invert the truncated X
    with pytest.raises(ValueError, match="order must be nonnegative"):
        evaluate()
