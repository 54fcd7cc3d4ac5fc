import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonsteer.errors import OutOfSupportedOrder
from noonsteer.fock import (
    OBSERVABLE_THETA,
    SUPPORTED_WAVEFUNCTION_ORDER,
    operator_matrix,
    quadrature_power,
    wavefunction_stack,
)


def hermite_exact(n, y, sign=1):
    """Independent oracle: the recurrence in exact rational arithmetic. With
    sign=-1 and y >= 0 it sums the terms' magnitudes, which bound |H_n(y)|."""
    h_prev, h = Fraction(0), Fraction(1)
    for k in range(n):
        h_prev, h = h, 2 * y * h - sign * 2 * k * h_prev
    return h


def assert_rows_match_exact(psi, xs):
    """Row n of ``psi`` is <x|n> at ``xs`` to within the rounding of an
    (n+1)-step recurrence: the exact Hermite value at the float y = x / sqrt(2),
    scaled, within 4 (n + 1) eps times the scaled magnitude bound."""
    eps = np.finfo(float).eps
    for n, row in enumerate(psi):
        for got, x in zip(row, xs):
            y = Fraction(float(x) / math.sqrt(2.0))
            scale = (2 * math.pi) ** -0.25 * math.exp(-x * x / 4) / math.sqrt(2.0**n * math.factorial(n))
            bound = float(hermite_exact(n, abs(y), sign=-1)) * scale
            assert abs(got - float(hermite_exact(n, y)) * scale) <= 4 * (n + 1) * eps * bound


class TestHermite:
    """The Hermite recurrence inside ``wavefunction_stack``."""

    def test_h0_is_one(self):
        xs = np.array([-3.7, 0.0, 1.5])
        np.testing.assert_allclose(
            wavefunction_stack(0, xs)[0], (2 * math.pi) ** -0.25 * np.exp(-xs * xs / 4), rtol=1e-15, atol=0
        )

    def test_h1(self):
        # H_1(y) = 2y makes <x|1> = x <x|0>
        psi = wavefunction_stack(1, np.array([-2.0, 1.5, 3.0]))
        np.testing.assert_allclose(psi[1], np.array([-2.0, 1.5, 3.0]) * psi[0], rtol=1e-15, atol=0)

    def test_h4_against_recurrence_oracle(self):
        xs = np.array([math.sqrt(2.0)])
        assert_rows_match_exact(wavefunction_stack(4, xs), xs)

    def test_vectorized(self):
        # H_2(y) = 4 y^2 - 2 makes <x|2> = (x^2 - 1) <x|0> / sqrt(2)
        xs = np.array([-1.0, 0.0, 2.0])
        psi = wavefunction_stack(2, xs)
        np.testing.assert_allclose(psi[2], (xs**2 - 1) * psi[0] / math.sqrt(2), rtol=1e-14, atol=1e-16)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=SUPPORTED_WAVEFUNCTION_ORDER),
        x=st.floats(min_value=-14.0, max_value=14.0),
    )
    def test_rows_match_exact_recurrence(self, n, x):
        xs = np.array([x])
        assert_rows_match_exact(wavefunction_stack(n, xs), xs)


class TestWavefunctions:
    def test_ground_state_at_origin(self):
        psi0 = wavefunction_stack(0, np.array([0.0]))[0, 0]
        assert psi0 == pytest.approx((2 * math.pi) ** -0.25, abs=1e-12)
        assert psi0 == pytest.approx(0.631619, abs=1e-6)

    def test_odd_parity_vanishes_at_origin(self):
        assert wavefunction_stack(1, np.array([0.0]))[1, 0] == 0.0

    def test_normalization(self):
        xs = np.linspace(-12, 12, 200_001)
        norm = np.trapezoid(wavefunction_stack(3, xs)[3] ** 2, xs)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality_up_to_ten(self):
        xs = np.linspace(-12, 12, 120_001)
        psi = wavefunction_stack(10, xs)
        gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], xs, axis=-1)
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-8)

    @pytest.mark.parametrize("max_order", [0, 1, 4, SUPPORTED_WAVEFUNCTION_ORDER])
    @pytest.mark.parametrize(
        "xs",
        [np.linspace(-6.0, 6.0, 25), np.array([0.75]), np.array([])],
        ids=["grid", "single", "empty"],
    )
    def test_stack_matches_single_orders(self, max_order, xs):
        # single points come from bisection, empty arrays from settings with no shots
        psi = wavefunction_stack(max_order, xs)
        assert psi.shape == (max_order + 1, xs.size)
        assert_rows_match_exact(psi, xs)

    def test_out_of_supported_order(self):
        with pytest.raises(OutOfSupportedOrder):
            wavefunction_stack(SUPPORTED_WAVEFUNCTION_ORDER + 1, np.array([0.0]))

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            wavefunction_stack(-1, np.array([0.0]))


class TestOperators:
    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(min_value=3, max_value=20))
    def test_annihilation_elements(self, dim):
        # <m|X|n> above the diagonal is <m|a|n> = sqrt(n) delta_{m,n-1}
        a = np.triu(operator_matrix("x", dim).matrix)
        for n in range(1, dim):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n), abs=1e-14)
        assert np.count_nonzero(a) == dim - 1

    def test_x_entry(self):
        assert operator_matrix("x", 6).matrix[0, 1] == pytest.approx(1.0)

    def test_number_diagonal(self):
        num = operator_matrix("number", 7).matrix
        np.testing.assert_allclose(num, np.diag(np.arange(7, dtype=float)), atol=1e-12)

    def test_hermiticity(self):
        for kind in ("number", "x", "p"):
            mat = operator_matrix(kind, 12).matrix
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        mat = quadrature_power(12, 0.37, 1)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_x_theta_combination(self):
        dim = 10
        x = operator_matrix("x", dim).matrix
        p = operator_matrix("p", dim).matrix
        for theta in (0.0, math.pi / 4, 1.1, math.pi / 2):
            combo = math.cos(theta) * x + math.sin(theta) * p
            built = quadrature_power(dim, theta, 1)
            assert np.max(np.abs(built - combo)) < 1e-12

    def test_x_pi4_matches_sum_form(self):
        dim = 9
        x = operator_matrix("x", dim).matrix
        p = operator_matrix("p", dim).matrix
        built = quadrature_power(dim, math.pi / 4, 1)
        assert np.max(np.abs(built - (x + p) / math.sqrt(2))) < 1e-12

    def test_canonical_commutator_on_block(self):
        dim = 25
        x = operator_matrix("x", dim).matrix
        p = operator_matrix("p", dim).matrix
        comm = x @ p - p @ x
        block = comm[: dim - 1, : dim - 1]
        assert np.max(np.abs(block - 2j * np.eye(dim - 1))) < 1e-10

    def test_unknown_kind(self):
        # rotated quadratures and their powers come from quadrature_power
        for kind in ("squeeze", "annihilate", "create"):
            with pytest.raises(ValueError):
                operator_matrix(kind, 5)

    def test_x_theta_requires_angle(self):
        # operator_matrix takes no angle; X_theta is built by quadrature_power
        with pytest.raises(ValueError):
            operator_matrix("x_theta", 5)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=17),
        order=st.integers(min_value=0, max_value=32),
        extra=st.integers(min_value=1, max_value=8),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_power_is_the_crop_of_a_larger_cutoff(self, dim, order, extra, theta):
        # every entry is exact, so more levels change no bit of the first dim
        small = quadrature_power(dim, theta, order)
        large = quadrature_power(dim + extra, theta, order)[:dim, :dim]
        assert np.array_equal(small.view(np.uint64), large.view(np.uint64))

    @pytest.mark.parametrize("theta", [1e308, -1e308, 1e17])
    def test_huge_angle_is_reduced_before_phasing(self, theta):
        # theta (j - k) would overflow to inf, and e^{i inf} is NaN
        got = quadrature_power(3, theta, 2)
        assert np.all(np.isfinite(got))
        want = quadrature_power(3, math.remainder(theta, 2.0 * math.pi), 2)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_production_angles_pass_unreduced(self):
        for theta in OBSERVABLE_THETA.values():
            assert math.remainder(theta, 2.0 * math.pi) == theta

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            quadrature_power(3, theta, 2)


def commutator_reduction_deviation(n_power, dim):
    """Max deviation of [n, P^N] from i N (P^{N-1} X + (N-1) i P^{N-2}) on the
    upper-left (dim-N) x (dim-N) block, clear of truncation artifacts."""
    num = operator_matrix("number", dim).matrix
    p = operator_matrix("p", dim).matrix
    x = operator_matrix("x", dim).matrix
    p_pow = np.linalg.matrix_power(p, n_power)
    lhs = num @ p_pow - p_pow @ num
    rhs = 1j * n_power * (np.linalg.matrix_power(p, n_power - 1) @ x)
    if n_power >= 2:
        rhs += 1j * n_power * (n_power - 1) * 1j * np.linalg.matrix_power(p, n_power - 2)
    keep = dim - n_power
    return float(np.max(np.abs(lhs[:keep, :keep] - rhs[:keep, :keep])))


class TestCommutatorCheck:
    @pytest.mark.parametrize("n_power", [1, 2, 3])
    def test_reduction_holds(self, n_power):
        assert commutator_reduction_deviation(n_power, 40) < 1e-10

    def test_n2_against_ladder_form(self):
        # [n, P^2] should equal -2(a_dag^2 - a^2) on the safe block
        dim = 30
        num = operator_matrix("number", dim).matrix
        p = operator_matrix("p", dim).matrix
        a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
        adag = a.T
        lhs = num @ p @ p - p @ p @ num
        rhs = -2.0 * (adag @ adag - a @ a)
        keep = dim - 2
        assert np.max(np.abs(lhs[:keep, :keep] - rhs[:keep, :keep])) < 1e-10
