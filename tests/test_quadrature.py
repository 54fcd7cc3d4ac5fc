import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from noonsteer import quadrature
from noonsteer.errors import ConvergenceFailure
from noonsteer.fock import wavefunction_stack
from noonsteer.quadrature import KRONROD_NODES, MAX_PANELS, integrate, integrate_abs

PANEL_NODES = KRONROD_NODES.size


def gaussian_wave(width, freq):
    return lambda x: np.exp(-x * x / (2.0 * width * width)) * np.cos(freq * x)


def gaussian_wave_integral(width, freq):
    """int e^{-x^2 / 2 w^2} cos(f x) dx over the real line."""
    return width * math.sqrt(2.0 * math.pi) * np.exp(-((width * freq) ** 2) / 2.0)


def bits(values):
    """The IEEE-754 bit patterns of a float array, for bitwise comparison."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def recorded(f):
    """``f`` and the node arrays it is called with, one per ``integrate`` round."""
    calls = []

    def g(x):
        calls.append(x.copy())
        return f(x)

    return g, calls


def levels_used(f):
    """Integrand calls a one-row ``integrate`` call makes."""
    g, calls = recorded(f)
    integrate(g)
    return len(calls)


def panel_nodes(lo, hi):
    """The Kronrod nodes of one panel [lo, hi]."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * KRONROD_NODES


def panels_of(x):
    """(centre, half width) of each panel of a round's nodes."""
    panels = x.reshape(-1, PANEL_NODES)
    return panels[:, PANEL_NODES // 2], (panels[:, -1] - panels[:, 0]) / (2.0 * KRONROD_NODES[-1])


def stalling(x):
    return np.sin(1e5 * x * x)


class TestGrid:
    def test_gaussian_on_raw_grid(self):
        # the first pass alone must already nail the Gaussian
        g, calls = recorded(lambda x: np.exp(-x * x / 2))
        assert integrate(g) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)
        assert len(calls) == 1

    def test_domain_covers_twelve(self):
        # two panels per unit length, at least 8: 48 on [-12, 12], 24 on [0, 12]
        for domain, panels in (((-12.0, 12.0), 48), ((0.0, 12.0), 24), ((0.25, 1.5), 8)):
            g, calls = recorded(lambda x: np.exp(-x * x))
            integrate(g, domain)
            edges = np.linspace(*domain, panels + 1)
            want = np.concatenate([panel_nodes(a, b) for a, b in zip(edges[:-1], edges[1:])])
            np.testing.assert_allclose(calls[0], want, rtol=0, atol=1e-14)

    def test_refinement_doubles_panels(self):
        # a round evaluates both halves of each panel it bisects, side by side,
        # and each bisected panel is one evaluated before
        g, calls = recorded(gaussian_wave(0.5, 80.0))
        integrate(g)
        assert len(calls) >= 3
        seen = set()
        for x in calls:
            centre, half = panels_of(x)
            if seen:
                assert centre.size % 2 == 0
                left, right = slice(0, None, 2), slice(1, None, 2)
                np.testing.assert_array_equal(half[left], half[right])
                np.testing.assert_allclose(centre[left] + half[left], centre[right] - half[right], atol=1e-14)
                parents = zip((centre[left] + half[left]).round(12), (2 * half[left]).round(12))
                assert set(parents) <= seen
            seen |= set(zip(centre.round(12), half.round(12)))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.exp, (1.0, 1.0))

    def test_base_rule_is_cached_read_only_and_exact(self):
        # QUADPACK qk21: G10 is numpy's 10-point Gauss-Legendre rule, exact to
        # degree 19, and K21 extends it to degree 31
        gauss_x, gauss_w = leggauss(10)
        gauss = quadrature.GAUSS_WEIGHTS != 0.0
        np.testing.assert_allclose(KRONROD_NODES[gauss], gauss_x, rtol=0, atol=2e-16)
        np.testing.assert_allclose(quadrature.GAUSS_WEIGHTS[gauss], gauss_w, rtol=0, atol=3e-16)
        for degree in range(34):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            kronrod = np.sum(quadrature.KRONROD_WEIGHTS * KRONROD_NODES**degree)
            g10 = np.sum(quadrature.GAUSS_WEIGHTS * KRONROD_NODES**degree)
            assert (abs(kronrod - exact) < 1e-15) == (degree <= 31 or degree % 2 == 1), degree
            assert (abs(g10 - exact) < 1e-15) == (degree <= 19 or degree % 2 == 1), degree
        for table in (KRONROD_NODES, quadrature.KRONROD_WEIGHTS, quadrature.GAUSS_WEIGHTS):
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestIntegrate:
    def test_gaussian(self):
        value = integrate(lambda x: np.exp(-x * x / 2))
        assert value == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)

    def test_odd_integrand_vanishes(self):
        assert integrate(lambda x: x**3 * np.exp(-x * x / 2)) == pytest.approx(0.0, abs=1e-12)

    def test_high_degree_polynomial_weight(self):
        # int x^24 e^{-x^2/2} dx = 23!! sqrt(2 pi)
        double_fact = math.prod(range(23, 0, -2))
        value = integrate(lambda x: x**24 * np.exp(-x * x / 2))
        assert value == pytest.approx(double_fact * math.sqrt(2 * math.pi), rel=1e-9)

    def test_oscillating_gaussians(self):
        # |K21 - G10| alone can sit 400 times below K21's own error on a panel
        # that does not resolve the wave; the scaled estimate keeps every value
        # well inside the absolute tolerance
        freqs = np.linspace(0.0, 200.0, 81)
        for width in np.linspace(0.3, 1.5, 13):
            values = integrate(lambda x: np.exp(-x * x / (2 * width * width)) * np.cos(np.multiply.outer(freqs, x)))
            error = np.abs(values - gaussian_wave_integral(width, freqs))
            assert np.max(error) <= 1e-9, (width, freqs[np.argmax(error)], np.max(error))

    def test_convergence_failure(self):
        g, calls = recorded(stalling)
        with pytest.raises(ConvergenceFailure) as failure:
            integrate(g)
        # every panel bisects in every round: 48, 96, ..., 1536 panels, and
        # 3072 would pass the cap
        assert [x.size for x in calls] == [48 * 2**k * PANEL_NODES for k in range(6)]
        message = str(failure.value)
        assert message.startswith(f"refinement stalled at 1536 panels (cap {MAX_PANELS}) with error estimate ")
        assert float(message.split()[-1]) > 1e-9

    def test_stalled_row_stays_under_the_panel_cap(self):
        # however it stalls, a row evaluates fewer than 2 MAX_PANELS panels;
        # a non-integrable pole bisects ever closer to 0 and stops at the depth limit
        for f in (stalling, lambda x: 1.0 / np.abs(x), lambda x: np.cos(1e3 * x) / np.abs(x)):
            g, calls = recorded(f)
            with pytest.raises(ConvergenceFailure, match="refinement stalled"):
                integrate(g)
            assert sum(x.size for x in calls) < 2 * MAX_PANELS * PANEL_NODES

    def test_batch_failure_reports_largest_unconverged_delta(self):
        rows = [stalling, gaussian_wave(1.0, 0.0), lambda x: 0.5 * stalling(x)]
        with pytest.raises(ConvergenceFailure) as failure:
            integrate(lambda x: np.stack([f(x) for f in rows]))
        estimates = []
        for f in rows[::2]:
            with pytest.raises(ConvergenceFailure) as single:
                integrate(f)
            estimates.append(str(single.value))
        # each stalled row refines as it does alone; the message is the larger one's
        assert str(failure.value) == f"{estimates[0]} (largest of 2 stalled rows)"
        assert float(estimates[0].split()[-1]) > float(estimates[1].split()[-1])

    def test_non_finite_integrand_fails_at_once(self):
        calls = []

        def nan_from_second_round(x):
            calls.append(None)
            wave = gaussian_wave(0.5, 40.0)(x)
            return wave if len(calls) < 2 else np.full_like(x, np.nan)

        with pytest.raises(ConvergenceFailure, match="^integral is not finite on 48 panels$"):
            integrate(lambda x: calls.append(None) or np.full_like(x, np.nan))
        assert len(calls) == 1
        # a row that turns non-finite in a later round fails there, in a batch too
        calls.clear()
        with pytest.raises(ConvergenceFailure, match=r"^integral is not finite on \d+ panels$"):
            integrate(lambda x: np.stack([np.exp(-x * x), nan_from_second_round(x)]))
        assert len(calls) == 2

    def test_large_batch_is_never_cut_short(self):
        # a batch fails only for a row that fails alone, whatever its size
        freqs = np.linspace(0.0, 60.0, 400)
        values = integrate(lambda x: np.exp(-x * x / 2) * np.cos(np.multiply.outer(freqs, x)))
        np.testing.assert_allclose(values, gaussian_wave_integral(1.0, freqs), rtol=0, atol=1e-10)
        assert [v.hex() for v in values[::57].tolist()] == [
            integrate(gaussian_wave(1.0, f)).hex() for f in freqs[::57]
        ]


class TestMirror:
    def test_wavefunction_rows_have_exact_parity_on_the_levels(self):
        # the nodes of every panel of [0, 12] at levels 0..5 (a stalled row
        # bisects them all) and their mirror images: <x|n> has parity (-1)^n bit
        # for bit, so a product of two of them is even or odd bit for bit, and an
        # even integrand can be integrated over [0, 12] and doubled
        g, calls = recorded(stalling)
        with pytest.raises(ConvergenceFailure):
            integrate(g, (0.0, 12.0))
        assert len(calls) == 7
        order = 16
        sign = (-1.0) ** np.arange(order + 1)[:, None]
        for x in calls:
            assert np.array_equal(bits(wavefunction_stack(order, x)), bits(sign * wavefunction_stack(order, -x)))


class TestVectorIntegrate:
    def test_rows_converge_at_their_own_levels(self):
        rows = [gaussian_wave(0.5, freq) for freq in (0.0, 40.0, 80.0, 200.0)]
        assert [levels_used(f) for f in rows] == [1, 2, 3, 4]
        batch = integrate(lambda x: np.stack([f(x) for f in rows]))
        assert batch.shape == (4,)
        assert [v.hex() for v in batch.tolist()] == [integrate(f).hex() for f in rows]

    def test_scalar_call_returns_float(self):
        assert type(integrate(gaussian_wave(1.0, 0.0))) is float

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.floats(0.3, 3.0), st.floats(0.0, 200.0)), min_size=1, max_size=6
        )
    )
    def test_matches_scalar_integrate_row_for_row(self, shapes):
        rows = [gaussian_wave(width, freq) for width, freq in shapes]
        batch = integrate(lambda x: np.stack([f(x) for f in rows]))
        assert [v.hex() for v in batch.tolist()] == [integrate(f).hex() for f in rows]


def sign_change_points_reference(f, domain, scan_points):
    """The fixed 80-step bisection, with no early stop."""
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


class TestSignChangePoints:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(st.floats(-6.0, 6.0), min_size=0, max_size=5),
        scan_roots=st.lists(st.integers(-512, 512), max_size=2),
        scale=st.floats(1e-6, 1e6),
        width=st.floats(0.5, 3.0),
    )
    def test_early_stop_keeps_the_cuts(self, roots, scan_roots, scale, width):
        # scan_roots put zeros exactly on the 2049-point scan grid (step 3/256)
        roots = roots + [k * 3.0 / 256.0 for k in scan_roots]
        calls = {"stop": 0, "full": 0}

        def counted(key):
            def f(x):
                calls[key] += 1
                poly = np.ones_like(x)
                for r in roots:
                    poly = poly * (x - r)
                return scale * poly * np.exp(-x * x / (2.0 * width * width))

            return f

        got = quadrature._sign_change_points(counted("stop"), (-12.0, 12.0), 2049)
        want = sign_change_points_reference(counted("full"), (-12.0, 12.0), 2049)
        assert got == want
        assert calls["stop"] <= calls["full"]


class TestIntegrateAbs:
    def test_abs_linear_gaussian(self):
        # int |x| e^{-x^2/2} dx = 2
        value = integrate_abs(lambda x: x * np.exp(-x * x / 2))
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_overlap_zero_two(self):
        def f(x):
            psi = wavefunction_stack(2, x)
            return psi[0] * psi[2]

        value = math.sqrt(2.0) * integrate_abs(f)
        assert value == pytest.approx(0.968, abs=5e-4)

    def test_sign_definite_matches_plain(self):
        f = lambda x: np.exp(-x * x / 2) * (1 + 0.2 * np.cos(x))
        assert integrate_abs(f) == pytest.approx(integrate(f), abs=1e-10)
