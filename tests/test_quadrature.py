import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from noonsteer import quadrature
from noonsteer.errors import ConvergenceFailure
from noonsteer.fock import wavefunction_stack
from noonsteer.quadrature import build_grid, default_grid, even, integrate, integrate_abs


def gaussian_wave(width, freq):
    return lambda x: np.exp(-x * x / (2.0 * width * width)) * np.cos(freq * x)


def bits(values):
    """The IEEE-754 bit patterns of a float array, for bitwise comparison."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def default_levels():
    """Default-domain levels with 48 * 2^k panels, k = 0..10."""
    return [build_grid(default_grid().domain, panels=48 * 2**k) for k in range(11)]


def levels_used(f):
    """Integrand evaluations a one-row ``integrate`` call makes."""
    calls = []
    integrate(lambda x: calls.append(None) or f(x))
    return len(calls)


class TestGrid:
    def test_gaussian_on_raw_grid(self):
        # the default grid itself must already nail the Gaussian
        grid = default_grid()
        value = float(np.dot(grid.weights, np.exp(-grid.nodes**2 / 2)))
        assert value == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)

    def test_domain_covers_twelve(self):
        grid = default_grid()
        assert grid.domain[0] <= -12.0 and grid.domain[1] >= 12.0

    def test_refinement_doubles_panels(self):
        grid = default_grid()
        assert grid.refined().panels == 2 * grid.panels

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            build_grid((1.0, 1.0))

    def test_base_rule_is_cached_read_only_and_exact(self):
        nodes, weights = quadrature._base_rule(10)
        fresh_nodes, fresh_weights = leggauss(10)
        assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        assert quadrature._base_rule(10)[0] is nodes

    def test_default_levels_are_cached_read_only(self):
        levels = [default_grid()]
        while levels[-1].panels < quadrature.CACHED_PANELS:
            levels.append(levels[-1].refined())
        for level in levels:
            fresh = quadrature._panel_rule(*level.domain, level.panels)
            assert np.array_equal(level.nodes, fresh.nodes) and np.array_equal(level.weights, fresh.weights)
            for values in (level.nodes, level.weights):
                with pytest.raises(ValueError):
                    values[0] = 0.0
            assert build_grid(level.domain, panels=level.panels) is level

    def test_level_cache_stays_bounded(self):
        default_grid()
        size = quadrature._default_level.cache_info().currsize
        for lo in np.linspace(-11.5, 11.0, 20):  # integrate_abs-style segments
            segment = build_grid((lo, 12.0), panels=8)
            assert segment.nodes.flags.writeable and build_grid((lo, 12.0), panels=8) is not segment
        fine = build_grid((-12.0, 12.0), panels=2 * quadrature.CACHED_PANELS)
        assert fine.nodes.flags.writeable
        assert quadrature._default_level.cache_info().currsize == size


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

    def test_convergence_failure(self, monkeypatch):
        def f(x):
            return np.sin(1e5 * x * x)

        monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
        with pytest.raises(ConvergenceFailure) as failure:
            integrate(f)
        grids = [default_grid()]
        for _ in range(3):
            grids.append(grids[-1].refined())
        last, before = (np.sum(f(g.nodes) * g.weights) for g in grids[:-3:-1])
        delta = abs(last - before)
        assert delta > 0.0
        assert str(failure.value) == f"refinement stalled at panels=384 with last delta {delta:.3e}"

    def test_batch_failure_reports_largest_unconverged_delta(self, monkeypatch):
        rows = [lambda x: np.sin(1e5 * x * x), gaussian_wave(1.0, 0.0), lambda x: 0.5 * np.sin(1e5 * x * x)]
        monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 3)
        with pytest.raises(ConvergenceFailure) as failure:
            integrate(lambda x: np.stack([f(x) for f in rows]))
        deltas = []
        for f in rows[::2]:
            with pytest.raises(ConvergenceFailure) as single:
                integrate(f)
            deltas.append(float(str(single.value).split()[-1]))
        assert f"last delta {max(deltas):.3e} (largest of 2 unconverged rows)" in str(failure.value)

    def test_non_finite_integrand_fails_at_once(self):
        calls = []

        def nan_from_third_level(x):
            # levels 1 and 2 disagree, so the row is still pending at level 3
            calls.append(None)
            return np.exp(-x * x) * (len(calls) if len(calls) < 3 else np.nan)

        with pytest.raises(ConvergenceFailure, match="not finite at panels=96"):
            integrate(lambda x: calls.append(None) or np.full_like(x, np.nan))
        assert len(calls) <= 2
        # a row that turns non-finite at a later level fails there, in a batch too
        calls.clear()
        with pytest.raises(ConvergenceFailure, match="not finite at panels=192"):
            integrate(lambda x: np.stack([np.exp(-x * x), nan_from_third_level(x)]))
        assert len(calls) == 3

    def test_batch_outgrowing_its_budget_fails(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BATCH_VALUE_BUDGET", 4000)
        stack = lambda x: np.stack([np.sin(1e5 * x * x), np.exp(-x * x)])
        with pytest.raises(ConvergenceFailure, match="batch of 2 rows would pass 4000 values at panels=384"):
            integrate(stack)
        # a one-row call is never cut short by the budget
        assert integrate(lambda x: np.exp(-x * x)) == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def one_node_moved_by_one_ulp(nodes):
    moved = nodes.copy()
    moved[3] = np.nextafter(moved[3], 0.0)
    return moved


class TestMirror:
    def test_default_levels_are_mirror_symmetric(self):
        for level in default_levels():
            assert level.nodes.size % 2 == 0 and level.nodes[level.nodes.size // 2] > 0.0
            assert np.array_equal(bits(level.nodes), bits(-level.nodes[::-1]))
            assert np.array_equal(bits(level.weights), bits(level.weights[::-1]))

    def test_wavefunction_rows_have_exact_parity_on_the_levels(self):
        # matching windows from either end, so the stack never holds a whole deep level
        order = 16
        sign = (-1.0) ** np.arange(order + 1)[:, None]
        for level in default_levels():
            x, size = level.nodes, level.nodes.size
            for start in range(0, size // 2, 1 << 15):
                stop = min(start + (1 << 15), size // 2)
                left = wavefunction_stack(order, x[start:stop])
                right = wavefunction_stack(order, x[size - stop : size - start])
                assert np.array_equal(bits(left), bits(sign * right[:, ::-1]))

    def test_even_evaluates_the_positive_half_and_mirrors_it(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.stack([x * x, np.cos(x)])

        nodes = default_grid().nodes
        values = even(f)(nodes)
        assert len(seen) == 1 and np.array_equal(seen[0], nodes[nodes.size // 2 :])
        assert np.array_equal(bits(values), bits(f(nodes)))

    @pytest.mark.parametrize(
        "nodes",
        [
            np.array([-1.0, 0.5]),
            np.array([-1.0, 0.0, 1.0]),
            one_node_moved_by_one_ulp(default_grid().nodes),
            build_grid((-12.0, 11.0)).nodes,
        ],
        ids=["asymmetric", "odd-size", "one-ulp", "shifted-domain"],
    )
    def test_even_refuses_nodes_that_are_not_mirror_pairs(self, nodes):
        calls = []
        with pytest.raises(ValueError, match="not mirror-symmetric"):
            even(lambda x: calls.append(None) or x * x)(nodes)
        assert calls == []


class TestVectorIntegrate:
    def test_rows_converge_at_their_own_levels(self):
        rows = [gaussian_wave(0.5, freq) for freq in (0.0, 40.0, 80.0, 200.0)]
        assert [levels_used(f) for f in rows] == [2, 3, 4, 6]
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
