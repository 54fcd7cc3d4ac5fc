import hashlib
import io
import math
import sys
import threading
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonsteer import sampling
from noonsteer.errors import InsufficientBinOccupancy
from noonsteer.fock import OBSERVABLE_THETA, wavefunction_stack
from noonsteer.inferred import px_density
from noonsteer.lossy import LOSSLESS, LossChannel, binomial_ladder, conditional_density_given_x
from noonsteer.sampling import (
    MAX_BINS,
    MIN_BIN_OCCUPANCY,
    SETTING_NUMBER,
    X_GUIDE_CELLS,
    X_RANGE,
    _binned_moments,
    _conditional_profile,
    _draw_x,
    _envelope_peaks,
    _fine_bins,
    _group_moments,
    _homodyne_settings,
    _inverse_cdf,
    _merged_partition,
    _number_variance,
    _write_shot_log,
    _x_cdf_table,
    estimate_steering,
    sample_number_pair,
    sample_quadrature_pair,
)
from noonsteer.steering import e1p_closed_form


def rng(seed):
    return np.random.default_rng(seed)


class NoProposals(np.random.Generator):
    """A generator whose normal draws, the rejection loop's proposals, fail the test."""

    def normal(self, *args, **kwargs):
        pytest.fail("drew a proposal")


class TestNumberSampling:
    def test_lossless_outcomes(self):
        n_a, n_b = sample_number_pair(2, LOSSLESS, rng(1), 100_000)
        assert set(zip(n_a.tolist(), n_b.tolist())) <= {(2, 0), (0, 2)}
        freq = float((n_a == 2).mean())
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(freq - 0.5) < 3 * sigma

    def test_half_loss_marginal(self):
        n_a, _ = sample_number_pair(1, LossChannel(0.5, 1.0), rng(2), 100_000)
        freq = float((n_a == 1).mean())
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(freq - 0.25) < 3 * sigma

    def test_loss_never_adds_quanta(self):
        n_a, n_b = sample_number_pair(3, LossChannel(0.6, 0.7), rng(3), 50_000)
        assert np.all(n_b[n_a > 0] == 0)


class TestQuadratureSampling:
    def test_x_marginal_ks(self):
        shots = 100_000
        x, _ = sample_quadrature_pair(2, math.pi / 2, LOSSLESS, "P", rng(4), shots)
        grid = np.linspace(-8, 8, 32_769)
        dens = px_density(2, LOSSLESS, grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        model = np.interp(np.sort(x), grid, cdf)
        empirical = np.arange(1, shots + 1) / shots
        ks = float(np.max(np.abs(model - empirical)))
        assert ks < 1.63 / math.sqrt(shots)

    def test_conditional_variance_near_origin(self):
        x, q = sample_quadrature_pair(2, math.pi / 2, LOSSLESS, "P", rng(5), 400_000)
        window = np.abs(x) < 0.2
        sample_var = float(np.var(q[window] ** 2, ddof=1))
        expected = 27.0 - (11.0 / 3.0) ** 2
        assert abs(sample_var - expected) < 0.05 * expected

    def test_rotated_observable_moments(self):
        # mean of X_pi4^2 relates the three second moments measurably
        _, q_x = sample_quadrature_pair(2, math.pi / 2, LOSSLESS, "X", rng(8), 200_000)
        _, q_p = sample_quadrature_pair(2, math.pi / 2, LOSSLESS, "P", rng(9), 200_000)
        _, q_r = sample_quadrature_pair(2, math.pi / 2, LOSSLESS, "X_pi4", rng(10), 200_000)
        lhs = np.mean(q_r**2)
        rhs = 0.5 * (np.mean(q_x**2) + np.mean(q_p**2))  # <XP+PX> = 0 unconditionally
        assert abs(lhs - rhs) < 0.05

    def test_x_table_cache_is_bounded(self):
        # a process that samples many efficiencies keeps only a few tables
        for eta_a in np.linspace(0.5, 1.0, 20):
            _draw_x(1, LossChannel(float(eta_a), 1.0), rng(12), 1)
        assert sampling._x_cdf_table.cache_info().currsize <= 8

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected_before_drawing(self, phi):
        # a NaN bound accepts no proposal, so the loop would never end; a
        # proposal draw fails the test instead of hanging it
        generator = NoProposals(np.random.PCG64(11))
        state = generator.bit_generator.state
        with pytest.raises(ValueError, match="phase must be finite"):
            sample_quadrature_pair(1, phi, LOSSLESS, "X", generator, 10)
        assert generator.bit_generator.state == state


def gaussian(q, sigma):
    return np.exp(-0.5 * (q / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def raw_density(n_quanta, channel, profile, q):
    """branch_a psi_0(q)^2 + psi0_sq sum_k ladder_b[k] psi_k(q)^2 + c_x psi_0(q) psi_N(q)
    from the sampler's profile terms, one entry of each per q."""
    branch_a, psi0_sq, c_x, _ = profile
    psi = wavefunction_stack(n_quanta, q)
    ladder_b = binomial_ladder(n_quanta, channel.eta_b)
    return branch_a * psi[0] ** 2 + psi0_sq * (ladder_b @ psi**2) + c_x * psi[0] * psi[n_quanta]


def oracle_raw_density(n_quanta, phi, channel, theta, x, q):
    """2 P(x) <theta; q|rho_x|theta; q> = 2 P(x) sum_jk rho_jk e^{-i (j - k) theta}
    psi_j(q) psi_k(q), with rho_x the per-x oracle ``conditional_density_given_x``
    and <theta; q|n> = e^{-i n theta} psi_n(q)."""
    levels = np.arange(n_quanta + 1)
    phase = np.exp(-1j * theta * np.subtract.outer(levels, levels))
    psi = wavefunction_stack(n_quanta, q)
    raw = np.empty(q.size)
    for x_value in np.unique(x):
        at = x == x_value
        rho = conditional_density_given_x(n_quanta, phi, channel, x_value)
        two_px = 2.0 * px_density(n_quanta, channel, x_value)
        raw[at] = two_px * np.einsum("jq,jk,kq->q", psi[:, at], rho * phase, psi[:, at]).real
    return raw


channels = st.one_of(
    st.just(LOSSLESS), st.builds(LossChannel, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
)


class TestEnvelopeBound:
    @pytest.mark.parametrize("n_quanta", range(1, 17))
    def test_peaks_match_dense_scan(self, n_quanta):
        peaks, sigma = _envelope_peaks(n_quanta)
        q = np.linspace(-8.0 * sigma, 8.0 * sigma, 200_001)
        scanned = np.max(wavefunction_stack(n_quanta, q) ** 2 / gaussian(q, sigma), axis=1)
        assert np.all(scanned <= peaks * (1.0 + 1e-12))
        assert np.all(scanned >= peaks * (1.0 - 1e-6))

    @settings(max_examples=300, deadline=None)
    @given(
        n_quanta=st.integers(1, 3),
        observable=st.sampled_from(sorted(OBSERVABLE_THETA)),
        phi=st.floats(-math.pi, math.pi),
        channel=channels,
        x=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=16),
        u=st.lists(st.floats(-8.0, 8.0), min_size=16, max_size=16),
    )
    def test_density_under_bound(self, n_quanta, observable, phi, channel, x, u):
        # every q (in units of sigma) against every x
        _, sigma = _envelope_peaks(n_quanta)
        x_grid, q_grid = (v.ravel() for v in np.meshgrid(x, sigma * np.array(u)))
        theta = OBSERVABLE_THETA[observable]
        profile = _conditional_profile(n_quanta, phi, channel, theta, x_grid)
        raw = oracle_raw_density(n_quanta, phi, channel, theta, x_grid, q_grid)
        assert np.all(raw <= profile[3] * gaussian(q_grid, sigma) * (1.0 + 1e-12))
        from_profile = raw_density(n_quanta, channel, profile, q_grid)
        np.testing.assert_allclose(from_profile, raw, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize(
        "n_quanta,phi,channel,observable,seed",
        [
            (1, 0.0, LossChannel(0.95, 0.93), "P", 61),
            (2, math.pi / 2, LOSSLESS, "P", 62),
            (3, 0.0, LossChannel(0.7, 0.9), "X_pi4", 63),
        ],
    )
    def test_acceptance_times_bound_is_normalized(self, n_quanta, phi, channel, observable, seed):
        # E[accept] = 2 P(x) / bound(x) iff raw <= bound g and raw integrates to 2 P(x)
        gen, proposals = rng(seed), 200_000
        x = _draw_x(n_quanta, channel, gen, proposals)
        profile = _conditional_profile(n_quanta, phi, channel, OBSERVABLE_THETA[observable], x)
        bound = profile[3]
        _, sigma = _envelope_peaks(n_quanta)
        q = gen.normal(0.0, sigma, proposals)
        accept = gen.random(proposals) * bound * gaussian(q, sigma) <= raw_density(
            n_quanta, channel, profile, q
        )
        two_px = 2.0 * px_density(n_quanta, channel, x)
        assert abs(float(np.mean(accept * bound / two_px)) - 1.0) < 0.02

    @pytest.mark.parametrize("n_quanta", [1, 2, 3])
    def test_acceptance_floor(self, n_quanta):
        peaks, _ = _envelope_peaks(n_quanta)
        x = np.linspace(-8.0, 8.0, 4001)
        for channel in (LOSSLESS, LossChannel(0.95, 0.93), LossChannel(0.3, 0.6), LossChannel(1.0, 0.0)):
            for theta in OBSERVABLE_THETA.values():
                for phi in (0.0, 1.0, math.pi / 2):
                    *_, bound = _conditional_profile(n_quanta, phi, channel, theta, x)
                    two_px = 2.0 * px_density(n_quanta, channel, x)
                    assert np.all(two_px / bound >= (1.0 - 1e-12) / (2.0 * peaks.max()))


def reference_sample_quadrature_pair(n_quanta, phi, channel, observable, gen, size):
    """The sampler in its direct form: x by np.interp on the table's CDF, and
    each proposal q accepted when u bound(x) g(q) <= raw(q), with g from
    ``gaussian`` and raw from ``raw_density`` on the wavefunction stack."""
    xs, cdf, *_ = _x_cdf_table(n_quanta, channel.eta_a)
    x = np.interp(gen.random(size), cdf, xs)
    profile = _conditional_profile(n_quanta, phi, channel, OBSERVABLE_THETA[observable], x)
    _, sigma = _envelope_peaks(n_quanta)
    q = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        prop = gen.normal(0.0, sigma, size=pending.size)
        terms = [v[pending] for v in profile]
        keep = gen.random(pending.size) * terms[3] * gaussian(prop, sigma) <= raw_density(
            n_quanta, channel, terms, prop
        )
        q[pending[keep]] = prop[keep]
        pending = pending[~keep]
    return x, q


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestDrawParity:
    @settings(max_examples=100, deadline=None)
    @given(
        n_quanta=st.integers(1, 16),
        eta_a=st.floats(0.0, 1.0, exclude_min=True),
        u=st.lists(st.floats(0.0, 1.0), max_size=64),
    )
    @example(n_quanta=1, eta_a=1e-6, u=[])
    @example(n_quanta=16, eta_a=1e-6, u=[])
    @example(n_quanta=3, eta_a=1.0, u=[])
    def test_guide_lookup_equals_interp(self, n_quanta, eta_a, u):
        # every cell start, every CDF node and the float just below each node,
        # where the interval changes
        table = _x_cdf_table(n_quanta, eta_a)
        xs, cdf = table[:2]
        u = np.concatenate([
            u, np.arange(X_GUIDE_CELLS + 1) / X_GUIDE_CELLS, cdf, np.nextafter(cdf, -np.inf)[1:],
        ])
        np.testing.assert_array_equal(bits(_inverse_cdf(u, *table)), bits(np.interp(u, cdf, xs)))

    @pytest.mark.parametrize("n_quanta", [1, 16])
    def test_tiny_efficiency_cdf_has_flat_top_steps(self, n_quanta):
        # the flat steps whose infinite slopes the lookup must never select
        _, cdf, slope, _ = _x_cdf_table(n_quanta, 1e-6)
        assert np.any(np.diff(cdf)[cdf[:-1] > 0.5] == 0.0)
        assert np.isinf(slope).any()

    @pytest.mark.parametrize(
        "channel",
        [LOSSLESS, LossChannel(0.95, 0.93), LossChannel(0.3, 0.6), LossChannel(1e-6, 0.0)],
        ids=["lossless", "0.95-0.93", "0.3-0.6", "1e-6-0"],
    )
    @pytest.mark.parametrize("observable", sorted(OBSERVABLE_THETA))
    @pytest.mark.parametrize("n_quanta", [1, 2, 3])
    def test_matches_reference_sampler(self, n_quanta, observable, channel):
        for seed in range(3):
            phi = float(rng(seed).uniform(-math.pi, math.pi))
            got = sample_quadrature_pair(n_quanta, phi, channel, observable, rng(seed), 5_000)
            want = reference_sample_quadrature_pair(n_quanta, phi, channel, observable, rng(seed), 5_000)
            for got_v, want_v in zip(got, want):
                np.testing.assert_array_equal(bits(got_v), bits(want_v))


class TestEstimator:
    def test_ideal_n1(self):
        est = estimate_steering(1, 0.0, LOSSLESS, "p", shots=200_000, seed=7)
        assert est.e_hat == 0.0
        assert abs(est.e_hat) < 0.05
        assert est.stderr > 0.0
        assert abs(est.var_quadrature_n.value - 2.0) < 4 * est.var_quadrature_n.stderr
        assert abs(est.commutator_modulus.value - math.sqrt(2 / math.pi)) < 4 * est.commutator_modulus.stderr

    def test_lossy_n1_matches_closed_form(self):
        channel = LossChannel(0.95, 0.95)
        est = estimate_steering(1, 0.0, channel, "p", shots=1_000_000, seed=11, bins=128)
        assert abs(est.e_hat - e1p_closed_form(channel)) < 3 * est.stderr

    def test_determinism(self):
        a = estimate_steering(1, 0.0, LOSSLESS, "p", shots=50_000, seed=5)
        b = estimate_steering(1, 0.0, LOSSLESS, "p", shots=50_000, seed=5)
        assert a == b

    def test_shot_log_deterministic_and_formatted(self):
        buf_a, buf_b = io.StringIO(), io.StringIO()
        estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=9, shot_log=buf_a)
        estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=9, shot_log=buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        lines = buf_a.getvalue().splitlines()
        assert lines[0] == "setting,outcome_a,outcome_b"
        assert len(lines) == 3_001
        settings_seen = {line.split(",")[0] for line in lines[1:]}
        assert settings_seen == {"number-pair", "x-then-P", "x-then-X"}

    def test_seed_changes_estimate_within_bounds(self):
        a = estimate_steering(1, 0.0, LossChannel(0.95, 0.95), "p", shots=200_000, seed=7)
        b = estimate_steering(1, 0.0, LossChannel(0.95, 0.95), "p", shots=200_000, seed=8)
        assert a.e_hat != b.e_hat
        assert abs(a.e_hat - b.e_hat) < 4 * math.hypot(a.stderr, b.stderr)

    def test_small_runs_are_legal(self):
        est = estimate_steering(1, 0.0, LOSSLESS, "p", shots=100, seed=1)
        assert est.stderr > 0.0
        assert est.bins >= 1

    def test_insufficient_occupancy(self):
        with pytest.raises(InsufficientBinOccupancy):
            estimate_steering(1, 0.0, LOSSLESS, "p", shots=30, seed=1)

    def test_binning_bias_bound(self):
        channel = LossChannel(0.95, 0.95)
        coarse = estimate_steering(1, 0.0, channel, "p", shots=1_000_000, seed=13, bins=32)
        fine = estimate_steering(1, 0.0, channel, "p", shots=1_000_000, seed=13, bins=64)
        assert abs(coarse.e_hat - fine.e_hat) / fine.e_hat < 0.01

    def test_x_criterion_n1(self):
        # at phi = pi/2 the X criterion conditions on X and combines P means
        est = estimate_steering(1, math.pi / 2, LOSSLESS, "x", shots=200_000, seed=21)
        assert abs(est.commutator_modulus.value - math.sqrt(2 / math.pi)) < 4 * est.commutator_modulus.stderr
        assert est.e_hat == 0.0

    def test_three_quantum_estimate(self):
        from noonsteer.inferred import inferred_commutator_modulus, inferred_variance_quadrature

        est = estimate_steering(3, 0.0, LOSSLESS, "p", shots=300_000, seed=17, bins=64)
        var_q_true = inferred_variance_quadrature(3, 0.0, LOSSLESS, "p")
        modulus_true = inferred_commutator_modulus(3, 0.0, LOSSLESS, "p")
        assert abs(est.var_quadrature_n.value - var_q_true) < 4 * est.var_quadrature_n.stderr
        assert abs(est.commutator_modulus.value - modulus_true) < 4 * est.commutator_modulus.stderr

    def test_unsupported_order(self):
        from noonsteer.errors import UnsupportedOrder

        with pytest.raises(UnsupportedOrder):
            estimate_steering(4, math.pi / 2, LOSSLESS, "p", shots=10_000, seed=0)

    def test_consistency_over_seeds(self):
        # every estimator within 4 stderr of analytic in >= 95% of 40 seeds
        channel = LossChannel(0.95, 0.95)
        analytic_e = e1p_closed_form(channel)
        analytic_vq = 1.0 + channel.eta_b
        from noonsteer.inferred import inferred_commutator_modulus, inferred_number_variance

        analytic_vn = inferred_number_variance(1, channel)
        analytic_c = inferred_commutator_modulus(1, 0.0, channel, "p")
        hits = {"e": 0, "vn": 0, "vq": 0, "c": 0}
        seeds = range(40)
        for seed in seeds:
            est = estimate_steering(1, 0.0, channel, "p", shots=100_000, seed=seed, bins=64)
            hits["e"] += abs(est.e_hat - analytic_e) < 4 * est.stderr
            hits["vn"] += abs(est.var_number.value - analytic_vn) < 4 * est.var_number.stderr
            hits["vq"] += abs(est.var_quadrature_n.value - analytic_vq) < 4 * est.var_quadrature_n.stderr
            hits["c"] += abs(est.commutator_modulus.value - analytic_c) < 4 * est.commutator_modulus.stderr
        for name, count in hits.items():
            assert count >= 38, f"{name}: only {count}/40 within 4 sigma"


def number_variance_reference(n_quanta, n_a, n_b):
    """(var_number, stderr) by a loop over the n_a outcomes: the per-group
    ddof=1 variance and biased fourth central moment, weighted by group size."""
    n_num = n_a.size
    var_n, se2_within = 0.0, 0.0
    group_vars, group_weights = [], []
    for m in range(n_quanta + 1):
        sel = n_b[n_a == m].astype(float)
        if sel.size == 0:
            continue
        w = sel.size / n_num
        gvar = float(sel.var(ddof=1)) if sel.size > 1 else 0.0
        m4 = float(np.mean((sel - sel.mean()) ** 4)) if sel.size > 1 else 0.0
        var_n += w * gvar
        se2_within += w**2 * max(m4 - gvar**2, 0.0) / sel.size
        group_vars.append(gvar)
        group_weights.append(w)
    se2_between = sum(w * (gv - var_n) ** 2 for w, gv in zip(group_weights, group_vars)) / n_num
    return var_n, math.sqrt(se2_within + se2_between)


def assert_matches_number_reference(n_quanta, n_a, n_b):
    got = _number_variance(n_quanta, n_a, n_b)
    value, stderr = number_variance_reference(n_quanta, n_a, n_b)
    assert got.value == pytest.approx(value, rel=1e-13, abs=0.0)
    # stderr to 1e-11, compared squared: the m4 - m2^2 of a group carries
    # rounding of order 1e-14 (outcomes up to 3, centred on a rounded mean),
    # which enters the squared stderr as at most that over the number of
    # pairs and is all that is left where the exact squared stderr is 0
    assert got.stderr**2 == pytest.approx(stderr**2, rel=2e-11, abs=1e-12 / n_a.size)


@st.composite
def number_groups(draw):
    """(N, n_a, n_b): N + 1 groups of n_b outcomes in 0..N, each empty, of one
    member or larger, with at least one pair in all."""
    n_quanta = draw(st.integers(1, 3))
    groups = draw(
        st.lists(st.lists(st.integers(0, n_quanta), max_size=40), min_size=n_quanta + 1, max_size=n_quanta + 1)
        .filter(lambda gs: any(gs))
    )
    n_a = np.repeat(np.arange(n_quanta + 1), [len(g) for g in groups])
    n_b = np.array([v for g in groups for v in g], dtype=np.int64)
    order = np.random.default_rng(len(n_b)).permutation(len(n_b))
    return n_quanta, n_a[order], n_b[order]


class TestNumberVariance:
    @settings(max_examples=300, deadline=None)
    @given(number_groups())
    def test_matches_loop_reference(self, case):
        assert_matches_number_reference(*case)

    @pytest.mark.parametrize("n_quanta", [1, 2, 3])
    @pytest.mark.parametrize("channel", [LOSSLESS, LossChannel(0.95, 0.93), LossChannel(0.6, 0.8)])
    def test_matches_loop_reference_on_sampled_pairs(self, n_quanta, channel):
        for seed in range(20):
            assert_matches_number_reference(n_quanta, *sample_number_pair(n_quanta, channel, rng(seed), 50_000))


class TestHomodyneSettings:
    # the setting order assigns each setting its RNG substream
    @pytest.mark.parametrize(
        "n_quanta,which,settings,combo",
        [
            (1, "p", ["P", "X"], {"X": 1.0}),
            (1, "x", ["X", "P"], {"P": 1.0}),
            (2, "p", ["P", "X_pi4", "X"], {"X_pi4": 2.0, "X": -1.0, "P": -1.0}),
            (2, "x", ["X", "X_pi4", "P"], {"X_pi4": 2.0, "X": -1.0, "P": -1.0}),
            (3, "p", ["P", "X_pi4", "P_pi4", "X"],
             {"X_pi4": math.sqrt(2.0), "P_pi4": -math.sqrt(2.0), "X": -1.0}),
            (3, "x", ["X", "X_pi4", "P_pi4", "P"],
             {"X_pi4": math.sqrt(2.0), "P_pi4": math.sqrt(2.0), "P": -1.0}),
        ],
    )
    def test_settings_and_coefficients(self, n_quanta, which, settings, combo):
        got_settings, got_combo = _homodyne_settings(n_quanta, which)
        assert got_settings == settings
        assert list(got_combo.items()) == list(combo.items())


def group_moments_reference(values):
    """(n, mean, ddof=1 variance, (m4 - variance^2) / n) of one group by numpy's
    own mean and var, m4 the mean fourth central moment; a group of fewer
    than two values has variance and stderr 0, an empty one mean 0 too."""
    n = values.size
    if n < 2:
        return float(n), float(values.sum()), 0.0, 0.0
    var = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - np.mean(values)) ** 4))
    return float(n), float(np.mean(values)), var, max(m4 - var**2, 0.0) / n


@st.composite
def grouped_values(draw):
    """(group, y, n_groups, weight, expanded): values in groups that may be
    empty, of one member or larger, around an offset that may be far larger
    than their spread; ``weight`` is None or integer weights (0 included), and
    ``expanded`` lists each group's values repeated by weight."""
    offset = draw(st.sampled_from([0.0, 1e6, -3.5e7]))
    sizes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6))
    group = np.repeat(np.arange(len(sizes)), sizes)
    y = offset + np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=group.size, max_size=group.size)), dtype=float)
    weight = None
    if draw(st.booleans()):
        weight = np.array(draw(st.lists(st.integers(0, 5), min_size=group.size, max_size=group.size)), dtype=np.int64)
    order = np.random.default_rng(group.size).permutation(group.size)
    group, y = group[order], y[order]
    repeats = np.ones(group.size, dtype=int) if weight is None else weight[order]
    expanded = [np.repeat(y[group == g], repeats[group == g]) for g in range(len(sizes))]
    return group, y, len(sizes), None if weight is None else weight[order], expanded


class TestGroupMoments:
    @settings(max_examples=300, deadline=None)
    @given(grouped_values())
    @example((np.zeros(9, dtype=np.intp), 1e6 + np.array([0.0, 3, 3, 1, 2, 3, 0, 0, 0]), 2, None,
              [1e6 + np.array([0.0, 3, 3, 1, 2, 3, 0, 0, 0]), np.array([])]))
    def test_matches_per_group_loop(self, case):
        group, y, n_groups, weight, expanded = case
        counts, mean, m2, m2_se2 = _group_moments(group, y, n_groups, weight)
        eps = np.finfo(float).eps
        for g, values in enumerate(expanded):
            n, want_mean, want_m2, want_se2 = group_moments_reference(values)
            assert counts[g] == n
            # bounds from float64 rounding: a mean off by e moves the centred
            # m2 by e^2 only, and the fourth moment by about 4 e spread^3
            big = float(np.max(np.abs(values), initial=0.0))
            spread = float(np.max(np.abs(values - want_mean), initial=0.0))
            tol = 64.0 * max(n, 1.0) * eps
            assert abs(mean[g] - want_mean) <= tol * big
            assert abs(m2[g] - want_m2) <= tol * (spread**2 + big * spread)
            assert abs(m2_se2[g] - want_se2) * max(n, 1.0) <= tol * (spread**4 + big * spread**3)


def bin_moments_reference(x, y, edges):
    """``group_moments_reference`` of y in each bin of x, one column per moment,
    by a loop over the bins."""
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)
    rows = [group_moments_reference(y[idx == b]) for b in range(len(edges) - 1)]
    return [np.array(column) for column in zip(*rows)]


#: Bin ranges for the fine-index test, by bin count: the default, a shifted
#: one, and the finest that ``estimate_steering`` accepts (17 ulps a bin),
#: at 1 and among the subnormals, where x / width overflows.
FINE_RANGES = {
    "default": lambda bins: X_RANGE,
    "shifted": lambda bins: (-3.7, 11.3),
    "finest": lambda bins: (1.0, 1.0 + 17 * bins * math.ulp(1.0)),
    "subnormal": lambda bins: (0.0, 17 * bins * math.ulp(0.0)),
}


def merged_partition_reference(bin_counts):
    """The greedy merge as a loop over the fine bins: a cut after each bin that
    brings the run since the last cut to MIN_BIN_OCCUPANCY, the underfull tail
    folded into the last kept bin; None when no run fills."""
    cuts, acc = [0], 0
    for i, count in enumerate(bin_counts.tolist()):
        acc += count
        if acc >= MIN_BIN_OCCUPANCY:
            cuts.append(i + 1)
            acc = 0
    if len(cuts) < 2:
        return None
    cuts[-1] = len(bin_counts)
    return cuts


class TestBinning:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.just(0) | st.integers(0, 3 * MIN_BIN_OCCUPANCY), min_size=1, max_size=300))
    @example([MIN_BIN_OCCUPANCY - 1])
    @example([MIN_BIN_OCCUPANCY])
    @example([0, MIN_BIN_OCCUPANCY, 0, 0])
    def test_merged_partition_matches_loop(self, counts):
        counts = np.array(counts)
        want = merged_partition_reference(counts)
        if want is None:
            with pytest.raises(InsufficientBinOccupancy):
                _merged_partition(counts)
        else:
            np.testing.assert_array_equal(_merged_partition(counts), want)

    def test_fine_to_merged_lookup_matches_two_pass_reference(self):
        gen = rng(31)
        edges = np.linspace(-8.0, 8.0, 129)
        outside = np.array([-20.0, np.nextafter(-8.0, -np.inf), 8.0, 8.5, 1e9])
        x_by, y_by = {}, {}
        for name, size in (("P", 6_000), ("X_pi4", 5_500), ("X", 5_800)):
            x = np.concatenate([gen.normal(0.0, 2.0, size), edges, outside])
            x_by[name] = gen.permutation(x)
            y_by[name] = gen.normal(0.0, 1.5, x.size) ** 3  # signed, like q**N at odd N
        fine_min = np.min([bin_moments_reference(x_by[n], y_by[n], edges)[0] for n in x_by], axis=0)
        assert fine_min[-1] < MIN_BIN_OCCUPANCY  # the right tail is folded
        cuts = _merged_partition(fine_min)
        # greedy: each merged bin is the shortest run of fine bins to reach the
        # occupancy, except the last, which also takes the underfull tail
        assert cuts[0] == 0 and cuts[-1] == len(edges) - 1
        for start, stop in zip(cuts[:-2], cuts[1:-1]):
            assert fine_min[start:stop].sum() >= MIN_BIN_OCCUPANCY > fine_min[start:stop - 1].sum()
        assert fine_min[cuts[-2]:].sum() >= MIN_BIN_OCCUPANCY

        moments = _binned_moments(x_by, y_by, edges)

        for name in x_by:
            counts, mean, m2, m2_se2 = moments[name]
            want_counts, want_mean, want_m2, want_se2 = bin_moments_reference(x_by[name], y_by[name], edges[cuts])
            np.testing.assert_array_equal(counts, want_counts)
            assert counts.sum() == x_by[name].size
            np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(m2, want_m2, rtol=1e-12)
            np.testing.assert_allclose(m2_se2, want_se2, rtol=1e-10)

    @pytest.mark.parametrize("bins", [1, 40, 128, MAX_BINS])
    @pytest.mark.parametrize("bin_range", list(FINE_RANGES), ids=list(FINE_RANGES))
    def test_fine_index_equals_searchsorted(self, bins, bin_range):
        lo, hi = FINE_RANGES[bin_range](bins)
        edges = np.linspace(lo, hi, bins + 1)
        span = hi - lo
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [lo - span, hi + span, -1e300, 1e300, -np.finfo(float).max, np.finfo(float).max],
            rng(41).uniform(lo - 0.1 * span, hi + 0.1 * span, 200_000),
        ])
        want = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
        np.testing.assert_array_equal(_fine_bins(x, edges), want)

    def test_invalid_binning_rejected(self):
        with pytest.raises(ValueError):
            estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=1, bins=0)
        with pytest.raises(ValueError):
            estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=1, bin_range=(1.0, 1.0))

    @pytest.mark.parametrize("bin_range", [(-math.inf, 8.0), (-8.0, math.inf)], ids=["-inf", "inf"])
    def test_non_finite_bin_range_refused_before_sampling(self, bin_range, monkeypatch):
        for name in ("sample_number_pair", "sample_quadrature_pair"):
            monkeypatch.setattr(sampling, name, lambda *args: pytest.fail("drew shots"))
        with pytest.raises(ValueError, match=r"bin_range\[0\] < bin_range\[1\]"):
            estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=1, bin_range=bin_range)

    @pytest.mark.parametrize(
        "bins,bin_range",
        [(40, (1.0, 1.0 + 40 * 15 * math.ulp(1.0))), (40, (0.0, 1e-322)), (40, (-1e308, 1e308))],
        ids=["15-ulp-bins", "subnormal-width", "width-overflows"],
    )
    def test_unresolved_bins_refused_before_sampling(self, bins, bin_range, monkeypatch):
        for name in ("sample_number_pair", "sample_quadrature_pair"):
            monkeypatch.setattr(sampling, name, lambda *args: pytest.fail("drew shots"))
        with pytest.raises(ValueError, match="wider than 16 ulps"):
            estimate_steering(1, 0.0, LOSSLESS, "p", shots=3_000, seed=1, bins=bins, bin_range=bin_range)


class TestShotLogValidation:
    def test_number_outcomes_must_be_integers(self):
        n_a = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="integer"):
            _write_shot_log(io.StringIO(), [SETTING_NUMBER], n_a, n_a, {}, {})

    def test_quadrature_outcomes_must_be_finite(self):
        n = np.array([1, 0])
        with pytest.raises(ValueError, match="finite"):
            _write_shot_log(
                io.StringIO(), [SETTING_NUMBER, "P"], n, n,
                {"P": np.array([0.5, np.nan])}, {"P": np.array([0.1, 0.2])},
            )


def reference_outcomes(n_quanta, phi, channel, which, shots, seed):
    """(settings, n_a, n_b, x_by, q_by) drawn one block after another: each
    setting's spawned sequence spawns one substream per SHOT_BLOCK shots, and
    the blocks' draws are concatenated."""
    hom_settings, _ = _homodyne_settings(n_quanta, which)
    settings = [SETTING_NUMBER, *hom_settings]
    drawn = {}
    for i, (name, sequence) in enumerate(zip(settings, np.random.SeedSequence(seed).spawn(len(settings)))):
        size = shots // len(settings) + (i < shots % len(settings))
        sizes = [min(sampling.SHOT_BLOCK, size - start) for start in range(0, size, sampling.SHOT_BLOCK)]
        parts = [
            sample_number_pair(n_quanta, channel, np.random.default_rng(child), part)
            if name == SETTING_NUMBER
            else sample_quadrature_pair(n_quanta, phi, channel, name, np.random.default_rng(child), part)
            for child, part in zip(sequence.spawn(len(sizes)), sizes)
        ]
        drawn[name] = [np.concatenate(column) for column in zip(*parts)]
    n_a, n_b = drawn.pop(SETTING_NUMBER)
    return settings, n_a, n_b, {k: v[0] for k, v in drawn.items()}, {k: v[1] for k, v in drawn.items()}


#: tracemalloc peak of a 10^6-shot N = 1 estimate with two blocks in flight.
#: It read 29.4 MB with one or two workers (the peak falls in the binned
#: estimators, after the draw); drawing each setting whole, 333334 shots at
#: a time, it read 41.7 MB.
PEAK_BYTES_BOUND = 33e6


def first_difference(got: str, want: str):
    """None for equal texts, else the first differing line of each (a failing
    == on two long texts would have pytest diff them for minutes)."""
    if got == want:
        return None
    pairs = zip_longest(got.splitlines(), want.splitlines())
    return next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)


class TestShotBlocks:
    @pytest.mark.parametrize(
        "block,shots",
        [(sampling.SHOT_BLOCK, 3_001), (1_000, 7_501), (1_000, 6_000)],
        ids=["under-one-block", "partial-last-block", "whole-blocks"],
    )
    def test_shot_log_is_the_blocks_in_order(self, block, shots, monkeypatch):
        monkeypatch.setattr(sampling, "SHOT_BLOCK", block)
        got = io.StringIO()
        estimate_steering(2, math.pi / 2, LossChannel(0.95, 0.93), "p", shots=shots, seed=41, shot_log=got)
        want = io.StringIO()
        _write_shot_log(want, *reference_outcomes(2, math.pi / 2, LossChannel(0.95, 0.93), "p", shots, 41))
        assert first_difference(got.getvalue(), want.getvalue()) is None

    @pytest.mark.parametrize("workers", [1, 8])
    def test_worker_count_changes_no_bit(self, workers, monkeypatch):
        # 8 workers and a short switch interval interleave the blocks' writes
        # finely; a write lost or put in another block's slice changes the log
        monkeypatch.setattr(sampling, "SHOT_BLOCK", 1_000)
        args = (3, 0.0, LossChannel(0.9, 0.95), "p")
        kwargs = dict(shots=20_001, bins=64, seed=43)
        default_log, own_log = io.StringIO(), io.StringIO()
        default = estimate_steering(*args, **kwargs, shot_log=default_log)
        monkeypatch.setattr(sampling, "_worker_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            own = estimate_steering(*args, **kwargs, shot_log=own_log)
        finally:
            sys.setswitchinterval(interval)
        assert own == default
        assert first_difference(own_log.getvalue(), default_log.getvalue()) is None

    def test_worker_count_changes_no_bit_at_full_blocks(self, monkeypatch):
        shots = 7 * sampling.SHOT_BLOCK + 5  # two full blocks and a partial one per setting
        default = estimate_steering(1, 0.0, LossChannel(0.95, 0.93), "p", shots=shots, bins=128, seed=47)
        monkeypatch.setattr(sampling, "_worker_count", lambda: 1)
        assert estimate_steering(1, 0.0, LossChannel(0.95, 0.93), "p", shots=shots, bins=128, seed=47) == default

    def test_block_exception_reaches_caller(self, monkeypatch, tmp_path):
        class Boom(Exception):
            pass

        draw = sampling.sample_quadrature_pair

        def failing(n_quanta, phi, channel, observable, rng, size):
            if observable == "X":
                raise Boom(observable)
            return draw(n_quanta, phi, channel, observable, rng, size)

        monkeypatch.setattr(sampling, "SHOT_BLOCK", 100)
        monkeypatch.setattr(sampling, "sample_quadrature_pair", failing)
        log, raised = tmp_path / "shots.csv", []

        def run():
            try:
                estimate_steering(1, 0.0, LOSSLESS, "p", shots=30_000, seed=3, shot_log=log)
            except Boom as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1 and raised[0].args == ("X",)
        assert log.read_text() == ""

    def test_peak_memory_is_bounded_per_block(self, monkeypatch):
        monkeypatch.setattr(sampling, "_worker_count", lambda: 2)
        estimate_steering(1, 0.0, LossChannel(0.95, 0.93), "p", shots=1_000, seed=1)  # build the tables
        tracemalloc.start()
        try:
            estimate_steering(1, 0.0, LossChannel(0.95, 0.93), "p", shots=1_000_000, bins=128, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BYTES_BOUND


class TestDiagnostics:
    def test_acceptance_matches_mean_bound(self):
        # a shot takes bound(x) / 2P(x) proposals on average (geometric), so the
        # acceptance is the shot count over the summed means, setting by setting
        n_quanta, phi, channel, shots = 2, math.pi / 2, LossChannel(0.95, 0.93), 300_000
        est = estimate_steering(n_quanta, phi, channel, "p", shots=shots, bins=128, seed=51)
        settings, _ = _homodyne_settings(n_quanta, "p")
        gen = rng(52)
        mean_proposals = []
        for name in settings:
            x = _draw_x(n_quanta, channel, gen, 400_000)
            *_, bound = _conditional_profile(n_quanta, phi, channel, OBSERVABLE_THETA[name], x)
            mean_proposals.append(float(np.mean(bound / (2.0 * px_density(n_quanta, channel, x)))))
        assert est.acceptance == pytest.approx(1.0 / np.mean(mean_proposals), rel=0.01)
        peaks, _ = _envelope_peaks(n_quanta)
        assert 1.0 / (2.0 * peaks.max()) <= est.acceptance <= 1.0

    def test_min_occupancy_of_one_bin_is_the_smallest_setting(self):
        # 100 shots over number, P and X: 34, 33 and 33, all in the one bin
        est = estimate_steering(1, 0.0, LOSSLESS, "p", shots=100, bins=1, seed=1)
        assert est.bins == 1
        assert est.min_occupancy == 33

    def test_min_occupancy_after_merging(self):
        est = estimate_steering(2, math.pi / 2, LossChannel(0.95, 0.93), "p", shots=30_000, bins=128, seed=5)
        assert MIN_BIN_OCCUPANCY <= est.min_occupancy < 30_000 // 3


#: estimate_steering(N, phi, LossChannel(0.95, 0.93), "p", shots, bins=128,
#: seed) -> (merged bins, e_hat, stderr, var_number value and stderr,
#: var_quadrature_n value and stderr, commutator_modulus value and stderr),
#: recorded bit for bit (numpy 2.4 on an x86-64 CPU with AVX-512, where
#: numpy's exp and pow take SIMD kernels whose last bits differ from libm's).
#: The q-derived values were re-recorded when the per-shot envelope bound
#: replaced the scanned envelope constant; the merged bin counts, the
#: var_number fields and every x outcome of the shot log did not move. The
#: var_number fields and E were re-recorded when var_number moved from a loop
#: over the n_a outcomes to the histogram power sums (last bits only, at most
#: 8e-15 relative); the q-derived fields and the shot log did not move. The
#: fields were re-recorded again when every group's variance and fourth
#: moment came from sums of powers of the deviation from the group mean
#: instead of raw power sums, and q^N from repeated products instead of pow
#: (at most 1.6e-13 relative, in the var_number stderr at N = 3); the merged
#: bin counts and the shot log did not move. Every value and the shot log
#: were re-recorded when each setting's draw was cut into blocks of
#: SHOT_BLOCK shots, each from a substream its setting's spawned sequence
#: spawns in turn: these runs fit in one block per setting, but that block
#: draws from the spawned child, not the setting's sequence itself. A change
#: to the random stream (draw order, sizes, block layout or envelope) must
#: re-record these.
RECORDED_ESTIMATES = {
    (1, 0.0, 30_000, 101): (53, (
        "0x1.ace86478a8702p-1", "0x1.0d4d0a685e7ffp-5", "0x1.9f768328fc0f8p-5",
        "0x1.deec3164158b4p-10", "0x1.ed4138691dec7p+0", "0x1.6484039b5162fp-6",
        "0x1.7e1d27f7676d2p-1", "0x1.7d1bc4fe0f193p-7",
    )),
    (2, math.pi / 2, 40_003, 202): (60, (
        "0x1.cd224060c7676p-1", "0x1.123a4fe928e58p-4", "0x1.0df59a68607edp-4",
        "0x1.423ea37780f0dp-9", "0x1.3bc4b3958cbbbp+3", "0x1.dd5556d713190p-3",
        "0x1.ca73148960569p+0", "0x1.41d34cd164550p-4",
    )),
    (3, 0.0, 50_000, 303): (68, (
        "0x1.70cdb489aa17cp+1", "0x1.9580194973fe6p-2", "0x1.82ed10f69969ap-4",
        "0x1.a7baca674b9aap-9", "0x1.ab1bbc47efe2ep+8", "0x1.82e0afb751cb4p+3",
        "0x1.1a2e5b6b2ab10p+2", "0x1.df5c9e425c32dp-2",
    )),
}

#: sha256 of the shot log of the N = 2 configuration above (40003 shots, so
#: the last round is partial), recorded with the estimates.
RECORDED_LOG_SHA256 = "025755e48187b0b7a6cb8e782ec9d7a552ab5a2a52172216380f39143f8094b5"


class TestRecordedParity:
    @pytest.mark.parametrize("config", list(RECORDED_ESTIMATES), ids=["N1", "N2", "N3"])
    def test_estimate_bit_for_bit(self, config):
        n_quanta, phi, shots, seed = config
        bins, fields = RECORDED_ESTIMATES[config]
        log = io.StringIO() if n_quanta == 2 else None
        est = estimate_steering(
            n_quanta, phi, LossChannel(0.95, 0.93), "p", shots=shots, bins=128, seed=seed,
            shot_log=log,
        )
        got = (
            est.e_hat, est.stderr,
            est.var_number.value, est.var_number.stderr,
            est.var_quadrature_n.value, est.var_quadrature_n.stderr,
            est.commutator_modulus.value, est.commutator_modulus.stderr,
        )
        assert est.bins == bins
        assert [value.hex() for value in got] == list(fields)
        if log is not None:
            digest = hashlib.sha256(log.getvalue().encode()).hexdigest()
            assert digest == RECORDED_LOG_SHA256
