import cmath
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _states import coherent_vector, fock_vector, product_density
from noonsteer import cli, inferred, quadrature, steering
from noonsteer.errors import (
    ConvergenceFailure,
    DegenerateChannel,
    NondiscriminatingPhase,
    NoonSteerError,
    NoThresholdInBracket,
    OutOfSupportedOrder,
    UnsupportedOrder,
)
from noonsteer.fock import HOMODYNE_COMBINATIONS, operator_matrix
from noonsteer.inferred import (
    commutator_phase_factor,
    conditional_quadrature_moment,
    density_abs_conditional_mean,
    density_number_variance,
    density_quadrature_variance,
    inferred_commutator_modulus,
)
from noonsteer.lossy import (
    LOSSLESS,
    LossChannel,
    TwoModeDensity,
    _branch_profiles,
    binomial_ladder,
    conditional_number_b,
    number_marginal_a,
)
from noonsteer.quadrature import integrate_abs
from noonsteer.steering import (
    caption_phase,
    coherence_inequality,
    e1p_closed_form,
    protocol_combination,
    protocol_rhs,
    steering_functional,
    sweep,
    threshold_efficiency,
)

mid_etas = st.floats(min_value=0.05, max_value=1.0)


class TestSteeringFunctional:
    def test_ideal_n1_always_steers(self):
        report = steering_functional(1, 0.0, LOSSLESS, "p")
        assert report.E == 0.0
        assert report.violated is True
        assert report.var_number == 0.0
        assert report.commutator_modulus > 0.0

    def test_nondiscriminating_phase_even(self):
        with pytest.raises(NondiscriminatingPhase):
            steering_functional(2, 0.0, LOSSLESS, "p")

    def test_nondiscriminating_phase_odd_cos(self):
        with pytest.raises(NondiscriminatingPhase):
            steering_functional(1, math.pi / 2, LOSSLESS, "p")

    def test_x_criterion_needs_sine(self):
        with pytest.raises(NondiscriminatingPhase):
            steering_functional(1, 0.0, LOSSLESS, "x")
        assert steering_functional(1, math.pi / 2, LOSSLESS, "x").violated

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateChannel):
            steering_functional(1, 0.0, LossChannel(0.0, 0.5), "p")

    def test_lossy_value_against_closed_form(self):
        channel = LossChannel(0.95, 0.95)
        report = steering_functional(1, 0.0, channel, "p")
        assert report.E == pytest.approx(0.784, abs=1e-3)
        assert report.E == pytest.approx(e1p_closed_form(channel), abs=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(ea=mid_etas, eb=mid_etas)
    def test_ratio_invariant(self, ea, eb):
        report = steering_functional(1, 0.0, LossChannel(ea, eb), "p")
        rebuilt = 2 * math.sqrt(report.var_number * report.var_quadrature_n)
        assert report.E == pytest.approx(rebuilt / report.commutator_modulus, abs=1e-12)
        assert report.violated == (report.E < 1.0)


class TestClosedForm:
    def test_lossless_zero(self):
        assert e1p_closed_form(LOSSLESS) == 0.0

    def test_point_nine(self):
        assert e1p_closed_form(LossChannel(0.9, 0.9)) == pytest.approx(1.098, abs=1e-3)

    def test_point_nine_five(self):
        assert e1p_closed_form(LossChannel(0.95, 0.95)) == pytest.approx(0.784, abs=1e-3)

    def test_degenerate(self):
        with pytest.raises(DegenerateChannel):
            e1p_closed_form(LossChannel(0.5, 0.0))

    def test_agreement_small_grid(self):
        for ea in np.linspace(0.7, 1.0, 4):
            for eb in np.linspace(0.7, 1.0, 4):
                channel = LossChannel(float(ea), float(eb))
                numeric = steering_functional(1, 0.0, channel, "p").E
                assert abs(numeric - e1p_closed_form(channel)) < 1e-6


THRESHOLD_WIDTH = steering.THRESHOLD_WIDTH

#: Fixed efficiencies (the benchmark's ranges) that keep a crossing inside
#: THRESHOLD_BRACKET at the phases the tests use.
FIXED_RANGE = {
    "fix_eta_a": {1: (0.9, 1.0), 2: (0.9, 1.0), 3: (0.9, 1.0), 4: (0.9, 1.0)},
    "fix_eta_b": {1: (0.9, 1.0), 2: (0.95, 1.0), 3: (0.995, 1.0), 4: (0.999, 1.0)},
}


def fixed_kwargs(mode, fixed):
    """The ``threshold_efficiency`` keywords of a mode: "symmetric" fixes
    nothing, "fix_eta_a" and "fix_eta_b" fix that efficiency at ``fixed``."""
    return {} if mode == "symmetric" else {mode: fixed}


def channel_for(mode, fixed, eta):
    """The channel a ``threshold_efficiency`` solve in ``mode`` evaluates at ``eta``."""
    if mode == "symmetric":
        return LossChannel(eta, eta)
    return LossChannel(fixed, eta) if mode == "fix_eta_a" else LossChannel(eta, fixed)


@st.composite
def crossing_configs(draw):
    """(N, phi, criterion, mode, fixed value) with a crossing in THRESHOLD_BRACKET."""
    n_quanta = draw(st.integers(1, 4))
    which = draw(st.sampled_from(["p", "x"]))
    mode = draw(st.sampled_from(["symmetric", "fix_eta_a", "fix_eta_b"]))
    fixed = None if mode == "symmetric" else draw(st.floats(*FIXED_RANGE[mode][n_quanta]))
    phi = caption_phase(n_quanta) if which == "p" else math.pi / 2
    return n_quanta, phi, which, mode, fixed


class TestThreshold:
    def test_n1_symmetric(self):
        assert threshold_efficiency(1, 0.0, "p") == pytest.approx(0.917, abs=0.005)

    def test_crossing_precision(self):
        eta = threshold_efficiency(1, 0.0, "p")
        e_at = steering_functional(1, 0.0, LossChannel(eta, eta), "p").E
        assert abs(e_at - 1.0) < 1e-4

    def test_eta_b_sensitivity_ordering(self):
        # the criterion is more sensitive to mode-b loss, so the tolerable
        # eta_b (with eta_a pinned at 1) sits above the tolerable eta_a
        vary_b = threshold_efficiency(2, math.pi / 2, "p", fix_eta_a=1.0)
        vary_a = threshold_efficiency(2, math.pi / 2, "p", fix_eta_b=1.0)
        assert vary_b > vary_a

    def test_no_threshold_in_bracket(self):
        # eta_b = 0.7 leaves E >= 1 up to eta_a = 1 at N = 2
        with pytest.raises(NoThresholdInBracket):
            threshold_efficiency(2, math.pi / 2, "p", fix_eta_b=0.7)

    def test_fixing_both_efficiencies_is_refused(self):
        with pytest.raises(ValueError, match="fix at most one"):
            threshold_efficiency(1, 0.0, "p", fix_eta_a=0.9, fix_eta_b=0.9)

    @pytest.mark.parametrize("n_quanta", [12, 16])
    def test_orders_refining_past_the_batch_budget_solve(self, n_quanta):
        # near eta = 1 the variance integral of these orders refines the most,
        # and the solve still brackets E = 1 within its width
        eta = threshold_efficiency(n_quanta, math.pi / 2, "p")

        def e_at(eta):
            return steering_functional(n_quanta, math.pi / 2, LossChannel(eta, eta), "p").E

        assert e_at(eta - THRESHOLD_WIDTH) >= 1.0 > e_at(min(eta + THRESHOLD_WIDTH, 1.0))

    def test_failed_batch_falls_back_to_one_row_at_a_time(self, monkeypatch):
        default = threshold_efficiency(2, math.pi / 2, "p")
        sizes = []
        real = steering.inferred_variance_quadrature

        def failing_once(n_quanta, phi, channel, which):
            sizes.append(1 if isinstance(channel, LossChannel) else len(channel))
            if len(sizes) == 1:
                raise ConvergenceFailure("the first batch fails")
            return real(n_quanta, phi, channel, which)

        monkeypatch.setattr(steering, "inferred_variance_quadrature", failing_once)
        assert threshold_efficiency(2, math.pi / 2, "p") == default
        # the 7-row scan fails, and its rows are evaluated one at a time
        assert sizes[:8] == [7] + [1] * 7

    def test_invalid_efficiency_is_refused_at_any_phase(self):
        # a ValueError for the arguments comes before any per-point error
        with pytest.raises(ValueError, match="eta_a=1.5 outside"):
            threshold_efficiency(2, 0.0, "p", fix_eta_a=1.5)
        with pytest.raises(ValueError, match="eta_a=1.2 outside"):
            sweep([2], 0.0, axis([0.9, 1.2]), "p")

    def test_zero_width_terminates(self, monkeypatch):
        default = threshold_efficiency(1, 0.0, "p")
        calls = []
        reports = steering._reports

        def counted(*args, **kwargs):
            calls.append(None)
            if len(calls) > 200:
                raise RuntimeError("the solve did not stop at the float spacing")
            return reports(*args, **kwargs)

        monkeypatch.setattr(steering, "_reports", counted)
        monkeypatch.setattr(steering, "THRESHOLD_WIDTH", 0.0)
        assert threshold_efficiency(1, 0.0, "p") == pytest.approx(default, abs=1e-6)

    @pytest.mark.parametrize("mode", ["symmetric", "fix_eta_a", "fix_eta_b"])
    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4])
    def test_batched_bracket_scan_matches_sequential_loop(self, n_quanta, mode):
        fixed = None if mode == "symmetric" else 0.99
        phi = caption_phase(n_quanta)
        solved = threshold_outcome(lambda: threshold_efficiency(n_quanta, phi, "p", **fixed_kwargs(mode, fixed)))
        bisected = threshold_outcome(lambda: sequential_threshold(n_quanta, phi, "p", mode, fixed))
        assert type(solved) is type(bisected)
        if isinstance(bisected, str):
            assert solved == bisected
        else:
            assert abs(solved - bisected) <= THRESHOLD_WIDTH

    @settings(max_examples=25, deadline=None)
    @given(config=crossing_configs())
    def test_solve_brackets_the_crossing_within_width(self, config):
        n_quanta, phi, which, mode, fixed = config
        eta = threshold_efficiency(n_quanta, phi, which, **fixed_kwargs(mode, fixed))

        def e_at(eta):
            return steering_functional(n_quanta, phi, channel_for(mode, fixed, eta), which).E

        assert e_at(eta - THRESHOLD_WIDTH) >= 1.0 > e_at(min(eta + THRESHOLD_WIDTH, 1.0))
        bisected = sequential_threshold(n_quanta, phi, which, mode, fixed)
        assert abs(eta - bisected) <= THRESHOLD_WIDTH

    @pytest.mark.parametrize("mode", ["symmetric", "fix_eta_a", "fix_eta_b"])
    @pytest.mark.parametrize("which", ["p", "x"])
    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4])
    def test_solve_makes_at_most_ten_batched_calls(self, monkeypatch, n_quanta, which, mode):
        calls = []
        reports = steering._reports

        def counted(*args, **kwargs):
            calls.append(None)
            return reports(*args, **kwargs)

        monkeypatch.setattr(steering, "_reports", counted)
        fixed = None if mode == "symmetric" else sum(FIXED_RANGE[mode][n_quanta]) / 2.0
        phi = caption_phase(n_quanta) if which == "p" else math.pi / 2
        threshold_efficiency(n_quanta, phi, which, **fixed_kwargs(mode, fixed))
        assert len(calls) <= 10

    @pytest.mark.parametrize("hug", [None, "lo", "hi", "outside", "nan"])
    @pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-4])
    def test_round_bound_holds_where_interpolation_fails(self, monkeypatch, scale, hug):
        # a monotone E with a (near-)step at the crossing: E = 1.5 below it and
        # 0.5 above it, so inverse interpolation has little to go on; with
        # ``hug`` set, every estimate sits just inside one end of the bracket,
        # just outside it, or is nan
        root, bracket = 0.8765432101234, (0.5, 1.0)

        def e_of(eta):
            if scale == 0.0:
                return 1.5 if eta <= root else 0.5
            return 1.0 - 0.5 * math.tanh((eta - root) / scale) - 0.01 * (eta - root)

        calls = []

        def stepped(n_quanta, phi, channels, which):
            calls.append(len(channels))
            if len(calls) > 200:
                raise RuntimeError("the solve did not converge")
            return [SimpleNamespace(E=e_of(channel.eta_b)) for channel in channels]

        def hugging(points):
            lo = max(eta for eta, e in points if e >= 1.0)
            hi = min(eta for eta, e in points if e < 1.0)
            offsets = {"lo": (lo, 1e-3), "hi": (hi, -1e-3), "outside": (hi, 1e-3), "nan": (lo, math.nan)}
            end, offset = offsets[hug]
            return end + offset * (hi - lo)

        monkeypatch.setattr(steering, "_reports", stepped)
        if hug:
            monkeypatch.setattr(steering, "_inverse_estimate", hugging)
        assert bracket == steering.THRESHOLD_BRACKET
        eta = threshold_efficiency(1, 0.0, "p")
        thirds = math.ceil(math.log((bracket[1] - bracket[0]) / 6 / THRESHOLD_WIDTH, 3))
        # an estimate outside the bracket is never probed: each round cuts it to a third
        assert len(calls) - 1 <= (thirds if hug in ("outside", "nan") else 2 * thirds + 1)
        assert calls[0] == 7 and all(size <= 2 for size in calls[1:])
        assert e_of(eta - THRESHOLD_WIDTH / 2) >= 1.0 > e_of(eta + THRESHOLD_WIDTH / 2)


def sequential_threshold(n_quanta, phi, which, mode, fixed_value, bracket=(0.5, 1.0), width=1e-6):
    """``threshold_efficiency`` with its bracket scan made one ``steering_functional``
    call at a time."""

    def e_at(eta):
        return steering_functional(n_quanta, phi, channel_for(mode, fixed_value, eta), which).E

    lo, hi = bracket
    e_lo, e_hi = e_at(lo), e_at(hi)
    if not (e_hi < 1.0 <= e_lo):
        raise NoThresholdInBracket("no crossing of 1 inside the bracket")
    seq = [e_lo, *(e_at(eta) for eta in np.linspace(lo, hi, 7)[1:-1]), e_hi]
    if any(b > a + 1e-9 for a, b in zip(seq, seq[1:])):
        raise NoThresholdInBracket("E is not monotone on the bracket")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if e_at(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_outcome(solve):
    """eta* from ``solve()``, or the name of the error class."""
    try:
        return float(solve())
    except NoonSteerError as exc:
        return type(exc).__name__


def axis(etas):
    """The channels of a symmetric efficiency axis, eta_a = eta_b."""
    return [LossChannel(eta, eta) for eta in etas]


def product(eta_a_values, eta_b_values):
    """The channels of an (eta_a, eta_b) product grid, eta_a outermost."""
    return [LossChannel(eta_a, eta_b) for eta_a in eta_a_values for eta_b in eta_b_values]


class TestSweep:
    def test_monotone_in_eta_and_zero_at_lossless(self):
        grid = [round(0.86 + 0.02 * i, 2) for i in range(8)]
        rows = sweep([1, 2], caption_phase, axis(grid), "p")
        for n_quanta in (1, 2):
            curve = [r.E for r in rows if r.n_quanta == n_quanta]
            assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))
        for row in rows:
            if row.eta_a == 1.0 and row.eta_b == 1.0:
                assert row.E == 0.0

    def test_rows_sorted_and_errors_flagged(self):
        rows = sweep([1], 0.0, axis([0.0, 0.9, 1.0]), "p")
        keys = [(r.n_quanta, r.eta_a, r.eta_b) for r in rows]
        assert keys == sorted(keys)
        flagged = [r for r in rows if r.error is not None]
        assert len(flagged) == 1 and flagged[0].error.startswith("DegenerateChannel: eta_a")
        assert flagged[0].E is None

    def test_continuity_in_eta(self):
        # E(eta) carries a square-root cusp at eta = 1 (E ~ C_N sqrt(1 - eta)),
        # so adjacent-step sizes scale with C_N (sqrt(1-eta_lo) - sqrt(1-eta_hi))
        # rather than any N-independent constant; check that cusp-aware bound
        # and monotonicity, which is what continuity of the curve amounts to
        grid = [round(0.9 + 0.01 * i, 2) for i in range(11)]
        rows = sweep([1, 2, 3], caption_phase, axis(grid), "p")
        for n_quanta in (1, 2, 3):
            curve = [(r.eta_a, r.E) for r in rows if r.n_quanta == n_quanta]
            scale = 1.5 * curve[0][1] / math.sqrt(1.0 - curve[0][0])
            for (eta_lo, e_lo), (eta_hi, e_hi) in zip(curve, curve[1:]):
                assert e_hi <= e_lo + 1e-9
                bound = scale * (math.sqrt(1.0 - eta_lo) - math.sqrt(1.0 - eta_hi))
                assert abs(e_hi - e_lo) < bound, (n_quanta, eta_hi)

    def test_asymmetry_direction(self):
        rows = sweep([2], math.pi / 2, product([0.90, 1.0], [0.90, 1.0]), "p")
        table = {(r.eta_a, r.eta_b): r.E for r in rows}
        assert table[(0.90, 1.0)] < table[(1.0, 0.90)]

    def test_grid_validation(self):
        # the CLI builds the grid of a sweep and refuses an axis under 2 points
        with pytest.raises(ValueError, match="grid needs at least 2 points per axis"):
            cli._grid_values(0.9, 0.9, 0.01)
        with pytest.raises(ValueError, match="grid needs at least 2 points per axis"):
            cli._grid_values(0.9, 0.8, 0.01, axes=2)


ROW_FIELDS = ("var_number", "var_quadrature_n", "commutator_modulus", "E", "violated")


def row_outcome(row):
    """A sweep row as comparable data: its error, or the hex of every value."""
    if row.error is not None:
        return row.error
    return tuple(v if isinstance(v, bool) else float(v).hex() for v in (getattr(row, f) for f in ROW_FIELDS))


def point_outcome(n_quanta, phi, eta_a, eta_b, which):
    """What ``steering_functional`` gives at one point, in ``row_outcome`` form."""
    try:
        report = steering_functional(n_quanta, phi, LossChannel(eta_a, eta_b), which)
    except NoonSteerError as exc:
        return f"{type(exc).__name__}: {exc}"
    return tuple(
        v if isinstance(v, bool) else float(v).hex() for v in (getattr(report, f) for f in ROW_FIELDS)
    )


etas_with_repeats = st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=5, max_size=8)


class TestBatchedSweep:
    @settings(max_examples=8, deadline=None)
    @given(
        n_quanta=st.integers(min_value=1, max_value=5),
        which=st.sampled_from(["p", "x", "P"]),
        axis_a=etas_with_repeats,
        axis_b=etas_with_repeats,
        data=st.data(),
    )
    def test_rows_equal_steering_functional_bit_for_bit(self, n_quanta, which, axis_a, axis_b, data):
        # at least 7 x 7 = 49 rows, so every slice spans two chunks
        eta_a = data.draw(st.permutations([*axis_a, 1.0, axis_a[0]]))
        eta_b = data.draw(st.permutations([*axis_b, 1.0, axis_b[-1]]))
        phi = caption_phase(n_quanta) if which.lower() == "p" else math.pi / 2
        rows = sweep([n_quanta], phi, product(eta_a, eta_b), which)
        assert len(rows) == len(eta_a) * len(eta_b) > steering.SWEEP_CHUNK
        for row in rows:
            assert row.which == which.lower()
            assert row_outcome(row) == point_outcome(n_quanta, phi, row.eta_a, row.eta_b, which)

    def test_upper_case_criterion_gives_the_lower_case_rows(self):
        rows = sweep([1], 0.0, axis([0.9, 0.95]), "P")
        assert rows == sweep([1], 0.0, axis([0.9, 0.95]), "p")
        assert [row.which for row in rows] == [steering_functional(1, 0.0, LOSSLESS, "P").which] * 2 == ["p"] * 2

    def test_mixed_errors_match_steering_functional(self, monkeypatch):
        # N = 2 at phi = 0 is nondiscriminating for P; N = 17 is past the
        # wavefunction order with or without loss; lossy N = 6 evaluates
        phases = {1: 0.0, 2: 0.0, 6: math.pi / 2, 17: 0.0}
        grid = [0.0, 0.6, 0.95, 1.0]
        rows = sweep(sorted(phases), phases.get, axis(grid), "p")
        got = {(r.n_quanta, r.eta_a): row_outcome(r) for r in rows}
        want = {(n, eta): point_outcome(n, phases[n], eta, eta, "p") for n in phases for eta in grid}
        assert got == want
        errors = {key: outcome.split(": ", 1) for key, outcome in want.items() if isinstance(outcome, str)}
        assert all(message for _, message in errors.values())
        assert errors[(2, 0.95)][0] == "NondiscriminatingPhase"
        assert errors[(1, 0.0)][0] == errors[(6, 0.0)][0] == errors[(17, 0.0)][0] == "DegenerateChannel"
        assert errors[(17, 0.6)][0] == errors[(17, 0.95)][0] == errors[(17, 1.0)][0] == "OutOfSupportedOrder"
        assert all((6, eta) not in errors for eta in (0.6, 0.95, 1.0)) and (1, 0.6) not in errors
        # a threshold solve raises the error of the first failing point of its scan,
        # as eval and a sweep row give it: the phase first, then eta_a eta_b = 0,
        # then the order
        default, full = steering.THRESHOLD_BRACKET, (0.0, 1.0)
        solves = {
            (1, 0.0): (full, {}),
            (6, 0.0): (default, {"fix_eta_a": 0.0}),
            (17, 0.0): (full, {}),
            (17, 0.6): (default, {}),
            (2, 0.0): (full, {}),
            (2, 0.95): (default, {}),
        }
        for (n, eta), (bracket, kwargs) in solves.items():
            monkeypatch.setattr(steering, "THRESHOLD_BRACKET", bracket)
            with pytest.raises(NoonSteerError) as failure:
                threshold_efficiency(n, phases[n], "p", **kwargs)
            assert f"{type(failure.value).__name__}: {failure.value}" == got[(n, eta)] == want[(n, eta)]

    def test_chunk_mixing_shared_and_distinct_eta_a_matches_bit_for_bit(self):
        # 3 x 12 points: the first chunk holds 12 + 12 + 8 rows of three eta_a
        # values, the second the last 4 rows of one
        eta_a = [0.97, 0.83, 0.91]
        eta_b = [round(0.8 + 0.017 * i, 3) for i in range(12)]
        rows = sweep([2], math.pi / 2, product(eta_a, eta_b), "p")
        assert len(rows) == 36 > steering.SWEEP_CHUNK
        for row in rows:
            assert row_outcome(row) == point_outcome(2, math.pi / 2, row.eta_a, row.eta_b, "p")

    @pytest.mark.parametrize("n_quanta,phi,which", [(2, math.pi / 2, "p"), (3, math.pi / 4, "x")])
    def test_fixed_eta_a_channel_set_matches_bit_for_bit(self, n_quanta, phi, which):
        # the channels of a fix_eta_a threshold round: every row shares eta_a
        channels = [LossChannel(0.97, eta) for eta in np.linspace(0.5, 1.0, 7)]
        reports = steering._reports(n_quanta, phi, channels, which)
        for channel, report in zip(channels, reports):
            assert report == steering_functional(n_quanta, phi, channel, which)

    @pytest.mark.parametrize(
        "n_quanta,phi,eta",
        [(3, 0.0, 1e-160), (5, 0.0, 1e-70), (3, math.pi / 2 - 1e-6, 1e-107)],
        ids=["damping-N3", "damping-N5", "phase-factor"],
    )
    def test_underflowing_modulus_is_a_degenerate_channel(self, n_quanta, phi, eta):
        # eta_a eta_b > 0, but (eta_a eta_b)^(N/2), or that times a phase factor
        # near its zero, takes the modulus below the smallest float
        with pytest.raises(DegenerateChannel, match="modulus underflows"):
            steering_functional(n_quanta, phi, LossChannel(eta, eta), "p")
        rows = sweep([n_quanta], phi, axis([eta, 0.5, 0.9]), "p")
        assert rows[0].error.startswith("DegenerateChannel: the commutator modulus underflows")
        want = [point_outcome(n_quanta, phi, e, e, "p") for e in (0.5, 0.9)]
        assert [row_outcome(r) for r in rows[1:]] == want

    def test_lossy_order_is_refused_before_any_quadrature(self, monkeypatch):
        # lossy or not, an order past the wavefunction range runs no integral
        monkeypatch.setattr(inferred, "integrate", lambda *args: pytest.fail("ran a quadrature"))
        for channel in (LossChannel(0.9, 0.9), LOSSLESS):
            with pytest.raises(OutOfSupportedOrder):
                steering_functional(17, 0.0, channel, "p")

    def test_negative_moment_propagates_like_steering_functional(self, monkeypatch):
        bad = LossChannel(0.9, 0.9)
        real = steering.inferred_number_variance
        monkeypatch.setattr(
            steering, "inferred_number_variance",
            lambda n, channel: -1.0 if channel == bad else real(n, channel),
        )
        with pytest.raises(ValueError, match="var_number must be nonnegative"):
            steering_functional(1, 0.0, bad, "p")
        with pytest.raises(ValueError, match="var_number must be nonnegative"):
            sweep([1], 0.0, axis([0.8, 0.9, 1.0]), "p")

    def test_stalled_chunk_flags_only_its_stalled_row(self, monkeypatch):
        grid = [round(0.8 + 0.005 * i, 3) for i in range(41)]
        want = {eta: point_outcome(1, 0.0, eta, eta, "p") for eta in grid}
        stalled = LossChannel(grid[35], grid[35])  # in the second chunk
        real = inferred._moment_numerators
        calls = []

        def stalling(n_quanta, phi, channels, which, order):
            numerators, ladder_b = real(n_quanta, phi, channels, which, order)
            hit = [i for i, channel in enumerate(channels) if channel == stalled]
            if order == n_quanta:  # the kernel that is integrated; order 2N gives an exact integral
                calls.append(len(channels))

            def perturbed(x):
                values, px = numerators(x)
                values[hit] += np.sin(1e5 * x * x)
                return values, px

            return perturbed, ladder_b

        monkeypatch.setattr(inferred, "_moment_numerators", stalling)
        rows = sweep([1], 0.0, axis(grid), "p")
        # one call per chunk, then the failed chunk again one row at a time
        assert calls == [32, 9] + [1] * 9
        flagged = [(r.eta_a, *r.error.split(": ", 1)) for r in rows if r.error]
        assert [(eta, name) for eta, name, _ in flagged] == [(stalled.eta_a, "ConvergenceFailure")]
        with pytest.raises(ConvergenceFailure) as single:
            steering_functional(1, 0.0, stalled, "p")
        assert flagged[0][2] == str(single.value)
        assert re.match(rf"refinement stalled at \d+ panels \(cap {quadrature.MAX_PANELS}\) with", str(single.value))
        assert all(row_outcome(r) == want[r.eta_a] for r in rows if r.error is None)


def explicit_combination(n_quanta, which, dim):
    """The homodyne combinations written out in X, P, X_pi/4 and P_pi/4."""
    x = operator_matrix("x", dim).matrix
    p = operator_matrix("p", dim).matrix
    x_pi4 = (x + p) / math.sqrt(2.0)
    p_pi4 = (p - x) / math.sqrt(2.0)
    if n_quanta == 1:
        return x if which == "p" else p
    if n_quanta == 2:
        return 2.0 * (x_pi4 @ x_pi4) - x @ x - p @ p
    cube = lambda m: m @ m @ m
    if which == "p":
        return math.sqrt(2.0) * (cube(x_pi4) - cube(p_pi4)) - cube(x)
    return math.sqrt(2.0) * (cube(x_pi4) + cube(p_pi4)) - cube(p)


class TestProtocolCombination:
    @pytest.mark.parametrize("which", ["p", "x"])
    @pytest.mark.parametrize("n_quanta", [1, 2, 3])
    def test_matches_explicit_quadrature_form(self, n_quanta, which):
        # the explicit products are exact only away from their cutoff
        dim = n_quanta + 1
        np.testing.assert_allclose(
            protocol_combination(n_quanta, which, dim),
            explicit_combination(n_quanta, which, 2 * dim)[:dim, :dim],
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda phi: protocol_rhs(1, phi, LOSSLESS),
        lambda phi: inferred_commutator_modulus(1, phi, LOSSLESS),
        lambda phi: conditional_quadrature_moment(1, phi, LOSSLESS, 1, 0.3),
    ],
    ids=["protocol_rhs", "inferred_commutator_modulus", "conditional_quadrature_moment"],
)
def test_non_finite_phase_is_refused(evaluate, phi):
    with pytest.raises(ValueError, match="phase must be finite"):
        evaluate(phi)


class TestProtocolRhs:
    @pytest.mark.parametrize("n_quanta", [1, 2, 3])
    def test_equivalence_with_commutator(self, n_quanta):
        phi = caption_phase(n_quanta)
        rhs = protocol_rhs(n_quanta, phi, LOSSLESS, "p")
        modulus = inferred_commutator_modulus(n_quanta, phi, LOSSLESS, "p")
        assert abs(rhs - modulus / 2.0) < 1e-6

    def test_reference_values(self):
        assert protocol_rhs(1, 0.0, LOSSLESS, "p") == pytest.approx(0.39894, abs=1e-5)
        assert protocol_rhs(2, math.pi / 2, LOSSLESS, "p") == pytest.approx(0.968, abs=1e-3)
        assert protocol_rhs(3, 0.0, LOSSLESS, "p") == pytest.approx(2.265, abs=0.01)

    def test_x_form_equivalence(self):
        for n_quanta in (1, 2, 3):
            rhs = protocol_rhs(n_quanta, math.pi / 2, LOSSLESS, "x")
            modulus = inferred_commutator_modulus(n_quanta, math.pi / 2, LOSSLESS, "x")
            assert abs(rhs - modulus / 2.0) < 1e-6

    def test_lossy_equivalence(self):
        channel = LossChannel(0.85, 0.92)
        rhs = protocol_rhs(2, math.pi / 2, channel, "p")
        modulus = inferred_commutator_modulus(2, math.pi / 2, channel, "p")
        assert abs(rhs - modulus / 2.0) < 1e-6

    def test_unsupported_order(self):
        for n_quanta in (0, 4):
            with pytest.raises(UnsupportedOrder):
                protocol_rhs(n_quanta, math.pi / 2, LOSSLESS, "p")

    @pytest.mark.parametrize("n_quanta,which", sorted(HOMODYNE_COMBINATIONS))
    def test_combination_diagonal_vanishes(self, n_quanta, which):
        # the precondition of the closed form: only the psi_0 psi_N term is left
        diagonal = protocol_combination(n_quanta, which, n_quanta + 1).diagonal()
        assert np.max(np.abs(diagonal)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        n_quanta=st.integers(min_value=1, max_value=3),
        which=st.sampled_from(["p", "x"]),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        eta_a=st.floats(min_value=0.5, max_value=1.0),
        eta_b=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_matches_full_numerator_quadrature(self, n_quanta, which, phi, eta_a, eta_b):
        # 2 P(x) <M_b>_x with every term of the combination M, diagonal included
        assume(commutator_phase_factor(n_quanta, phi, which) > 0.05)
        combo = protocol_combination(n_quanta, which, n_quanta + 1)
        ladder_a = binomial_ladder(n_quanta, eta_a)[None, :]
        ladder_b = binomial_ladder(n_quanta, eta_b)
        diag_b = sum(ladder_b[k] * combo[k, k].real for k in range(n_quanta + 1))
        damping = math.sqrt(eta_a * eta_b) ** n_quanta
        cross = 2.0 * damping * (cmath.exp(-1j * phi) * combo[n_quanta, 0]).real

        def signed(x):
            branch_a, psi0_sq, psi0_psin, _ = _branch_profiles(n_quanta, ladder_a, x)
            return branch_a[0] * combo[0, 0].real + psi0_sq * diag_b + cross * psi0_psin

        rhs = protocol_rhs(n_quanta, phi, LossChannel(eta_a, eta_b), which)
        assert rhs == pytest.approx(0.25 * integrate_abs(signed), rel=1e-12)


class TestCoherenceInequality:
    def test_lossless_violates(self):
        report = coherence_inequality(2, math.pi / 2, LOSSLESS)
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(0.937, abs=1e-3)
        assert report.violated

    def test_mild_loss_violates(self):
        assert coherence_inequality(2, math.pi / 2, LossChannel(0.99, 0.99)).violated

    def test_heavy_loss_does_not(self):
        assert not coherence_inequality(2, math.pi / 2, LossChannel(0.5, 0.5)).violated

    @settings(max_examples=15, deadline=None)
    @given(ea=mid_etas, eb=mid_etas)
    def test_hill_probabilities_sum_to_one(self, ea, eb):
        report = coherence_inequality(2, math.pi / 2, LossChannel(ea, eb))
        assert report.p_hill_nonzero + report.p_hill_zero == pytest.approx(1.0, abs=1e-12)
        assert report.hill2_var >= 0.0

    def test_nondiscriminating_phase_and_degenerate_channel_raise_as_in_eval(self):
        # the errors of ``steering_functional``, not a verdict on a zero denominator
        with pytest.raises(NondiscriminatingPhase):
            coherence_inequality(1, math.pi / 2, LOSSLESS, "p")
        with pytest.raises(DegenerateChannel):
            coherence_inequality(2, math.pi / 2, LossChannel(0.0, 1.0), "p")

    @pytest.mark.parametrize("n_quanta", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("which", ["p", "x"])
    def test_matches_the_pooled_two_hill_product_bit_for_bit(self, n_quanta, which):
        # the n_a > 0 hill, pooled over m = 1..N, adds exactly 0 to the product
        phi = caption_phase(n_quanta) if which == "p" else math.pi / 2
        values = np.arange(n_quanta + 1, dtype=float)

        def spread(dist):
            mean = float(np.dot(dist, values))
            return float(np.dot(dist, (values - mean) ** 2))

        for channel in (LOSSLESS, LossChannel(0.95, 0.9), LossChannel(0.6, 1.0), LossChannel(1.0, 0.3)):
            marginal = number_marginal_a(n_quanta, channel)
            p_nonzero = float(marginal[1:].sum())
            pooled = sum(marginal[m] * conditional_number_b(n_quanta, channel, m) for m in range(1, n_quanta + 1))
            hills = p_nonzero * spread(pooled / p_nonzero) + marginal[0] * spread(
                conditional_number_b(n_quanta, channel, 0)
            )
            lhs = hills * inferred.inferred_variance_quadrature(n_quanta, phi, channel, which)
            rhs = inferred_commutator_modulus(n_quanta, phi, channel, which) ** 2 / 4.0
            report = coherence_inequality(n_quanta, phi, channel, which)
            assert (report.lhs, report.rhs, report.violated) == (lhs, rhs, lhs < rhs)

    def test_steering_violation_implies_coherence_violation(self):
        # on the loss-model family the conditional distributions are uniform
        # over n_a > 0, so the weaker two-hill inequality must follow
        for eta in np.linspace(0.9, 1.0, 6):
            channel = LossChannel(float(eta), float(eta))
            steering = steering_functional(2, math.pi / 2, channel, "p")
            coherence = coherence_inequality(2, math.pi / 2, channel, "p")
            if steering.violated:
                assert coherence.violated


class TestSeparableNoViolation:
    def _check_state(self, rho: TwoModeDensity):
        x_mat = operator_matrix("x", rho.dim).matrix
        var_n = density_number_variance(rho)
        var_p = density_quadrature_variance(rho, math.pi / 2, 1)
        modulus = density_abs_conditional_mean(rho, x_mat)
        assert math.sqrt(max(var_n, 0.0) * max(var_p, 0.0)) >= modulus / 2.0 - 1e-9

    def test_coherent_product(self):
        vec_a = coherent_vector(0.6 + 0.4j, 12)
        vec_b = coherent_vector(-0.3 + 0.8j, 12)
        self._check_state(TwoModeDensity(dim=12, matrix=product_density(vec_a, vec_b)))

    def test_fock_product(self):
        rho = TwoModeDensity(dim=12, matrix=product_density(fock_vector(1, 12), fock_vector(2, 12)))
        self._check_state(rho)

    def test_mixture(self):
        mix = 0.5 * product_density(coherent_vector(0.9, 12), coherent_vector(0.2 + 0.5j, 12))
        mix += 0.5 * product_density(coherent_vector(-0.4j, 12), fock_vector(1, 12))
        self._check_state(TwoModeDensity(dim=12, matrix=mix))
