import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import rotolock.reference
from rotolock.errors import ConfigError, PreconditionError
from rotolock.reference import (
    EmissionFit,
    SpotGeometry,
    TrapezoidFit,
    emission_intensity,
    fit_trapezoid_cosine,
    reference_waveform,
    synth_demod_reference,
    transmitted_fraction,
)
from rotolock.signals import SampledSignal, TimeGrid

from oracles import transmitted_fraction_mc


class TestEmission:
    def test_peak_intensity_on_axis(self):
        em = EmissionFit()
        assert emission_intensity(em, 0.0) == pytest.approx(4.113 + 4.227)
        assert emission_intensity(em, 0.0) == pytest.approx(8.340, abs=1e-12)

    def test_cosine_zero_leaves_offset(self):
        em = EmissionFit()
        beta = (math.pi / 2.0) / em.k
        assert beta == pytest.approx(0.3475, abs=1e-4)
        assert emission_intensity(em, beta) == pytest.approx(em.c, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.05, 0.17, 0.31])
    def test_even_in_angle(self, beta):
        em = EmissionFit()
        assert emission_intensity(em, beta) == emission_intensity(em, -beta)

    def test_out_of_lobe_warns(self):
        em = EmissionFit()
        with pytest.warns(UserWarning, match="extrapolating"):
            emission_intensity(em, 1.2 * math.pi / em.k)

    def test_k_is_stored_per_radian(self):
        assert EmissionFit().k == pytest.approx(0.0789 * 180.0 / math.pi)


class TestGeometry:
    def test_default_theta_max(self):
        g = SpotGeometry()
        assert g.theta_max == pytest.approx(math.asin(0.5 / 6.0))
        assert math.degrees(g.theta_max) == pytest.approx(4.78, abs=0.01)

    def test_spot_must_sit_outside_center(self):
        with pytest.raises(PreconditionError):
            SpotGeometry(r0=7.0, R0=6.0)

    def test_large_spot_regime_rejected(self):
        # blade cannot fully cover a spot wider than its sector
        g = SpotGeometry(r0=2.0, R0=6.0, theta_gnd=math.radians(30.0))
        with pytest.raises(ConfigError, match="never block"):
            transmitted_fraction(g, 0.0)


def segment_oracle(g: SpotGeometry, a: float, n: int = 96) -> float:
    """Emission-weighted share of the spot beyond a chord at distance a from
    its center, by tensor Gauss-Legendre over the Cartesian segment.

    x = r0*cos(beta) runs across the chord, y = r0*sin(beta)*t along it, so
    the segment is a rectangle in (beta, t); the weight depends on rho^2,
    which keeps the integrand smooth.  beta_max = pi covers the whole disc.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    em = g.emission

    def weighted_area(beta_max):
        beta = 0.5 * beta_max * (nodes + 1.0)
        b, t = np.meshgrid(beta, nodes, indexing="ij")
        rho = g.r0 * np.sqrt(np.cos(b) ** 2 + (np.sin(b) * t) ** 2)
        w = em.A * np.cos(em.k * np.arctan(rho / g.d)) + em.c
        return 0.5 * beta_max * weights @ (w * np.sin(b) ** 2) @ weights

    return float(weighted_area(math.acos(a / g.r0)) / weighted_area(math.pi))


def radial_oracle(g: SpotGeometry, a: float) -> float:
    """Emission-weighted share of the spot beyond a chord at distance a from
    its center, by adaptive quadrature of the blocked arc over the radius.

    The arc 2*acos(a/rho) has a square-root edge at rho = a, so the
    breakpoints sit just past it.
    """
    em = g.emission

    def weighted(rho):
        return (em.A * math.cos(em.k * math.atan(rho / g.d)) + em.c) * rho

    tol = dict(epsabs=1e-12, epsrel=1e-12, limit=500)
    span = g.r0 - a
    points = [a + f * span for f in (1e-6, 1e-3)] if span > 0.0 else None
    minor, _ = quad(lambda rho: weighted(rho) * math.acos(a / rho), a, g.r0, points=points, **tol)
    disc, _ = quad(weighted, 0.0, g.r0, **tol)
    return minor / (math.pi * disc)


class TestTransmittedFraction:
    def test_far_blade_passes_everything(self):
        g = SpotGeometry()
        assert transmitted_fraction(g, -math.pi / 2.0) == 1.0
        assert transmitted_fraction(g, -3.0) == 1.0

    def test_blocked_band_passes_nothing(self):
        g = SpotGeometry()
        assert transmitted_fraction(g, math.radians(10.0)) == 0.0
        assert transmitted_fraction(g, math.radians(20.0)) == 0.0

    def test_edge_through_center_splits_evenly(self):
        # emission weight is radially symmetric, so a diameter cut gives 1/2
        assert transmitted_fraction(SpotGeometry(), 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_bounded_and_continuous_across_boundaries(self):
        g = SpotGeometry()
        eps = 1e-7
        boundaries = [-g.theta_max, 0.0, g.theta_max,
                      g.theta_gnd - g.theta_max, g.theta_gnd + g.theta_max]
        for b in boundaries:
            lo = transmitted_fraction(g, b - eps)
            hi = transmitted_fraction(g, b + eps)
            assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
            assert abs(hi - lo) < 1e-4  # continuous up to the sweep rate * eps

    def test_quadrature_agrees_with_monte_carlo(self):
        g = SpotGeometry()
        rng = np.random.default_rng(7)
        thetas = rng.uniform(-g.theta_max, g.theta_max, size=4)
        for i, th in enumerate(thetas):
            q = transmitted_fraction(g, th)
            mc, se = transmitted_fraction_mc(g, th, n_samples=200_000, seed=100 + i)
            assert abs(q - mc) < 3.0 * se

    def test_trailing_edge_transition_is_partial(self):
        g = SpotGeometry()
        th = g.theta_gnd  # trailing edge bisects the spot
        assert transmitted_fraction(g, th) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:emission angle")
    @pytest.mark.parametrize("r0_over_d", [0.05, 0.25, 0.56, 1.2])
    @pytest.mark.parametrize("edge", ["leading", "trailing"])
    @pytest.mark.parametrize("h_over_r0", [-(1.0 - 1e-9), -0.6, 0.0, 0.3, 1.0 - 1e-9])
    def test_matches_cartesian_segment_oracle(self, r0_over_d, edge, h_over_r0):
        g = SpotGeometry(d=0.5 / r0_over_d)
        h = h_over_r0 * g.r0  # signed: positive when the blade covers the center
        lead = math.asin(h / g.R0)
        theta = lead if edge == "leading" else g.theta_gnd - lead
        expected = segment_oracle(g, abs(h))
        expected = expected if h >= 0.0 else 1.0 - expected
        assert abs(transmitted_fraction(g, theta) - expected) <= 1e-10

    @pytest.mark.filterwarnings("ignore:emission angle")
    @pytest.mark.parametrize("r0_over_d", [0.25, 5.0, 25.0])
    @pytest.mark.parametrize("a_over_r0", [0.0, 1e-8, 1e-4, 1e-3, 3e-3, 0.3, 0.95, 1.0 - 1e-9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_radial_quadrature_oracle(self, r0_over_d, a_over_r0, sign):
        g = SpotGeometry(d=0.5 / r0_over_d)
        theta = math.asin(sign * a_over_r0 * g.r0 / g.R0)
        a = abs(g.R0 * math.sin(theta))  # the chord distance the code sees
        expected = radial_oracle(g, a)
        expected = expected if sign > 0.0 else 1.0 - expected
        assert abs(transmitted_fraction(g, theta) - expected) <= 1e-10

    def test_unconverged_rule_is_refused(self, monkeypatch):
        g = SpotGeometry()
        monkeypatch.setattr(rotolock.reference, "_MAX_NODES", 16)
        with pytest.raises(PreconditionError, match="did not converge"):
            transmitted_fraction(g, 0.3 * g.theta_max)
        # in an array with plateau angles, the message names the geometry
        theta = np.array([-3.0, 0.3 * g.theta_max, g.theta_gnd / 2.0])
        with pytest.raises(PreconditionError, match=r"r0/d = 0\.25, \|h\|/r0 = 0\.3\b"):
            transmitted_fraction(g, theta)
        # the plateaus need no rule
        assert transmitted_fraction(g, -3.0) == 1.0
        assert transmitted_fraction(g, g.theta_gnd / 2.0) == 0.0

    def test_tiny_spot_is_scale_free(self):
        # pi times the disc integral underflows at r0 = 1e-300 in millimetres
        g = SpotGeometry(r0=1e-300)
        assert transmitted_fraction(g, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_default_geometry_stays_inside_the_fitted_lobe(self):
        grid = TimeGrid(dt=1.0 / (F_ROT * 200), n=200, t0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference_waveform(SpotGeometry(), grid, F_ROT)

    def test_spot_past_the_fitted_lobe_warns(self):
        g = SpotGeometry(r0=0.5, d=0.5)
        with pytest.warns(UserWarning, match="extrapolating"):
            transmitted_fraction(g, 0.0)


@pytest.mark.filterwarnings("ignore:emission angle")
class TestTrailingEdgePastPi:
    # theta_gnd + theta_max > pi: the trailing transition straddles theta = +-pi
    GEOM = dict(r0=5.0, R0=6.0, theta_gnd=2.5)

    @pytest.mark.parametrize("theta", [-3.0, -2.9])
    def test_agrees_with_monte_carlo(self, theta):
        g = SpotGeometry(**self.GEOM)
        q = transmitted_fraction(g, theta)
        mc, se = transmitted_fraction_mc(g, theta, n_samples=200_000, seed=11)
        assert abs(q - mc) < 3.0 * se

    def test_continuous_across_pi(self):
        g = SpotGeometry(**self.GEOM)
        eps = 1e-7
        below, above = transmitted_fraction(g, math.pi - eps), transmitted_fraction(g, -math.pi + eps)
        assert 0.0 < below < 1.0
        assert abs(above - below) < 1e-5  # the sweep rate is O(1) per radian


def edge_angles(g: SpotGeometry) -> np.ndarray:
    """Angles on both plateaus and both edges, the edges' ends exactly, the
    +-pi wrap and chords a hair inside the rim (a/r0 -> 1)."""
    t_max = g.theta_max
    near_rim = math.asin((1.0 - 1e-9) * g.r0 / g.R0)
    special = [
        -t_max, t_max, g.theta_gnd - t_max, g.theta_gnd + t_max,
        -near_rim, near_rim, g.theta_gnd - near_rim, g.theta_gnd + near_rim,
        -math.pi, math.pi, math.pi - 1e-7, -math.pi + 1e-7, 0.0, g.theta_gnd,
    ]
    sweep = np.linspace(-t_max, g.theta_gnd + t_max, 301)
    return np.concatenate([special, sweep, np.linspace(-math.pi, math.pi, 64)])


@pytest.mark.filterwarnings("ignore:emission angle")
class TestArrayRule:
    @pytest.mark.parametrize(
        "geom",
        [{}, {"d": 1e-6}, TestTrailingEdgePastPi.GEOM],
        ids=["default", "d-1e-6", "edge-past-pi"],
    )
    def test_array_call_matches_scalar_calls(self, geom):
        g = SpotGeometry(**geom)
        theta = edge_angles(g)
        got = transmitted_fraction(g, theta)
        want = np.array([transmitted_fraction(g, th) for th in theta])
        assert got.shape == theta.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(got == 0.0, want == 0.0) and np.any(got == 0.0)
        assert np.array_equal(got == 1.0, want == 1.0) and np.any(got == 1.0)
        assert np.any((got > 0.0) & (got < 1.0))

    def test_d_1e_6_needs_512_nodes(self, monkeypatch):
        # the node cap is reached only for the rule that needs it
        g = SpotGeometry(d=1e-6)
        theta = edge_angles(g)
        want = transmitted_fraction(g, theta)
        monkeypatch.setattr(rotolock.reference, "_MAX_NODES", 512)
        assert np.array_equal(transmitted_fraction(g, theta), want)
        monkeypatch.setattr(rotolock.reference, "_MAX_NODES", 256)
        with pytest.raises(PreconditionError, match="did not converge"):
            transmitted_fraction(g, theta)

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        g = SpotGeometry()
        theta = edge_angles(g)
        want = transmitted_fraction(g, theta)
        monkeypatch.setattr(rotolock.reference, "_ANGLE_BLOCK", 7)
        monkeypatch.setattr(rotolock.reference, "_RULE_FLOATS", 1)
        assert np.max(np.abs(transmitted_fraction(g, theta) - want)) <= 1e-15

    def test_shape_is_kept(self):
        g = SpotGeometry()
        theta = edge_angles(g)[:60].reshape(3, 4, 5)
        got = transmitted_fraction(g, theta)
        assert got.shape == (3, 4, 5)
        assert np.array_equal(got.ravel(), transmitted_fraction(g, theta.ravel()))
        assert transmitted_fraction(g, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("theta", [0.01, -3.0, np.float64(0.3), np.array(0.01)])
    def test_scalar_in_gives_float_out(self, theta):
        assert type(transmitted_fraction(SpotGeometry(), theta)) is float

    def test_lobe_warning_once_per_call_and_only_on_an_edge(self):
        g = SpotGeometry(r0=0.5, d=0.5)  # past the fitted lobe
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transmitted_fraction(g, edge_angles(g))
        assert len(caught) == 1 and "extrapolating" in str(caught[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plateaus = np.array([-3.0, -1.0, g.theta_gnd / 2.0, 2.0])
            assert set(transmitted_fraction(g, plateaus)) == {0.0, 1.0}

    @pytest.mark.parametrize("emission", [{"A": 0.0, "c": 0.0}, {"A": 0.0, "c": -1.0},
                                          {"A": 2.0, "c": -1.0}])
    def test_non_positive_weight_is_refused(self, emission):
        g = SpotGeometry(emission=EmissionFit(**emission))
        with pytest.raises(PreconditionError, match="must be positive"):
            transmitted_fraction(g, np.array([-3.0, 0.0]))
        assert transmitted_fraction(g, -3.0) == 1.0  # the plateaus need no weight


F_ROT = 2500.0
REF_SPP = 2000


@pytest.fixture(scope="module")
def one_period():
    grid = TimeGrid(dt=1.0 / (F_ROT * REF_SPP), n=REF_SPP, t0=0.0)
    return reference_waveform(SpotGeometry(), grid, F_ROT)


class TestReferenceWaveform:
    F_ROT = F_ROT
    SPP = REF_SPP

    def test_zero_plateau_duty(self, one_period):
        g = SpotGeometry()
        expected = (g.theta_gnd - 2.0 * g.theta_max) / (2.0 * math.pi)
        assert expected == pytest.approx(0.0568, abs=1e-4)
        duty = np.mean(one_period.values == 0.0)
        assert duty == pytest.approx(expected, abs=2.0 / self.SPP)

    def test_unit_plateau_is_exactly_one(self, one_period):
        g = SpotGeometry()
        theta = (2.0 * np.pi * self.F_ROT * one_period.times() + np.pi) % (2 * np.pi) - np.pi
        far = (theta < -g.theta_max - 1e-3) | (theta > g.theta_gnd + g.theta_max + 1e-3)
        assert np.all(one_period.values[far] == 1.0)

    def test_transitions_monotone(self, one_period):
        v = one_period.values
        interior = (v > 0.0) & (v < 1.0)
        # first run: falling edge; second run: rising edge
        runs = []
        start = None
        for i, flag in enumerate(interior):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                runs.append(slice(start - 1, i + 1))
                start = None
        assert len(runs) == 2
        assert np.all(np.diff(v[runs[0]]) <= 1e-12)
        assert np.all(np.diff(v[runs[1]]) >= -1e-12)

    def test_matches_the_benchmark_snapshot(self, one_period):
        # one period at the default geometry, as `rotolock refsignal` writes it
        path = Path(__file__).resolve().parents[1] / "perfbench" / "refsignal_seed.txt"
        seed = np.loadtxt(path)
        v = one_period.values
        assert np.max(np.abs(v - seed)) <= 1e-10
        assert np.array_equal(v == 0.0, seed == 0.0) and np.any(v == 0.0)
        assert np.array_equal(v == 1.0, seed == 1.0) and np.any(v == 1.0)

    @pytest.mark.parametrize("spp", [REF_SPP, 10 * REF_SPP])
    def test_peak_memory_is_a_few_outputs(self, spp):
        # the rule works in fixed blocks: its temporaries do not grow with the input
        grid = TimeGrid(dt=1.0 / (self.F_ROT * spp), n=spp, t0=0.0)
        reference_waveform(SpotGeometry(), grid, self.F_ROT)  # node tables cached
        tracemalloc.start()
        try:
            wave = reference_waveform(SpotGeometry(), grid, self.F_ROT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * wave.values.nbytes

    def test_periodic_across_revolutions(self):
        g = SpotGeometry()
        grid = TimeGrid(dt=1.0 / (self.F_ROT * 40), n=80, t0=0.0)
        two = reference_waveform(g, grid, self.F_ROT)
        assert np.array_equal(two.values[:40], two.values[40:])


class TestFitTrapezoidCosine:
    F_ROT = 2500.0

    @pytest.mark.parametrize(
        "truth, rising",
        [
            (TrapezoidFit(B=0.5, u=18.8, phi=2.2, c2=0.5), False),
            (TrapezoidFit(B=0.5, u=18.8, phi=-2.2, c2=0.5), True),
            (TrapezoidFit(B=0.5, u=18.8, phi=0.1, c2=0.5), False),  # starts at a peak
            (TrapezoidFit(B=-0.5, u=-18.8, phi=2.2, c2=0.5), False),
            (TrapezoidFit(B=-0.5, u=-18.8, phi=-2.2, c2=0.5), True),
        ],
        ids=["falling", "rising", "falling-from-peak", "negative-falling", "negative-rising"],
    )
    def test_round_trip_recovers_parameters(self, truth, rising):
        grid = TimeGrid(dt=1.0 / (self.F_ROT * 2000), n=400, t0=0.0)
        theta = 2.0 * np.pi * self.F_ROT * grid.times()
        signal = SampledSignal(grid, truth(theta))
        v = signal.values[rotolock.reference._first_transition(signal.values)]
        assert (v[-1] > v[0]) == rising
        got, resid = fit_trapezoid_cosine(signal, self.F_ROT)
        want = truth.canonical()
        assert got == got.canonical()
        assert got.B == pytest.approx(want.B, abs=1e-6)
        assert got.u == pytest.approx(want.u, abs=1e-6)
        assert got.phi == pytest.approx(want.phi, abs=1e-6)
        assert got.c2 == pytest.approx(want.c2, abs=1e-6)
        assert resid < 1e-9

    def test_default_transition_fits_within_two_percent(self):
        grid = TimeGrid(dt=1.0 / (self.F_ROT * 2000), n=2000, t0=0.0)
        wave = reference_waveform(SpotGeometry(), grid, self.F_ROT)
        _, resid = fit_trapezoid_cosine(wave, self.F_ROT)
        assert resid < 0.02  # plateau height is 1

    def test_fit_is_canonical_and_stable_under_one_ulp(self, one_period):
        # one ulp on the transition must not flip the reported branch
        v = one_period.values
        inside = (v > 0.0) & (v < 1.0)
        nudged = SampledSignal(one_period.grid, np.where(inside, np.nextafter(v, 2.0), v))
        fits = [fit_trapezoid_cosine(s, self.F_ROT)[0] for s in (one_period, nudged)]
        for fit in fits:
            assert fit.B >= 0.0 and fit.u > 0.0 and 0.0 <= fit.phi < 2.0 * math.pi
        for name in ("B", "u", "phi", "c2"):
            assert getattr(fits[1], name) == pytest.approx(getattr(fits[0], name), abs=1e-6)

    def test_measured_fit_width_is_same_order_as_sweep_angle(self):
        # a transition fit measured on the stock optical switch: its cosine
        # half-period should be on the scale of the geometric sweep 2*theta_max
        measured = TrapezoidFit(B=2.653, u=-4.8316, phi=4.4065, c2=4.1773)
        width = math.pi / abs(measured.u)
        sweep = 2.0 * SpotGeometry().theta_max
        assert 0.1 < width / sweep < 10.0

    def test_failed_fit_is_precondition_error(self, one_period, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(scipy.optimize, "curve_fit", no_convergence)
        with pytest.raises(PreconditionError, match="did not converge"):
            fit_trapezoid_cosine(one_period, self.F_ROT)

    def test_constant_signal_has_no_transition(self):
        grid = TimeGrid(dt=1e-5, n=100)
        with pytest.raises(PreconditionError, match="no transition"):
            fit_trapezoid_cosine(SampledSignal(grid, np.ones(100)), self.F_ROT)

    def test_canonical_form_is_equivalent(self):
        fit = TrapezoidFit(B=-1.5, u=-3.0, phi=0.7, c2=0.2)
        can = fit.canonical()
        assert can.B >= 0 and can.u >= 0 and 0 <= can.phi < 2 * math.pi
        theta = np.linspace(-2, 2, 101)
        assert np.allclose(fit(theta), can(theta), atol=1e-12)


def first_transition_by_scan(values, min_run=5):
    """The first run of at least min_run samples strictly inside the plateau
    bands (2% of range off either extreme), by a sample-by-sample scan; None
    when there is none."""
    lo, hi = min(values), max(values)
    inside = [lo + 0.02 * (hi - lo) < v < hi - 0.02 * (hi - lo) for v in values]
    start = None
    for i, flag in enumerate(inside + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_run:
                return slice(start, i)
            start = None
    return None


class TestFirstTransition:
    @given(st.lists(st.sampled_from([0.0, 0.01, 0.3, 0.7, 0.99, 1.0]), min_size=1, max_size=40))
    def test_matches_a_scan(self, values):
        expected = first_transition_by_scan(values)
        if min(values) == max(values):
            message = "signal is constant"
        elif first_transition_by_scan(values, min_run=1) is None:
            message = "no intermediate samples"
        elif expected is None:
            message = "intermediate runs too short"
        else:
            assert rotolock.reference._first_transition(np.array(values)) == expected
            return
        with pytest.raises(PreconditionError, match=f"no transition found: {message}$"):
            rotolock.reference._first_transition(np.array(values))


class TestSynthDemodReference:
    def test_sine_at_zero_phase(self):
        ref = synth_demod_reference(4e-4, "sine", l=3, phase=0.0)
        assert ref.dc == 0.0
        assert ref.f_fund == pytest.approx(2500.0)
        assert np.allclose(ref.cos_coeffs, [1.0, 0.0, 0.0])
        assert np.allclose(ref.sin_coeffs, [0.0, 0.0, 0.0])

    def test_square_at_zero_phase(self):
        # oracle: unit square-wave harmonic amplitudes 4/(pi*j), odd j only
        ref = synth_demod_reference(4e-4, "square", l=7, phase=0.0)
        expected = [4 / math.pi, 0, 4 / (3 * math.pi), 0, 4 / (5 * math.pi), 0, 4 / (7 * math.pi)]
        assert np.allclose(ref.cos_coeffs, expected, atol=1e-15)
        assert np.allclose(ref.sin_coeffs, 0.0)

    @pytest.mark.parametrize("kind", ["sine", "square"])
    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 6.0, math.pi])
    def test_dc_always_zero(self, kind, phase):
        assert synth_demod_reference(1e-3, kind, l=5, phase=phase).dc == 0.0

    def test_phase_delay_rotates_each_harmonic(self):
        phase = math.pi / 6.0
        ref = synth_demod_reference(4e-4, "square", l=3, phase=phase)
        a1, a3 = 4 / math.pi, 4 / (3 * math.pi)
        assert ref.cos_coeffs[0] == pytest.approx(a1 * math.cos(phase))
        assert ref.sin_coeffs[0] == pytest.approx(a1 * math.sin(phase))
        assert ref.cos_coeffs[2] == pytest.approx(a3 * math.cos(3 * phase))
        assert ref.sin_coeffs[2] == pytest.approx(a3 * math.sin(3 * phase))

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionError, match="kind"):
            synth_demod_reference(1e-3, "triangle", l=3, phase=0.0)
