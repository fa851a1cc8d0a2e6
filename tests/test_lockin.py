import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from rotolock.errors import PreconditionError
import rotolock.lockin
from rotolock.lockin import (
    GAIN_FLOOR,
    channel_gain,
    demodulate,
    harmonic_outputs,
    modulate,
    slope_compensate,
)
from rotolock.modulation import ModulationFit, modulation_series
from rotolock.reference import synth_demod_reference
from rotolock.signals import (
    _BLOCK_SAMPLES,
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    downsample_at_phase,
    synth,
)

from oracles import trapezoid_window_sum

F_M = 2500.0
T_M = 1.0 / F_M
DT = 2e-6
SPP = 200


def grid_for(n_periods):
    return TimeGrid(dt=DT, n=n_periods * SPP, t0=0.0)


def unit_cosine_series():
    return HarmonicSeries(F_M, 0.0, [1.0], [0.0])


def stock_modulation_series():
    return modulation_series(ModulationFit(), F_M)


def square_ref(phase=0.0, l=7):
    return synth_demod_reference(F_M, "square", l, phase)


def modulated_signal(s_values, m_series, grid):
    return modulate(SampledSignal(grid, s_values), m_series)


class TestModulate:
    def test_unit_signal_returns_modulation(self):
        grid = grid_for(1)
        m = stock_modulation_series()
        out = modulate(SampledSignal(grid, np.ones(grid.n)), m)
        assert np.array_equal(out.values, synth(m, grid).values)

    def test_zero_modulation_kills_signal(self):
        grid = grid_for(1)
        s = SampledSignal(grid, np.sin(2 * np.pi * 50.0 * grid.times()))
        out = modulate(s, HarmonicSeries(F_M, 0.0, [0.0], [0.0]))
        assert np.all(out.values == 0.0)

    def test_matches_elementwise_product_oracle(self):
        grid = grid_for(25)
        s = np.sin(2 * np.pi * 50.0 * grid.times())
        m = stock_modulation_series()
        out = modulate(SampledSignal(grid, s), m)
        assert np.max(np.abs(out.values - s * synth(m, grid).values)) < 1e-15

    @pytest.mark.parametrize(
        "n, dt, t0",
        [
            (25 * SPP, DT, 0.0),  # whole periods
            (25 * SPP + 37, DT, 1.3e-4),  # a partial last period
            (SPP - 3, DT, -2e-4),  # shorter than one period
            (4001, 3e-6, 5e-5),  # a period of 133.33 samples
        ],
    )
    def test_same_bits_as_the_product_with_synth(self, n, dt, t0):
        grid = TimeGrid(dt, n, t0)
        s = SampledSignal(grid, np.random.default_rng(3).normal(size=n))
        m = stock_modulation_series()
        out = modulate(s, m)
        assert out.values.tobytes() == (s.values * synth(m, grid).values).tobytes()


class TestChannelGain:
    def test_cosine_only_reference_has_zero_odd_gain(self):
        m = HarmonicSeries(F_M, 0.4, [0.3, -0.2], [0.1, 0.25])
        r = HarmonicSeries(F_M, 0.3, [0.5, 0.2], [0.0, 0.0])
        assert channel_gain(m, r, "odd") == (0.0, 0.0)
        assert channel_gain(m, r, "even")[0] == pytest.approx(0.3 * 0.5 - 0.2 * 0.2)

    def test_channels_split_the_whole_overlap(self):
        # even + odd = the full coefficient overlap; the reference's DC is ignored
        m = HarmonicSeries(F_M, 0.4, [0.3, -0.2, 0.1], [0.1, 0.25, -0.05])
        r = HarmonicSeries(F_M, 1.7, [0.4, -0.1, 0.05], [0.2, 0.3, -0.6])
        total = np.dot(m.cos_coeffs, r.cos_coeffs) + np.dot(m.sin_coeffs, r.sin_coeffs)
        g_even, _ = channel_gain(m, r, "even")
        g_odd, _ = channel_gain(m, r, "odd")
        assert g_even + g_odd == pytest.approx(total, abs=1e-15)
        no_dc = HarmonicSeries(F_M, 0.0, r.cos_coeffs, r.sin_coeffs)
        for c in ("even", "odd"):
            assert channel_gain(m, no_dc, c) == channel_gain(m, r, c)

    def test_share_is_the_fraction_of_the_cauchy_schwarz_bound(self):
        m = HarmonicSeries(F_M, 5.0, [0.3, -0.2], [0.0, 0.0])
        assert channel_gain(m, m, "even") == pytest.approx((0.13, 1.0))
        r = HarmonicSeries(F_M, 0.0, [0.6, -0.4], [0.3, 0.1])
        g, share = channel_gain(m, r, "even")
        norm_r = math.sqrt(0.6**2 + 0.4**2 + 0.3**2 + 0.1**2)
        assert share == pytest.approx(abs(g) / (math.hypot(0.3, 0.2) * norm_r), rel=1e-15)
        # the share does not depend on the scale of either series
        big = HarmonicSeries(F_M, 0.0, 1e4 * r.cos_coeffs, 1e4 * r.sin_coeffs)
        assert channel_gain(m, big, "even")[1] == pytest.approx(share, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [1e200, 1e-300])
    def test_share_holds_at_extreme_amplitudes(self, factor):
        # |m|*|r| overflows or underflows unless each series is scaled first
        m, r = stock_modulation_series(), square_ref(phase=0.4)
        scaled = HarmonicSeries(F_M, 0.0, factor * m.cos_coeffs, factor * m.sin_coeffs)
        for c in ("even", "odd"):
            g, share = channel_gain(m, r, c)
            g_big, share_big = channel_gain(scaled, r, c)
            assert share_big == pytest.approx(share, abs=1e-12)
            assert g_big == pytest.approx(factor * g, rel=1e-14)

    def test_unit_fundamentals_give_unit_gain(self):
        m = unit_cosine_series()
        assert channel_gain(m, unit_cosine_series(), "even") == pytest.approx((1.0, 1.0))

    def test_stock_modulation_against_sine_reference(self):
        ref = synth_demod_reference(F_M, "sine", 7, 0.0)
        g, _ = channel_gain(stock_modulation_series(), ref, "even")
        assert g == pytest.approx(0.366, abs=1e-6)

    def test_stock_modulation_against_square_reference(self):
        # independent term-by-term oracle over the odd harmonics
        fit = ModulationFit()
        expected = sum(
            fit.amplitudes[j - 1] * math.cos(fit.phase) * 4.0 / (math.pi * j)
            for j in (1, 3, 5, 7)
        )
        g, _ = channel_gain(stock_modulation_series(), square_ref(), "even")
        assert g == pytest.approx(expected, abs=1e-12)
        assert g == pytest.approx(0.480, abs=5e-4)

    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 6.0])
    def test_gain_matches_one_period_overlap(self, phase):
        # g = (2/T) * integral over one period of m times the channel's part
        m = stock_modulation_series()
        ref = square_ref(phase=phase)
        grid = TimeGrid(dt=T_M / 1024, n=1024)
        zeros = np.zeros(7)
        parts = {
            "even": HarmonicSeries(F_M, 0.0, ref.cos_coeffs, zeros),
            "odd": HarmonicSeries(F_M, 0.0, zeros, ref.sin_coeffs),
        }
        for channel, part in parts.items():
            overlap = 2.0 * np.mean(synth(m, grid).values * synth(part, grid).values)
            assert channel_gain(m, ref, channel)[0] == pytest.approx(overlap, abs=1e-12)

    @pytest.mark.parametrize("f", [99.0, 1002.0, 1003.0, 1005.0])
    def test_reference_at_a_fundamental_whose_period_does_not_round_trip(self, f):
        # 1/(1/f) != f here, so a reference rebuilt from the period 1/f would
        # not share m's fundamental; the gain depends on the coefficients alone
        assert 1.0 / (1.0 / f) != f
        m = modulation_series(ModulationFit(), f)
        ref = synth_demod_reference(f, "square", 7, 0.4)
        for channel in ("even", "odd"):
            assert channel_gain(m, ref, channel) == channel_gain(
                stock_modulation_series(), square_ref(0.4), channel
            )

    def test_unknown_channel_rejected(self):
        with pytest.raises(PreconditionError, match="unknown channel"):
            channel_gain(unit_cosine_series(), unit_cosine_series(), "both")

    def test_fundamental_mismatch_rejected(self):
        r = HarmonicSeries(2.0 * F_M, 0.0, [1.0], [0.0])
        with pytest.raises(PreconditionError, match="fundamental"):
            channel_gain(unit_cosine_series(), r, "even")

    def test_unusable_reference_rejected(self):
        grid = grid_for(4)
        m = unit_cosine_series()
        ref = synth_demod_reference(F_M, "sine", 1, phase=math.pi / 2.0)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        with pytest.raises(PreconditionError, match="unusable"):
            demodulate(s_m, m, ref, "even")


class TestDemodulate:
    def test_unit_constant_with_unit_cosine_chain(self):
        grid = grid_for(10)
        m = unit_cosine_series()
        ref = HarmonicSeries(F_M, 0.0, [1.0], [0.0])
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        out = demodulate(s_m, m, ref, "even")
        assert np.max(np.abs(out.values[SPP:] - 1.0)) < 1e-9

    @pytest.mark.parametrize("c", [1.0, -3.7, 0.25])
    def test_constant_signal_with_stock_modulation_and_square_reference(self, c):
        grid = grid_for(8)
        m = stock_modulation_series()
        ref = square_ref()
        s_m = modulated_signal(np.full(grid.n, c), m, grid)
        out = demodulate(s_m, m, ref, "even")
        assert np.max(np.abs(out.values[SPP:] - c)) < 1e-6

    def test_output_grid_is_relabeled_to_window_centers(self):
        grid = grid_for(4)
        m = unit_cosine_series()
        ref = unit_cosine_series()
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        out = demodulate(s_m, m, ref, "even")
        assert out.grid.t0 == pytest.approx(grid.t0 - T_M / 2.0)
        assert out.grid.n == grid.n

    def test_slow_sine_tracked_within_one_percent(self):
        # 50 Hz signal through a unit-cosine chain; window-centered labels
        grid = grid_for(75)
        f_sig = 50.0
        m = unit_cosine_series()
        ref = unit_cosine_series()
        s = np.sin(2 * np.pi * f_sig * grid.times())
        s_m = modulated_signal(s, m, grid)
        out = demodulate(s_m, m, ref, "even")
        values = out.values[SPP:]
        target = np.sin(2 * np.pi * f_sig * out.times()[SPP:])
        rel_rms = np.sqrt(np.mean((values - target) ** 2)) / np.sqrt(np.mean(target**2))
        assert rel_rms < 0.01

    def test_against_continuous_integral_oracle(self):
        # direct quadrature of the analytic windowed integral at a few points
        grid = grid_for(60)
        f_sig = 50.0
        m = unit_cosine_series()
        ref = unit_cosine_series()
        s = np.sin(2 * np.pi * f_sig * grid.times())
        s_m = modulated_signal(s, m, grid)
        out = demodulate(s_m, m, ref, "even")

        def integrand(u):
            return math.sin(2 * np.pi * f_sig * u) * math.cos(2 * np.pi * F_M * u) ** 2

        for i in (SPP, 1000, 5000, 11999):
            t_end = grid.times()[i]
            expected, _ = quad(integrand, t_end - T_M, t_end, limit=200)
            expected *= 2.0 / T_M
            assert out.values[i] == pytest.approx(expected, abs=1e-5)

    def test_dc_offset_is_rejected(self):
        grid = grid_for(10)
        m = stock_modulation_series()
        ref = square_ref(phase=0.3)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        shifted = SampledSignal(grid, s_m.values + 123.4)
        a = demodulate(s_m, m, ref, "even")
        b = demodulate(shifted, m, ref, "even")
        assert np.max(np.abs(a.values[SPP:] - b.values[SPP:])) < 1e-9

    def test_linearity(self):
        grid = grid_for(10)
        m = stock_modulation_series()
        ref = square_ref()
        rng = np.random.default_rng(3)
        s1 = rng.normal(size=grid.n)
        s2 = rng.normal(size=grid.n)
        a, b = 2.5, -0.75
        mixed = modulated_signal(a * s1 + b * s2, m, grid)
        lhs = demodulate(mixed, m, ref, "even").values
        r1 = demodulate(modulated_signal(s1, m, grid), m, ref, "even").values
        r2 = demodulate(modulated_signal(s2, m, grid), m, ref, "even").values
        rhs = a * r1 + b * r2
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_invariant_under_modulation_scale(self):
        grid = grid_for(10)
        fit = ModulationFit()
        scaled_fit = ModulationFit(
            amplitudes=3.0 * fit.amplitudes, phase=fit.phase, offset=3.0 * fit.offset
        )
        ref = square_ref(phase=0.2)
        s = np.sin(2 * np.pi * 50.0 * grid.times())
        out = []
        for f in (fit, scaled_fit):
            m = modulation_series(f, F_M)
            s_m = modulated_signal(s, m, grid)
            out.append(demodulate(s_m, m, ref, "even").values)
        assert np.max(np.abs(out[0] - out[1])) < 1e-12

    def test_slow_noise_perturbation_matches_brute_force_oracle(self):
        # additive 10 Hz disturbance: the output perturbation equals the
        # windowed integral of noise*reference (linearity), and at the
        # phase-locked instants it stays well below 1% of the signal
        grid = grid_for(75)
        t = grid.times()
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s = np.sin(2 * np.pi * 50.0 * t)
        noise = 10.0 * np.sin(2 * np.pi * 10.0 * t)
        s_m = modulated_signal(s, m, grid)
        noisy = SampledSignal(grid, s_m.values + noise)
        clean_out = demodulate(s_m, m, ref, "even")
        noisy_out = demodulate(noisy, m, ref, "even")
        perturbation = noisy_out.values - clean_out.values

        # brute-force oracle: trapezoid windowed integral of noise * reference
        r_even = synth(HarmonicSeries(F_M, 0.0, ref.cos_coeffs, np.zeros(7)), grid).values
        prod = noise * r_even
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (prod[1:] + prod[:-1]))]) * DT
        oracle = np.empty(grid.n)
        oracle[:SPP] = cum[:SPP]
        oracle[SPP:] = cum[SPP:] - cum[:-SPP]
        oracle *= 2.0 / (T_M * channel_gain(m, ref, "even")[0])
        assert np.max(np.abs(perturbation - oracle)) < 1e-9

        # regression: leakage at the phase-locked samples (modulation phase 0
        # of the window-center labels) is far below 1% of unit amplitude
        centers = noisy_out.times()
        locked = np.flatnonzero(
            np.isclose((centers * F_M) % 1.0, 0.0, atol=1e-6)
            | np.isclose((centers * F_M) % 1.0, 1.0, atol=1e-6)
        )
        locked = locked[locked >= SPP]
        leak_rms = np.sqrt(np.mean(perturbation[locked] ** 2))
        assert leak_rms < 1e-3

    def test_even_and_odd_channels_agree_for_slow_signals(self):
        grid = grid_for(75)
        fit = ModulationFit(phase=0.8)  # both quadratures well populated
        m = modulation_series(fit, F_M)
        ref = square_ref(phase=0.6)
        assert all(channel_gain(m, ref, c)[1] > 0.3 for c in ("even", "odd"))
        s = np.sin(2 * np.pi * 2.0 * grid.times())
        s_m = modulated_signal(s, m, grid)
        even, odd = (demodulate(s_m, m, ref, c) for c in ("even", "odd"))
        even, odd = even.values[SPP:], odd.values[SPP:]
        assert np.sqrt(np.mean((even - odd) ** 2)) < 0.01

    def test_even_and_odd_channels_agree_exactly_for_constant_signals(self):
        grid = grid_for(10)
        fit = ModulationFit(phase=0.8)
        m = modulation_series(fit, F_M)
        ref = square_ref(phase=0.6)
        s_m = modulated_signal(np.full(grid.n, 1.3), m, grid)
        even, odd = (demodulate(s_m, m, ref, c) for c in ("even", "odd"))
        even, odd = even.values[SPP:], odd.values[SPP:]
        assert np.max(np.abs(even - odd)) < 1e-9

    def test_gain_floor_violation_rejected(self):
        grid = grid_for(4)
        m = stock_modulation_series()
        ref = square_ref()  # phase 0: the reference has no odd part
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        assert channel_gain(m, ref, "odd") == (0.0, 0.0)
        with pytest.raises(PreconditionError, match="floor"):
            demodulate(s_m, m, ref, "odd")

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_near_orthogonal_channel_rejected_at_any_scale(self, scale):
        # a quarter-turn delay leaves the odd channel a gain of ~1e-5, far
        # above any absolute floor once the modulation is scaled up, but
        # still ~2e-5 of its bound: its output would be noise
        grid = grid_for(4)
        m = modulation_series(ModulationFit(amplitudes=scale * ModulationFit().amplitudes), F_M)
        ref = square_ref(phase=np.pi / 2.0)
        g, share = channel_gain(m, ref, "odd")
        assert abs(g) > 1e-6 * scale and share < GAIN_FLOOR
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        for channel in ("even", "odd"):
            with pytest.raises(PreconditionError, match="unusable reference"):
                demodulate(s_m, m, ref, channel)
            with pytest.raises(PreconditionError, match="unusable reference"):
                slope_compensate(s_m, m, ref, channel)

    # a window of 133.3 samples, and one of 2.5 samples
    @pytest.mark.parametrize("dt", [3e-6, T_M / 2.5])
    def test_non_commensurate_grid_rejected(self, dt):
        grid = TimeGrid(dt=dt, n=1000)
        m = unit_cosine_series()
        ref = unit_cosine_series()
        s_m = SampledSignal(grid, np.ones(grid.n))
        with pytest.raises(PreconditionError, match="whole number of samples of dt"):
            demodulate(s_m, m, ref, "even")

    # one period exactly, and 133.3 samples per period
    @pytest.mark.parametrize("grid", [grid_for(1), TimeGrid(dt=3e-6, n=1000)])
    def test_lockin_and_downsampler_share_one_period_rule(self, grid):
        # the lock-in's window and warm-up and the down-sampler's stride are
        # one period of `whole_period`: each refuses the grid with that rule's one message
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        refusals = (
            lambda: demodulate(s_m, m, ref, "even"),
            lambda: slope_compensate(s_m, m, ref, "even"),
            lambda: harmonic_outputs(s_m, m, ref),
            lambda: downsample_at_phase(s_m, F_M, 0.0),
        )
        messages = set()
        for refuse in refusals:
            with pytest.raises(PreconditionError, match="whole number of samples") as err:
                refuse()
            messages.add(str(err.value))
        assert len(messages) == 1, messages


class TestSlopeCompensate:
    @pytest.mark.parametrize(
        "fit, ref_kind, delay, channel",
        [
            (ModulationFit(), "square", np.pi / 6.0, "even"),
            (ModulationFit(), "sine", 0.4, "even"),
            (ModulationFit(phase=0.7), "square", 1.2, "odd"),
        ],
    )
    def test_exact_for_linear_signal(self, fit, ref_kind, delay, channel):
        grid = TimeGrid(dt=DT, n=8 * SPP + 37, t0=1.3e-4)  # partial last period
        m = modulation_series(fit, F_M)
        ref = synth_demod_reference(F_M, ref_kind, 7, delay)
        s_m = modulated_signal(0.3 + 150.0 * grid.times(), m, grid)
        raw = demodulate(s_m, m, ref, channel)
        out = slope_compensate(s_m, m, ref, channel)
        target = 0.3 + 150.0 * out.times()[SPP:]
        assert np.max(np.abs(raw.values[SPP:] - target)) > 1e-3  # the slope term is there
        assert np.max(np.abs(out.values[SPP:] - target)) <= 1e-12

    def test_constant_plus_linear_disturbance_leaves_correction_unchanged(self):
        # the slope estimate ignores a disturbance that is constant or linear
        # within each window, so only the raw demodulated output moves
        grid = grid_for(12)
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s_m = modulated_signal(np.sin(2 * np.pi * 50.0 * grid.times()), m, grid)
        disturbed = SampledSignal(grid, s_m.values - 4.2 + 900.0 * grid.times())

        def correction(x):
            raw = demodulate(x, m, ref, "even")
            out = slope_compensate(x, m, ref, "even")
            return (out.values - raw.values)[SPP:]

        assert np.max(np.abs(correction(s_m))) > 1e-2
        # up to rounding of window sums of a disturbance of size ~4
        assert np.max(np.abs(correction(disturbed) - correction(s_m))) < 1e-11

    def test_step_changes_only_the_windows_that_contain_it(self):
        grid = grid_for(12)
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s_m = modulated_signal(np.sin(2 * np.pi * 50.0 * grid.times()), m, grid)
        i_step = 5 * SPP + 71
        step = np.where(np.arange(grid.n) >= i_step, 7.5, 0.0)
        disturbed = SampledSignal(grid, s_m.values + step)
        dev = np.abs(slope_compensate(disturbed, m, ref, "even").values
                     - slope_compensate(s_m, m, ref, "even").values)
        inside = np.zeros(grid.n, dtype=bool)
        inside[i_step : i_step + SPP] = True
        assert np.max(dev[~inside]) < 1e-10  # rounding of the 7.5 step
        assert np.min(dev[inside]) > 0.0

    def test_removes_the_modulation_frequency_ripple(self):
        grid = grid_for(75)
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s_m = modulated_signal(np.sin(2 * np.pi * 50.0 * grid.times()), m, grid)
        raw = demodulate(s_m, m, ref, "even")
        out = slope_compensate(s_m, m, ref, "even")
        target = np.sin(2 * np.pi * 50.0 * out.times()[SPP:])
        assert np.max(np.abs(raw.values[SPP:] - target)) > 0.05
        assert np.max(np.abs(out.values[SPP:] - target)) < 0.005

    def test_warmup_is_that_of_demodulate(self):
        grid = grid_for(4)
        m = stock_modulation_series()
        ref = square_ref(phase=0.3)
        s_m = modulated_signal(np.sin(2 * np.pi * 50.0 * grid.times()), m, grid)
        raw = demodulate(s_m, m, ref, "even")
        out = slope_compensate(s_m, m, ref, "even")
        assert out.grid == raw.grid
        assert np.array_equal(out.values[:SPP], raw.values[:SPP])

    def test_singular_slope_estimate_rejected(self):
        # two samples per period: a window of three samples cannot fit four unknowns
        grid = TimeGrid(dt=T_M / 2.0, n=20)
        m = unit_cosine_series()
        ref = unit_cosine_series()
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        with pytest.raises(PreconditionError, match="singular"):
            slope_compensate(s_m, m, ref, "even")


def channel_part(ref, channel):
    zeros = np.zeros(ref.n_harmonics)
    if channel == "even":
        return HarmonicSeries(ref.f_fund, 0.0, ref.cos_coeffs, zeros)
    return HarmonicSeries(ref.f_fund, 0.0, zeros, ref.sin_coeffs)


class TestLockinOracle:
    """demodulate and slope_compensate against independent computations:
    exact trapezoid sums of the product, and a least-squares fit per window."""

    CASES = [
        # fit, reference kind, delay, channel, samples, t0
        (ModulationFit(), "square", np.pi / 6.0, "even", 6 * SPP + 37, 1.3e-4),
        (ModulationFit(), "sine", 0.4, "even", 6 * SPP, 0.0),
        (ModulationFit(phase=0.7), "square", 1.2, "odd", 5 * SPP + 199, -3.1e-4),
        (ModulationFit(phase=0.8), "sine", 0.9, "odd", 7 * SPP + 1, 2e-3),
    ]

    @staticmethod
    def chain(fit, ref_kind, delay, n, t0):
        grid = TimeGrid(dt=DT, n=n, t0=t0)
        m = modulation_series(fit, F_M)
        ref = synth_demod_reference(F_M, ref_kind, 7, delay)
        t = grid.times()
        s = 0.3 + np.sin(2 * np.pi * 50.0 * t) + 40.0 * t
        noise = np.random.default_rng(11).normal(scale=0.05, size=n)
        s_m = SampledSignal(grid, modulated_signal(s, m, grid).values + noise)
        return grid, m, ref, s_m

    @pytest.mark.parametrize("fit, ref_kind, delay, channel, n, t0", CASES)
    def test_demodulate_is_the_moving_integral_of_the_product(
        self, fit, ref_kind, delay, channel, n, t0
    ):
        grid, m, ref, s_m = self.chain(fit, ref_kind, delay, n, t0)
        g = channel_gain(m, ref, channel)[0]
        part = synth(channel_part(ref, channel), grid).values
        product = s_m.values * part
        out = demodulate(s_m, m, ref, channel)
        # warm-up outputs included: there the window starts at the first sample
        for j in list(range(0, n, 7)) + [n - 1]:
            expected = trapezoid_window_sum(product, j, SPP) * DT * 2.0 / (T_M * g)
            assert abs(out.values[j] - expected) < 1e-12

    @pytest.mark.parametrize(
        "fit, ref_kind, delay, channel, n, t0",
        CASES
        # several chunks of periods in `window_sums`, and a partial last period
        + [(ModulationFit(phase=0.3), "square", 0.5, "even", 2 * _BLOCK_SAMPLES + 5 * SPP + 37, 0.0)],
    )
    def test_slope_compensate_removes_the_least_squares_slope(
        self, fit, ref_kind, delay, channel, n, t0
    ):
        grid, m, ref, s_m = self.chain(fit, ref_kind, delay, n, t0)
        g = channel_gain(m, ref, channel)[0]
        m_values = synth(m, grid).values
        part = synth(channel_part(ref, channel), grid).values
        raw = demodulate(s_m, m, ref, channel).values
        out = slope_compensate(s_m, m, ref, channel).values
        u = np.arange(SPP + 1) / SPP - 0.5
        if n < _BLOCK_SAMPLES:
            outputs = list(range(SPP, n, 7)) + [n - 1]
        else:
            # the windows ending within one period of a chunk start in
            # `window_sums` (those after it reach across it) or of the last
            # partial period
            size = _BLOCK_SAMPLES // SPP * SPP
            starts = list(range(SPP + size, n - n % SPP, size)) + [n - n % SPP]
            outputs = [j for s in starts for j in range(s - SPP, min(n, s + SPP + 1), 3)]
            outputs += [n - 1]
        for j in outputs:
            win = slice(j - SPP, j + 1)
            mw = m_values[win]
            design = np.column_stack([np.ones(SPP + 1), u, mw, u * mw])
            b = np.linalg.lstsq(design, s_m.values[win], rcond=None)[0][3]
            k = 2.0 / (SPP * g) * np.sum(u * mw * part[win])
            assert out[j] == pytest.approx(raw[j] - k * b, abs=1e-10)
        assert np.array_equal(out[:SPP], raw[:SPP])

    @pytest.mark.parametrize("n", [300_000, 300_010])
    def test_lock_in_stage_memory_per_sample(self, n):
        # past its input the one pass holds its output (8 B per sample) and
        # per-phase-block scratch; a full-length temporary, such as a padded
        # copy of the input for a partial last period, would break this
        cfg_grid = TimeGrid(dt=DT, n=n)
        m = stock_modulation_series()
        ref = square_ref(phase=np.pi / 6.0)
        s_m = modulated_signal(np.sin(2 * np.pi * 50.0 * cfg_grid.times()), m, cfg_grid)
        tracemalloc.start()
        try:
            slope_compensate(s_m, m, ref, "even")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / cfg_grid.n < 14.0


class TestHarmonicOutputs:
    def test_ratios_reproduce_modulation_amplitudes(self):
        grid = grid_for(20)
        fit = ModulationFit()
        m = modulation_series(fit, F_M)
        ref = square_ref()
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        outs = harmonic_outputs(s_m, m, ref)
        for i, h in enumerate(outs, start=1):
            ratio = h.X / outs[0].X
            expected = fit.amplitudes[i - 1] / fit.amplitudes[0]
            assert ratio == pytest.approx(expected, rel=0.01)

    def test_pure_cosine_modulation_has_zero_quadrature(self):
        grid = grid_for(10)
        fit = ModulationFit(phase=0.0)
        m = modulation_series(fit, F_M)
        ref = square_ref(phase=0.25)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        h = harmonic_outputs(s_m, m, ref)[1]
        assert h.Y == 0.0
        assert h.magnitude == pytest.approx(abs(h.X))

    def test_magnitude_invariant_under_reference_time_shift(self):
        grid = grid_for(20)
        m = stock_modulation_series()
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        mags = {}
        for phase in (0.0, 2.0 * np.pi / 12.0):  # shift by T_m/12
            ref = square_ref(phase=phase)
            mags[phase] = [h.magnitude for h in harmonic_outputs(s_m, m, ref)]
        a, b = np.array(list(mags.values()))
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-6

    def test_returns_one_row_per_harmonic(self):
        grid = grid_for(10)
        m = modulation_series(ModulationFit(phase=0.8), F_M)  # both channels usable
        s_m = modulated_signal(np.full(grid.n, 2.0), m, grid)
        rows = harmonic_outputs(s_m, m, square_ref(phase=0.4))
        assert [h.index for h in rows] == list(range(1, 8))
        for h, c, s in zip(rows, m.cos_coeffs, m.sin_coeffs):
            assert h.X == pytest.approx(2.0 * c, rel=1e-9)
            assert h.Y == pytest.approx(2.0 * s, rel=1e-9)
            assert h.magnitude == pytest.approx(math.hypot(h.X, h.Y), rel=1e-15)
            assert h.phase == pytest.approx(math.atan2(h.Y, h.X), abs=1e-15)

    @pytest.mark.parametrize("phase, calls", [(0.0, 1), (0.4, 2)])
    def test_one_demodulation_per_usable_channel(self, monkeypatch, phase, calls):
        # at phase 0 the square reference has no odd part, so its row Ys are 0
        grid = grid_for(4)
        m = modulation_series(ModulationFit(phase=0.8), F_M)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        seen = []

        def counted(*args):
            seen.append(args[3])
            return demodulate(*args)

        monkeypatch.setattr(rotolock.lockin, "demodulate", counted)
        rows = harmonic_outputs(s_m, m, square_ref(phase=phase))
        assert len(seen) == calls and len(rows) == 7
        if calls == 1:
            assert seen == ["even"] and all(h.Y == 0.0 for h in rows)

    def test_unusable_reference_rejected(self):
        grid = grid_for(4)
        m = unit_cosine_series()
        ref = synth_demod_reference(F_M, "sine", 1, phase=math.pi / 2.0)
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        with pytest.raises(PreconditionError, match="unusable"):
            harmonic_outputs(s_m, m, ref)

    def test_memory_per_sample(self):
        # past its input, one demodulated output (8 B per sample) and the
        # lock-in's scratch: the mean reads the valid part without a copy
        grid = TimeGrid(dt=DT, n=300_000)
        m = stock_modulation_series()
        s_m = modulated_signal(np.ones(grid.n), m, grid)
        tracemalloc.start()
        try:
            harmonic_outputs(s_m, m, square_ref())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / grid.n < 12.0
