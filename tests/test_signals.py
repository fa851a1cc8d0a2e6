import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotolock.errors import PreconditionError
from rotolock.modulation import ModulationFit, eval_modulation
from rotolock.sim import NoiseSpec, SimConfig, measured_signal, run_simulation
from rotolock.signals import (
    _BLOCK_SAMPLES,
    _PHASE_BLOCK,
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    downsample_at_phase,
    fit_harmonics,
    frozen,
    integer_ratio,
    moving_integral,
    read_csv,
    synth,
    write_csv,
)

F_M = 2500.0
DT = 2e-6
SPP = 200  # samples per modulation period on the default grid


def default_grid(n_periods=1, t0=0.0):
    return TimeGrid(dt=DT, n=n_periods * SPP, t0=t0)


def stock_modulation_series():
    fit = ModulationFit()
    return HarmonicSeries(
        f_fund=F_M,
        dc=fit.offset,
        cos_coeffs=fit.amplitudes * np.cos(fit.phase),
        sin_coeffs=-fit.amplitudes * np.sin(fit.phase),
    )


class TestTimeGrid:
    def test_times_are_derived_not_stored(self):
        grid = TimeGrid(dt=0.5, n=4, t0=1.0)
        assert np.allclose(grid.times(), [1.0, 1.5, 2.0, 2.5])

    @pytest.mark.parametrize("dt,n", [(0.0, 5), (-1.0, 5), (1.0, 0)])
    def test_invalid_grid_rejected(self, dt, n):
        with pytest.raises(PreconditionError):
            TimeGrid(dt=dt, n=n)

    def test_signal_length_must_match(self):
        with pytest.raises(PreconditionError):
            SampledSignal(TimeGrid(dt=1.0, n=3), np.zeros(4))

    def test_signal_values_must_be_finite(self):
        with pytest.raises(PreconditionError):
            SampledSignal(TimeGrid(dt=1.0, n=2), np.array([0.0, np.nan]))


class TestSignalValues:
    def test_caller_array_is_copied(self):
        values = np.arange(4.0)
        signal = SampledSignal(TimeGrid(dt=1.0, n=4), values)
        values[0] = 99.0
        assert list(signal.values) == [0.0, 1.0, 2.0, 3.0]

    def test_read_only_view_of_a_caller_array_is_copied(self):
        values = np.arange(4.0)
        view = values[:]
        view.flags.writeable = False
        signal = SampledSignal(TimeGrid(dt=1.0, n=4), view)
        values[0] = 99.0
        assert list(signal.values) == [0.0, 1.0, 2.0, 3.0]

    def test_values_are_read_only(self):
        signal = SampledSignal(TimeGrid(dt=1.0, n=4), np.arange(4.0))
        assert not signal.values.flags.writeable
        with pytest.raises(ValueError):
            signal.values[0] = 1.0

    def test_frozen_fresh_array_is_taken_without_copy(self):
        values = frozen(np.arange(4.0))
        assert SampledSignal(TimeGrid(dt=1.0, n=4), values).values is values

    def test_frozen_array_is_still_checked(self):
        with pytest.raises(PreconditionError, match="finite"):
            SampledSignal(TimeGrid(dt=1.0, n=2), frozen(np.array([0.0, np.inf])))
        with pytest.raises(PreconditionError, match="length"):
            SampledSignal(TimeGrid(dt=1.0, n=3), frozen(np.zeros(2)))


class TestSynth:
    def test_dc_only_is_constant(self):
        series = HarmonicSeries(f_fund=100.0, dc=1.0, cos_coeffs=[0.0], sin_coeffs=[0.0])
        out = synth(series, default_grid())
        assert np.all(out.values == 1.0)

    def test_cosine_zeros_at_quarter_period(self):
        series = HarmonicSeries(f_fund=F_M, dc=0.0, cos_coeffs=[1.0], sin_coeffs=[0.0])
        out = synth(series, default_grid())
        assert out.values[0] == pytest.approx(1.0, abs=1e-15)
        # quarter period of 2500 Hz is 1e-4 s = sample 50
        assert abs(out.values[50]) < 1e-12

    def test_stock_waveform_peaks_at_one_near_phase_zero(self):
        # independent oracle: term-by-term sum at alpha = 0
        fit = ModulationFit()
        expected_peak = fit.offset + sum(
            a * math.cos(fit.phase) for a in fit.amplitudes
        )
        out = synth(stock_modulation_series(), default_grid())
        assert np.max(out.values) == pytest.approx(expected_peak, abs=1e-6)
        assert np.max(out.values) == pytest.approx(1.0, abs=1e-3)
        assert np.argmax(out.values) == 0

    def test_periodicity_of_series_evaluation(self):
        series = stock_modulation_series()
        g0 = default_grid()
        g1 = TimeGrid(dt=DT, n=SPP, t0=1.0 / F_M)
        assert np.allclose(synth(series, g0).values, synth(series, g1).values, atol=1e-12)

    @staticmethod
    def direct(series, phase):
        """Term-by-term sum at phases f_fund*t, given in cycles."""
        out = np.full(len(phase), series.dc)
        for j, (c, s) in enumerate(zip(series.cos_coeffs, series.sin_coeffs), start=1):
            out += c * np.cos(2.0 * np.pi * j * phase) + s * np.sin(2.0 * np.pi * j * phase)
        return out

    def test_long_grid_matches_exact_phase_oracle(self):
        # 1000 periods from an offset start: the phase of sample k is
        # f*t0 + (k mod spp)/spp, with no large t to lose bits in
        series = stock_modulation_series()
        t0 = 0.37 / F_M
        grid = default_grid(n_periods=1000, t0=t0)
        k = np.arange(grid.n)
        oracle = self.direct(series, F_M * t0 + (k % SPP) / SPP)
        assert np.max(np.abs(synth(series, grid).values - oracle)) <= 1e-14

    def test_partial_last_period_matches_exact_phase_oracle(self):
        series = stock_modulation_series()
        grid = default_grid(n_periods=3, t0=0.37 / F_M)
        grid = TimeGrid(dt=DT, n=grid.n + 17, t0=grid.t0)
        k = np.arange(grid.n)
        oracle = self.direct(series, 0.37 + (k % SPP) / SPP)
        assert np.max(np.abs(synth(series, grid).values - oracle)) <= 1e-14

    def test_grid_shorter_than_one_period_matches_direct_formula(self):
        series = stock_modulation_series()
        grid = TimeGrid(dt=DT, n=SPP // 3, t0=2.5e-5)
        expected = self.direct(series, F_M * grid.times())
        assert np.allclose(synth(series, grid).values, expected, rtol=0.0, atol=1e-15)

    def test_non_integer_samples_per_period_matches_direct_formula(self):
        series = stock_modulation_series()
        grid = TimeGrid(dt=1.0 / (F_M * 200.5), n=5 * SPP, t0=1e-5)
        expected = self.direct(series, F_M * grid.times())
        assert np.allclose(synth(series, grid).values, expected, rtol=0.0, atol=1e-13)

    def test_integer_ratio_tolerance_edge(self):
        # relative tolerance 1e-9: 200 +/- 1e-7 is 200, 200 +/- 3e-7 is not
        assert integer_ratio(200.0 + 1e-7) == 200
        assert integer_ratio(200.0 - 1e-7) == 200
        assert integer_ratio(200.0 + 3e-7) is None
        assert integer_ratio(200.0 - 3e-7) is None
        assert integer_ratio(0.4) is None
        assert integer_ratio(math.inf) is None and integer_ratio(math.nan) is None


class TestFitHarmonics:
    def test_round_trip_recovers_coefficients(self):
        series = stock_modulation_series()
        signal = synth(series, default_grid(n_periods=3))
        fitted, resid = fit_harmonics(signal, F_M, l=7)
        assert np.allclose(fitted.cos_coeffs, series.cos_coeffs, atol=1e-9)
        assert np.allclose(fitted.sin_coeffs, series.sin_coeffs, atol=1e-9)
        assert fitted.dc == pytest.approx(series.dc, abs=1e-9)
        assert resid < 1e-9

    def test_constant_signal_fits_to_dc(self):
        grid = default_grid()
        signal = SampledSignal(grid, np.full(grid.n, 3.25))
        fitted, _ = fit_harmonics(signal, F_M, l=5)
        assert fitted.dc == pytest.approx(3.25, abs=1e-12)
        assert np.max(np.abs(fitted.cos_coeffs)) < 1e-9
        assert np.max(np.abs(fitted.sin_coeffs)) < 1e-9

    def test_angle_domain_waveform_refits_to_its_own_coefficients(self):
        # one period of the modulated waveform sampled via the angle-domain law
        fit = ModulationFit()
        grid = default_grid()
        alpha = 2.0 * np.pi * F_M * grid.times()
        signal = SampledSignal(grid, eval_modulation(fit, alpha))
        fitted, resid = fit_harmonics(signal, F_M, l=7)
        phase_hat = math.atan2(-fitted.sin_coeffs[0], fitted.cos_coeffs[0])
        amps_hat = fitted.cos_coeffs / math.cos(phase_hat)
        assert np.allclose(amps_hat, fit.amplitudes, atol=1e-9)
        assert phase_hat == pytest.approx(fit.phase, abs=1e-9)
        assert fitted.dc == pytest.approx(fit.offset, abs=1e-9)
        assert resid < 1e-9

    def test_span_shorter_than_one_period_rejected(self):
        grid = TimeGrid(dt=DT, n=SPP // 2)
        signal = SampledSignal(grid, np.zeros(grid.n))
        with pytest.raises(PreconditionError, match="lengthen"):
            fit_harmonics(signal, F_M, l=3)

    def test_too_few_samples_per_period_rejected(self):
        grid = TimeGrid(dt=1e-4, n=100)  # 4 samples per 2500 Hz period
        signal = SampledSignal(grid, np.zeros(grid.n))
        with pytest.raises(PreconditionError):
            fit_harmonics(signal, F_M, l=7)

    @settings(deadline=None, max_examples=25)
    @given(
        dc=st.floats(-2, 2),
        coeffs=st.lists(st.floats(-1, 1), min_size=2, max_size=10),
    )
    def test_synth_then_fit_is_identity_on_bandlimited_signals(self, dc, coeffs):
        l = len(coeffs) // 2
        series = HarmonicSeries(
            f_fund=F_M, dc=dc, cos_coeffs=coeffs[:l], sin_coeffs=coeffs[l : 2 * l]
        )
        signal = synth(series, default_grid(n_periods=2))
        fitted, _ = fit_harmonics(signal, F_M, l=l)
        assert np.allclose(fitted.cos_coeffs, series.cos_coeffs, atol=1e-9)
        assert np.allclose(fitted.sin_coeffs, series.sin_coeffs, atol=1e-9)
        assert fitted.dc == pytest.approx(series.dc, abs=1e-9)


def trapezoid_window_sum(y, j, w):
    """Exact (fsum) trapezoid sum of y over the samples [max(0, j - w), j]."""
    lo = max(0, j - w)
    if j == lo:
        return 0.0
    return math.fsum(y[lo + 1 : j].tolist() + [0.5 * y[lo], 0.5 * y[j]])


def near_chunk_starts(n, w):
    """Outputs within 2w of where `window_sums` starts a chunk of periods or
    its pass over a partial last period.  When w is long, only those within
    _PHASE_BLOCK of such a start and every (w // 8)th of the others, so that
    the O(w) oracle per output stays cheap."""
    size = max(1, _BLOCK_SAMPLES // w) * w
    whole = n - n % w
    stride = max(1, w // 8) if w > _BLOCK_SAMPLES // 8 else 1
    picked = set()
    for start in list(range(w, whole, size)) + [whole]:
        lo, hi = max(0, start - 2 * w), min(n, start + 2 * w)
        picked.update(range(lo, hi, stride))
        picked.update(range(max(lo, start - _PHASE_BLOCK), min(hi, start + _PHASE_BLOCK)))
    return sorted(picked | {n - 1})


class TestMovingIntegral:
    WINDOW = 4e-4  # one modulation period

    @pytest.mark.parametrize(
        "n, w, t0, every",
        [
            (5 * SPP + 37, SPP, 0.0, True),  # the window does not divide n
            (6 * SPP, SPP, 1.3e-4, True),
            (5 * SPP + 37, 64, -3.1e-4, True),
            (500, 1, 2e-3, True),
            (500, 499, 0.0, True),
            # three chunks of periods and a partial last period
            (2 * _BLOCK_SAMPLES + 5 * SPP + 37, SPP, -3.1e-4, False),
            # one period per chunk, and w not a multiple of _PHASE_BLOCK
            (3 * (_BLOCK_SAMPLES + 3) + 11, _BLOCK_SAMPLES + 3, 2e-3, False),
        ],
    )
    def test_matches_exact_trapezoid_sums(self, n, w, t0, every):
        grid = TimeGrid(dt=DT, n=n, t0=t0)
        t = grid.times()
        v = 2.0 + np.sin(2.0 * np.pi * 50.0 * t) + 40.0 * t
        v += np.random.default_rng(5).normal(scale=0.3, size=n)
        out = moving_integral(SampledSignal(grid, v), w * DT)
        assert out.warmup == w
        # against the sum of |v| it rounds: every output, the warm-up
        # included, or on long signals those around the kernel's chunk starts
        outputs = range(n) if every else near_chunk_starts(n, w)
        expected = np.array([trapezoid_window_sum(v, j, w) * DT for j in outputs])
        scale = np.array([trapezoid_window_sum(np.abs(v), j, w) * DT for j in outputs])
        assert np.all(np.abs(out.signal.values[outputs] - expected) <= 1e-14 * scale)

    def test_rounding_does_not_grow_with_run_length(self):
        # a large mean over a long run: one running sum over the whole signal,
        # subtracted, loses bits as the run grows; per-period sums do not
        grid = TimeGrid(dt=DT, n=1_500_000)
        v = 1e3 + np.sin(2.0 * np.pi * 50.0 * grid.times())
        out = moving_integral(SampledSignal(grid, v), SPP * DT).signal.values
        for j in np.linspace(SPP, grid.n - 1, 40).astype(int):
            expected = trapezoid_window_sum(v, j, SPP) * DT
            assert abs(out[j] - expected) < 1e-14 * abs(expected)

    def test_memory_does_not_grow_with_the_window(self):
        # the output, per-phase arrays, the warm-up and one slab of block
        # weights take ~35 B per sample at w = n / 2; the weights of every
        # phase at once would add ~390 B per sample
        grid = TimeGrid(dt=DT, n=200_000)
        signal = SampledSignal(grid, np.random.default_rng(2).normal(size=grid.n))
        tracemalloc.start()
        try:
            moving_integral(signal, 100_000 * DT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / grid.n < 48.0

    def test_constant_integrates_to_window(self):
        grid = default_grid(n_periods=5)
        out = moving_integral(SampledSignal(grid, np.ones(grid.n)), self.WINDOW)
        assert out.warmup == SPP
        assert np.allclose(out.signal.values[SPP:], self.WINDOW, rtol=1e-12)

    def test_sine_over_full_period_vanishes(self):
        grid = default_grid(n_periods=5)
        v = np.sin(2.0 * np.pi * F_M * grid.times())
        out = moving_integral(SampledSignal(grid, v), self.WINDOW)
        assert np.max(np.abs(out.signal.values[out.warmup:])) < 1e-9

    def test_ramp_matches_antiderivative(self):
        # oracle: integral of u over [t - w, t] is w*t - w^2/2
        grid = default_grid(n_periods=5)
        t = grid.times()
        out = moving_integral(SampledSignal(grid, t), self.WINDOW)
        expected = self.WINDOW * t[out.warmup:] - self.WINDOW**2 / 2.0
        assert np.allclose(out.signal.values[out.warmup:], expected, atol=1e-15)

    def test_warmup_region_holds_partial_integrals_not_zeros(self):
        grid = default_grid(n_periods=2)
        out = moving_integral(SampledSignal(grid, np.ones(grid.n)), self.WINDOW)
        # partial integral from t0: grows linearly, not zero-filled
        assert out.signal.values[1] == pytest.approx(DT, rel=1e-12)
        assert out.signal.values[SPP - 1] == pytest.approx((SPP - 1) * DT, rel=1e-12)

    def test_non_integer_window_rejected(self):
        grid = default_grid()
        with pytest.raises(PreconditionError, match="integer multiple"):
            moving_integral(SampledSignal(grid, np.ones(grid.n)), 2.5 * DT)

    def test_overflow_is_one_precondition_error(self):
        # reported by the finiteness check alone: a NumPy warning before it
        # fails this test, since the suite turns RuntimeWarning into an error
        grid = TimeGrid(dt=1.0, n=1000)
        with pytest.raises(PreconditionError, match="finite"):
            moving_integral(SampledSignal(grid, np.full(grid.n, 1.7e308)), 200.0)

    @settings(deadline=None, max_examples=20)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, a, b, seed):
        grid = default_grid(n_periods=2)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=grid.n)
        y = rng.normal(size=grid.n)
        lhs = moving_integral(SampledSignal(grid, a * x + b * y), self.WINDOW)
        rx = moving_integral(SampledSignal(grid, x), self.WINDOW)
        ry = moving_integral(SampledSignal(grid, y), self.WINDOW)
        rhs = a * rx.signal.values + b * ry.signal.values
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs.signal.values - rhs)) < 1e-12 * scale


class TestDownsampleAtPhase:
    def test_retains_every_200th_sample_on_default_grid(self):
        grid = default_grid(n_periods=10)
        signal = SampledSignal(grid, np.arange(grid.n, dtype=float))
        out = downsample_at_phase(signal, F_M, phase=0.0)
        assert np.array_equal(out.values, np.arange(0, grid.n, SPP, dtype=float))
        assert out.grid.dt == pytest.approx(1.0 / F_M)

    def test_sample_count_is_duration_times_rate(self):
        # 0.03 s at 2500 Hz -> 75 retained samples
        grid = TimeGrid(dt=DT, n=15000, t0=0.0)
        signal = SampledSignal(grid, np.zeros(grid.n))
        out = downsample_at_phase(signal, F_M, phase=0.0)
        assert out.grid.n == 75

    @pytest.mark.parametrize("phase,expected", [(0.0, 1.0), (np.pi, -1.0)])
    def test_phase_selects_cosine_extremes(self, phase, expected):
        grid = default_grid(n_periods=6)
        v = np.cos(2.0 * np.pi * F_M * grid.times())
        out = downsample_at_phase(SampledSignal(grid, v), F_M, phase=phase)
        assert np.allclose(out.values, expected, atol=1e-9)

    def test_downsampled_harmonic_mix_is_constant(self):
        series = stock_modulation_series()
        out = downsample_at_phase(synth(series, default_grid(10)), F_M, phase=1.234)
        assert np.max(out.values) - np.min(out.values) < 1e-9

    def test_non_integer_rate_ratio_rejected(self):
        grid = TimeGrid(dt=3e-6, n=1000)
        with pytest.raises(PreconditionError, match="integer multiple"):
            downsample_at_phase(SampledSignal(grid, np.zeros(grid.n)), F_M, 0.0)


class TestOrthogonality:
    def test_discrete_harmonic_inner_products(self):
        # rectangle-rule inner products over one period: (T/2) on the
        # diagonal, zero off it and between sines and cosines
        grid = default_grid()
        t = grid.times()
        period = 1.0 / F_M
        for j in range(1, 8):
            for k in range(1, 8):
                cj = np.cos(2 * np.pi * j * F_M * t)
                ck = np.cos(2 * np.pi * k * F_M * t)
                sj = np.sin(2 * np.pi * j * F_M * t)
                sk = np.sin(2 * np.pi * k * F_M * t)
                expected = (period / 2.0) if j == k else 0.0
                assert np.dot(cj, ck) * DT == pytest.approx(expected, abs=1e-9)
                assert np.dot(sj, sk) * DT == pytest.approx(expected, abs=1e-9)
                assert abs(np.dot(sj, ck) * DT) < 1e-9


class TestCsv:
    def test_round_trip(self, tmp_path):
        signal = synth(stock_modulation_series(), default_grid())
        path = tmp_path / "wave.csv"
        write_csv(signal, path)
        back = read_csv(path)
        assert back.grid.n == signal.grid.n
        assert np.allclose(back.values, signal.values, rtol=0, atol=0)
        assert np.allclose(back.times(), signal.times(), atol=1e-18)

    def test_header_and_precision(self, tmp_path):
        grid = TimeGrid(dt=1.0, n=2)
        write_csv(SampledSignal(grid, [1.0 / 3.0, 2.0]), tmp_path / "x.csv")
        lines = (tmp_path / "x.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1].split(",")[1] == "0.33333333333333331"


def write_csv_per_row(signal, path):
    """The writer before chunking, one f-string and one write per row: the
    byte reference for write_csv."""
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(signal.times(), signal.values):
            fh.write(f"{t:.17g},{v:.17g}\n")


def assert_same_bytes(signal, tmp_path):
    write_csv(signal, tmp_path / "chunked.csv")
    write_csv_per_row(signal, tmp_path / "per_row.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


class TestCsvBytes:
    # 256 rows is one chunk: cover a short tail, an exact fit and one row over
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 15_000])
    def test_row_counts_around_the_chunk(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        assert_same_bytes(SampledSignal(TimeGrid(dt=DT, n=n), values), tmp_path)

    def test_offset_grid_with_non_round_step(self, tmp_path):
        grid = TimeGrid(dt=1.0 / 3e5 * math.pi, n=1000, t0=0.37 / F_M)
        values = np.sin(np.arange(grid.n) / 7.0)
        assert_same_bytes(SampledSignal(grid, values), tmp_path)

    def test_extreme_and_signed_values(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0,
                  2.2250738585072014e-308, 1.7976931348623157e308, 123456789.0, 0.1]
        grid = TimeGrid(dt=0.1, n=len(values), t0=-0.3)
        assert_same_bytes(SampledSignal(grid, values), tmp_path)

    def test_every_stack_of_the_default_seed_7_run(self, tmp_path):
        cfg = SimConfig(noise=NoiseSpec(seed=7))
        res = run_simulation(cfg)
        for stack in (measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples)), res.noise,
                      res.modulated, res.modulated_noisy, res.restored_full,
                      res.restored_downsampled):
            assert_same_bytes(stack, tmp_path)

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        n = 200_000
        signal = SampledSignal(TimeGrid(dt=DT, n=n), np.random.default_rng(0).standard_normal(n))
        tracemalloc.start()
        try:
            write_csv(signal, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's times, lists and text, not the 1.6 MB time column
        assert peak < 256 * 1024
