import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotolock.errors import PreconditionError
from rotolock.modulation import ModulationFit
from rotolock.sim import NoiseSpec, SimConfig, measured_signal, run_simulation
from rotolock.signals import (
    _BLOCK_SAMPLES,
    _PHASE_BLOCK,
    _WEIGHT_FLOATS,
    HarmonicSeries,
    _CSV_READ,
    _Repeating,
    _joined,
    _ranges,
    _stream,
    SampledSignal,
    TimeGrid,
    downsample_at_phase,
    fit_harmonics,
    frozen,
    integer_ratio,
    synth,
    tile,
    window_chunks,
    write_csv,
)

from oracles import (
    eval_modulation,
    read_csv,
    synth_one_expression,
    trapezoid_window_sum,
    window_sums,
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

    def test_equality_is_identity(self):
        # a signal holds an array, which has no single truth value: == and
        # hash go by identity and never raise, even for equal values
        grid = TimeGrid(dt=1.0, n=4)
        a, b = (SampledSignal(grid, np.arange(4.0)) for _ in range(2))
        assert (a == b) is False and (a == a) is True and (a != b) is True
        assert hash(a) != hash(b) and {a, b, a} == {a, b}


class TestHarmonicSeries:
    @pytest.mark.parametrize("cos_c, sin_c", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([], [])])
    def test_coefficient_vectors_of_unequal_or_no_length_rejected(self, cos_c, sin_c):
        with pytest.raises(PreconditionError, match="equal length >= 1"):
            HarmonicSeries(F_M, 0.0, cos_c, sin_c)

    @pytest.mark.parametrize(
        "dc, cos_c, sin_c",
        [(math.inf, [1.0], [1.0]), (0.0, [math.nan], [1.0]), (0.0, [1.0], [-math.inf])],
        ids=["dc", "cos", "sin"],
    )
    def test_non_finite_coefficients_rejected(self, dc, cos_c, sin_c):
        with pytest.raises(PreconditionError, match="coefficients must be finite"):
            HarmonicSeries(F_M, dc, cos_c, sin_c)


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

    # a level or coefficient: either zero, so that sums of signed zeros are
    # drawn, or any value
    LEVEL = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))

    @given(
        data=st.data(),
        l=st.integers(1, 7),
        dc=LEVEL,
        shape=st.sampled_from(["whole", "partial", "non-whole"]),
        periods=st.integers(1, 4),
        t0=st.sampled_from([0.0, 0.37 / F_M, -1.3e-3]),
    )
    def test_bits_match_the_one_expression(self, data, l, dc, shape, periods, t0):
        # synth orders its temporaries to hold fewer of them; every output
        # keeps the bits of the one expression, signed zeros too (compared
        # as integers, so that -0.0 and 0.0 differ).  A non-whole period
        # (205.17 samples) is evaluated over the whole grid
        coeffs = data.draw(st.lists(self.LEVEL, min_size=2 * l, max_size=2 * l))
        f = 2437.0 if shape == "non-whole" else F_M
        n = periods * SPP + (data.draw(st.integers(1, SPP - 1)) if shape == "partial" else 0)
        series = HarmonicSeries(f_fund=f, dc=dc, cos_coeffs=coeffs[:l], sin_coeffs=coeffs[l:])
        grid = TimeGrid(dt=DT, n=n, t0=t0)
        got = synth(series, grid).values
        assert np.array_equal(got.view(np.int64), synth_one_expression(series, grid).view(np.int64))

    def test_peak_memory_is_three_arrays_for_one_harmonic(self):
        # a 37 Hz period is no whole number of 1 us samples, so all n are
        # evaluated: the argument table, its cosines and their product, 3.0
        # arrays of 8n B measured (4.0 while the cosine product and its sum
        # with dc were held together)
        n = 100_000
        series = HarmonicSeries(f_fund=37.0, dc=0.5, cos_coeffs=[1.0], sin_coeffs=[0.3])
        grid = TimeGrid(dt=1e-6, n=n)
        synth(series, grid)  # a first call makes NumPy's lazy imports and caches
        tracemalloc.start()
        try:
            synth(series, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * n

    def test_non_integer_samples_per_period_matches_direct_formula(self):
        series = stock_modulation_series()
        grid = TimeGrid(dt=1.0 / (F_M * 200.5), n=5 * SPP, t0=1e-5)
        expected = self.direct(series, F_M * grid.times())
        assert np.allclose(synth(series, grid).values, expected, rtol=0.0, atol=1e-13)

    def test_overflowing_period_is_refused_on_a_grid_of_several_periods(self):
        # synth evaluates one period; the signal of its tiles refuses it
        series = HarmonicSeries(f_fund=F_M, dc=1e308, cos_coeffs=[1e308], sin_coeffs=[0.0])
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="finite"):
            synth(series, default_grid(n_periods=4))

    def test_tile_repeats_a_period_that_starts_the_grid(self):
        grid = TimeGrid(dt=DT, n=2 * SPP + 7, t0=1e-5)
        period = synth(stock_modulation_series(), TimeGrid(DT, SPP, grid.t0)).values
        out = tile(period, grid)
        assert out.grid == grid
        assert np.array_equal(out.values, np.resize(period, grid.n))
        assert not out.values.flags.writeable
        # a period as long as the grid is taken over as the signal's values
        whole = np.arange(7.0)
        assert tile(whole, TimeGrid(DT, 7)).values is whole
        assert not whole.flags.writeable

    def test_synth_scans_its_values_once(self, monkeypatch):
        # over 3.5 periods synth evaluates one period and checks the n
        # values of its signal once, by the constructor; no period-length
        # array is scanned on its way there
        scanned, isfinite = [], np.isfinite

        def counting(x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                scanned.append(x.size)
            return isfinite(x, *args, **kwargs)

        series, grid = stock_modulation_series(), TimeGrid(DT, 7 * SPP // 2)
        monkeypatch.setattr(np, "isfinite", counting)
        out = synth(series, grid)
        assert scanned == [grid.n]
        assert out.values.tobytes() == np.resize(out.values[:SPP], grid.n).tobytes()

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

    @pytest.mark.parametrize("l", [0, -1])
    def test_harmonic_count_below_one_rejected(self, l):
        signal = SampledSignal(default_grid(), np.zeros(SPP))
        with pytest.raises(PreconditionError, match="harmonic count must be >= 1"):
            fit_harmonics(signal, F_M, l=l)

    @pytest.mark.parametrize("f_fund", [0.0, -1.0, math.nan])
    def test_non_positive_fundamental_rejected(self, f_fund):
        signal = SampledSignal(default_grid(), np.zeros(SPP))
        with pytest.raises(PreconditionError, match="^fundamental must be positive, got"):
            fit_harmonics(signal, f_fund, l=3)

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


def near_chunk_starts(n, w):
    """Outputs within 2w of where `window_chunks` starts a chunk of periods or
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


def trapezoid_integral(v, w, dt=DT):
    """Trailing-window trapezoid integral of v over w samples of dt: the
    kernel with dt per phase as its trapezoid."""
    return window_sums(np.asarray(v, dtype=float), np.full(w, dt))


class TestTrapezoidWindowSums:
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
        t = TimeGrid(dt=DT, n=n, t0=t0).times()
        v = 2.0 + np.sin(2.0 * np.pi * 50.0 * t) + 40.0 * t
        v += np.random.default_rng(5).normal(scale=0.3, size=n)
        out = trapezoid_integral(v, w)
        # against the sum of |v| it rounds: every output, the warm-up
        # included, or on long signals those around the kernel's chunk starts
        outputs = range(n) if every else near_chunk_starts(n, w)
        expected = np.array([trapezoid_window_sum(v, j, w) * DT for j in outputs])
        scale = np.array([trapezoid_window_sum(np.abs(v), j, w) * DT for j in outputs])
        assert np.all(np.abs(out[outputs] - expected) <= 1e-14 * scale)

    def test_rounding_does_not_grow_with_run_length(self):
        # a large mean over a long run: one running sum over the whole signal,
        # subtracted, loses bits as the run grows; per-period sums do not
        grid = TimeGrid(dt=DT, n=1_500_000)
        v = 1e3 + np.sin(2.0 * np.pi * 50.0 * grid.times())
        out = trapezoid_integral(v, SPP)
        for j in np.linspace(SPP, grid.n - 1, 40).astype(int):
            expected = trapezoid_window_sum(v, j, SPP) * DT
            assert abs(out[j] - expected) < 1e-14 * abs(expected)

    def test_memory_does_not_grow_with_the_window(self):
        # past the weight budget: the output, the warm-up and one chunk's
        # periods, running sums and scratch take ~42 B per sample at
        # w = n / 2; the block weights of every phase would add ~390 B
        n = 200_000
        v = np.random.default_rng(2).normal(size=n)
        tracemalloc.start()
        try:
            trapezoid_integral(v, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 48.0

    def test_constant_integrates_to_window(self):
        out = trapezoid_integral(np.ones(5 * SPP), SPP)
        assert np.allclose(out[SPP:], SPP * DT, rtol=1e-12)

    def test_sine_over_full_period_vanishes(self):
        out = trapezoid_integral(np.sin(2.0 * np.pi * F_M * default_grid(5).times()), SPP)
        assert np.max(np.abs(out[SPP:])) < 1e-9

    def test_ramp_matches_antiderivative(self):
        # oracle: integral of u over [t - T, t] is T*t - T^2/2
        t = default_grid(5).times()
        window = SPP * DT
        out = trapezoid_integral(t, SPP)
        expected = window * t[SPP:] - window**2 / 2.0
        assert np.allclose(out[SPP:], expected, atol=1e-15)

    def test_warmup_region_holds_partial_integrals_not_zeros(self):
        out = trapezoid_integral(np.ones(2 * SPP), SPP)
        # partial integral from the first sample: grows linearly, not zero-filled
        assert out[1] == pytest.approx(DT, rel=1e-12)
        assert out[SPP - 1] == pytest.approx((SPP - 1) * DT, rel=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2 * SPP)
        y = rng.normal(size=2 * SPP)
        lhs = trapezoid_integral(a * x + b * y, SPP)
        rhs = a * trapezoid_integral(x, SPP) + b * trapezoid_integral(y, SPP)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def window_sum_terms(x, trapezoid, plain, j):
    """The terms of output j of `window_chunks`, as its docstring defines it."""
    w = len(trapezoid)
    if j < w:  # warm-up: the trapezoid sum over [0, j]
        e = np.ones(j + 1)
        e[[0, j]] *= 0.5
        return (e * trapezoid[: j + 1] * x[: j + 1]).tolist() if j else []
    p = j % w
    i = np.arange(j - w, j + 1)
    e = np.ones(w + 1)
    e[[0, w]] = 0.5
    terms = (e * trapezoid[i % w] * x[i]).tolist()
    u = np.arange(w + 1) / w - 0.5
    for source, c0, c1 in plain:
        terms += ((c0[p] + c1[p] * u) * source[i % w] * x[i]).tolist()
    return terms


def check_window_sums(n, w, n_plain, outputs, zero=None):
    """`window_sums` on random x, trapezoid and plain sources (s, c0, c1)
    against `window_sum_terms` at outputs (`near_chunk_starts` when None);
    `zero` names the weight, "c0" or "c1", set to 0 in every source."""
    rng = np.random.default_rng(w)
    x = 3.0 + rng.normal(size=n)
    trapezoid = rng.uniform(0.5, 1.5, size=w)
    plain = tuple(
        tuple(np.zeros(w) if name == zero else rng.normal(size=w) for name in ("s", "c0", "c1"))
        for _ in range(n_plain)
    )
    out = window_sums(x, trapezoid, plain)
    if outputs is None:
        outputs = near_chunk_starts(n, w)
    for j in outputs:
        terms = window_sum_terms(x, trapezoid, plain, j)
        scale = math.fsum(abs(t) for t in terms)
        assert abs(out[j] - math.fsum(terms)) <= 1e-14 * scale, j


class Reader:
    """x as a reader by sample range, as `window_chunks` takes it: any object
    with len and slicing that returns a fresh float64 array; it records the
    ranges read."""

    def __init__(self, values):
        self.values, self.reads = values, []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, s):
        i, j, _ = s.indices(len(self.values))
        self.reads.append((i, j))
        return self.values[i:j].copy()


class TestWindowSums:
    @pytest.mark.parametrize(
        "n, w, n_plain, outputs",
        [
            # three chunks of periods and a partial last period
            (2 * _BLOCK_SAMPLES + 5 * SPP + 37, SPP, 4, None),
            # w not a multiple of _PHASE_BLOCK, every output
            (6 * 77 + 40, 77, 2, range(6 * 77 + 40)),
            # 35 phase blocks, whose weights fit _WEIGHT_FLOATS: every phase of
            # one period, and the tail
            (4 * 1100 + 123, 1100, 2, list(range(2 * 1100, 3 * 1100)) + [4 * 1100 + 122]),
            (3 * 1500 + 9, 1500, 3, list(range(0, 3 * 1500 + 9, 7))),
            # the longest period whose block weights fit _WEIGHT_FLOATS for the
            # lock-in's five sources, and the shortest whose weights do not,
            # which the running sums take: phases across one period, and the tail
            (3 * 7072 + 123, 7072, 2, list(range(2 * 7072, 3 * 7072, 97)) + [3 * 7072 + 122]),
            (3 * 7073 + 123, 7073, 2, list(range(2 * 7073, 3 * 7073, 97)) + [3 * 7073 + 122]),
            (3 * 8000 + 123, 8000, 2, list(range(2 * 8000, 3 * 8000, 97)) + [3 * 8000 + 122]),
        ],
    )
    def test_plain_sources_match_exact_sums(self, n, w, n_plain, outputs):
        check_window_sums(n, w, n_plain, outputs)

    # flat weights (c1 = 0) and the slope alone (c0 = 0), every output
    @pytest.mark.parametrize("zero", ["c1", "c0"])
    def test_one_weight_of_each_plain_source_zero(self, zero):
        check_window_sums(6 * 77 + 40, 77, 2, range(6 * 77 + 40), zero)

    @pytest.mark.parametrize(
        "n, w",
        [
            (5 * SPP + 37, SPP),
            # three chunks of periods and a partial last period
            (2 * _BLOCK_SAMPLES + 5 * SPP + 37, SPP),
            # a period whose block weights fit _WEIGHT_FLOATS, three chunks
            # and a partial last period
            (2 * (_BLOCK_SAMPLES // 4000) * 4000 + 3 * 4000 + 123, 4000),
            # the shortest whose weights do not, and a longer one: running sums
            (2 * (_BLOCK_SAMPLES // 7073) * 7073 + 3 * 7073 + 123, 7073),
            (2 * (_BLOCK_SAMPLES // 8000) * 8000 + 3 * 8000 + 123, 8000),
        ],
    )
    def test_a_reader_gives_the_bits_of_its_array(self, n, w):
        # x may be a reader, read one chunk at a time inside the kernel's loop
        rng = np.random.default_rng(11)
        x, trapezoid = rng.normal(size=n), rng.normal(size=w)
        plain = tuple(tuple(rng.normal(size=w) for _ in range(3)) for _ in range(2))
        reader = Reader(x)
        assert window_sums(reader, trapezoid, plain).tobytes() == \
            window_sums(x, trapezoid, plain).tobytes()
        # the warm-up's first period, then each chunk once with the period
        # before it, and never the whole signal at once
        head, chunks = reader.reads[0], reader.reads[1:]
        assert head == (0, w) and max(j - i for i, j in chunks) <= _BLOCK_SAMPLES + w
        assert max(j for _, j in chunks) == n
        assert len(set(chunks)) == len(chunks)

    @pytest.mark.parametrize("source", ["array", "reader"])
    def test_chunks_are_whole_periods_and_the_bits_of_the_array(self, source):
        # warm-up first, then chunks of whole periods of about _BLOCK_SAMPLES,
        # then the partial last period: each a fresh array, with a base of
        # its own (the block path writes a chunk over its own read, a copy of
        # the array's periods or the reader's fresh range), whose
        # concatenation is window_sums' output on the array
        n, w = 2 * _BLOCK_SAMPLES + 5 * SPP + 37, SPP
        rng = np.random.default_rng(5)
        x, trapezoid = rng.normal(size=n), rng.normal(size=w)
        plain = ((rng.normal(size=w), rng.normal(size=w), rng.normal(size=w)),)
        chunks = list(window_chunks(x if source == "array" else Reader(x), trapezoid, plain))
        lengths = [len(c) for c in chunks]
        assert lengths[0] == w and lengths[-1] == n % w and sum(lengths) == n
        assert all(k % w == 0 and k <= _BLOCK_SAMPLES for k in lengths[1:-1])
        assert not any(np.shares_memory(c, x) for c in chunks)
        assert len({id(c.base if c.base is not None else c) for c in chunks}) == len(chunks)
        assert np.concatenate(chunks).tobytes() == window_sums(x, trapezoid, plain).tobytes()

    def test_the_block_path_writes_over_its_read(self):
        # a reader-fed drain that drops each chunk holds one read of a
        # chunk's periods and the period before, with the chunk's output
        # written over it, the operand and the block weights: 0.834e6 B at
        # w = 200 and the lock-in's five sources, and about 83e3 B more for
        # the sources, the warm-up and the running totals, inside the
        # 128 KiB margin.  An output array of its own would add one chunk,
        # 0.523e6 B (1.44e6 B measured when the kernel allocated one)
        w, m = SPP, 5
        size = (_BLOCK_SAMPLES // w) * w
        n = 3 * size + w + 37  # three chunks and a partial last period
        rng = np.random.default_rng(8)
        x, trapezoid = rng.normal(size=n), rng.normal(size=w)
        plain = tuple(tuple(rng.normal(size=w) for _ in range(3)) for _ in range(2))

        def drain(source):
            for chunk in window_chunks(source, trapezoid, plain):
                del chunk  # not held while the next one is made

        drain(Reader(x))  # a first drain makes NumPy's lazy imports and caches
        read = (size + w) * 8
        operand = (size // w) * 2 * (_PHASE_BLOCK + m) * 8
        widths = [min(_PHASE_BLOCK, w - p0) for p0 in range(0, w, _PHASE_BLOCK)]
        weights = sum((2 * b + 2 * m) * b * 8 for b in widths)
        tracemalloc.start()
        try:
            drain(Reader(x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < read + operand + weights + 128 * 1024

    @pytest.mark.parametrize("w", [SPP, 8000], ids=["blocks", "running-sums"])
    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
    def test_an_array_keeps_its_bytes(self, w, writeable):
        # an array's periods are copied before the block path writes its
        # output over them, so the caller's array is never written
        n = 3 * (_BLOCK_SAMPLES // w) * w + w + 37
        rng = np.random.default_rng(9)
        x, trapezoid = rng.normal(size=n), rng.normal(size=w)
        plain = tuple(tuple(rng.normal(size=w) for _ in range(3)) for _ in range(2))
        before = x.tobytes()
        x.flags.writeable = writeable
        for chunk in window_chunks(x, trapezoid, plain):
            del chunk
        assert x.tobytes() == before

    def test_the_stream_lets_go_of_the_plain_sources(self):
        # the sources are built from the plain ones in a call of their own:
        # from the first output on, the stream's frame holds neither the
        # plain sources nor the scratch built from them, and the plain
        # arrays, held by nothing else, are gone
        n, w = 5 * SPP + 37, SPP
        rng = np.random.default_rng(5)
        x, trapezoid = rng.normal(size=n), rng.normal(size=w)
        plain = ((rng.normal(size=w), rng.normal(size=w), rng.normal(size=w)),)
        refs = [weakref.ref(a) for a in plain[0]]
        stream = window_chunks(x, trapezoid, plain)
        del plain
        chunks = [next(stream)]
        assert not set(stream.gi_frame.f_locals) & {"plain", "rows", "q", "a", "b", "s", "c0", "c1"}
        assert all(ref() is None for ref in refs)
        chunks += list(stream)
        assert sum(len(c) for c in chunks) == n

    def test_past_the_budget_no_block_weights_are_built(self, monkeypatch):
        # a period whose block weights do not fit _WEIGHT_FLOATS takes each
        # source's running sums instead: no triangle of block weights is
        # built, for any chunk.  Within the budget, the weights are built
        # once per call: two triangles per block
        rng = np.random.default_rng(6)
        tril, trils = np.tril, []
        monkeypatch.setattr(np, "tril", lambda *a: trils.append(1) or tril(*a))
        for w, built in ((7073, 0), (7072, 2 * -(-7072 // _PHASE_BLOCK))):
            assert (-(-w // _PHASE_BLOCK) * 2 * (_PHASE_BLOCK + 5) * _PHASE_BLOCK
                    <= _WEIGHT_FLOATS) == bool(built)
            n = 3 * (_BLOCK_SAMPLES // w) * w + w + 123  # three chunks and a tail
            plain = tuple(tuple(rng.normal(size=w) for _ in range(3)) for _ in range(2))
            trils.clear()
            assert len(window_sums(rng.normal(size=n), rng.normal(size=w), plain)) == n
            assert len(trils) == built


class TestStream:
    # signals._stream is the one reader of a stream, with one rule: its
    # chunks hold the n values of its grid, refused with one message once
    # they pass n or when they end short of it

    def test_a_signal_is_read_in_ranges_of_views(self):
        grid = TimeGrid(dt=DT, n=2 * _CSV_READ + 5)
        signal = SampledSignal(grid, np.arange(grid.n, dtype=float))
        got, chunks = _stream(signal)
        chunks = list(chunks)
        assert got == grid and [len(c) for c in chunks] == [_CSV_READ, _CSV_READ, 5]
        assert all(np.shares_memory(c, signal.values) for c in chunks)

    def test_the_chunk_past_the_grid_is_not_handed_on(self):
        grid = TimeGrid(dt=1.0, n=3)
        chunks = _stream((grid, [np.zeros(2), np.zeros(2)]))[1]
        assert len(next(chunks)) == 2
        with pytest.raises(PreconditionError, match="^a stream must hold the 3 samples of its grid$"):
            next(chunks)

    @pytest.mark.parametrize("n", [3, 5], ids=["short", "long"])
    @pytest.mark.parametrize(
        "read",
        [
            _joined,
            lambda grid, chunks: downsample_at_phase((grid, chunks), 1.0, 0.0),
            lambda grid, chunks: write_csv((grid, chunks), "x.csv"),
        ],
        ids=["joined", "downsample", "write_csv"],
    )
    def test_every_reader_refuses_a_stream_that_does_not_fill_its_grid(self, tmp_path,
                                                                       monkeypatch, read, n):
        # half-second samples of a 1 Hz modulation: 4 samples are two
        # periods.  Each chunk is one sample, so a long stream is refused
        # before its fifth is handed on
        monkeypatch.chdir(tmp_path)
        grid = TimeGrid(dt=0.5, n=4)
        with pytest.raises(PreconditionError, match="^a stream must hold the 4 samples of its grid$"):
            read(grid, [np.array([float(i)]) for i in range(n)])


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

    @pytest.mark.parametrize("phase", [0.0, 1.234, -2.5])
    def test_chunks_give_the_bits_of_the_whole_signal(self, phase):
        # a (grid, chunks) pair is picked as the signal it makes, whether its
        # chunks are whole periods, the last one cut short, or cut anywhere:
        # one sample, edges inside a period and a chunk shorter than one.
        # Each chunk is let go before the next is made, as the picks are
        # copied out of it
        grid = TimeGrid(dt=DT, n=7 * SPP + 37, t0=-0.3 * DT)
        values = np.random.default_rng(4).standard_normal(grid.n)
        whole = downsample_at_phase(SampledSignal(grid, values), F_M, phase)
        for edges in ([0, SPP, 4 * SPP, 5 * SPP, 7 * SPP, grid.n],
                      [0, 1, 37, SPP + 13, SPP + 90, 4 * SPP - 1, 6 * SPP + 150, grid.n]):
            alive = []

            def chunks():
                for i, j in zip(edges, edges[1:]):
                    assert not any(ref() is not None for ref in alive)
                    chunk = values[i:j].copy()
                    alive.append(weakref.ref(chunk))
                    yield chunk
                    del chunk

            out = downsample_at_phase((grid, chunks()), F_M, phase)
            assert out.grid == whole.grid and len(alive) == len(edges) - 1
            assert out.values.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("n", [600, 1400], ids=["short", "long"])
    def test_a_stream_that_does_not_fill_its_grid_is_refused(self, n):
        # 1 000 samples are 5 periods: 600 or 1 400 values would give 3 or 7
        # picks, so neither is picked
        grid = TimeGrid(dt=DT, n=1000)
        chunks = [np.zeros(SPP)] * (n // SPP)
        with pytest.raises(PreconditionError, match="^a stream must hold the 1000 samples"):
            downsample_at_phase((grid, chunks), F_M, 0.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        signal = SampledSignal(default_grid(10), np.zeros(10 * SPP))
        with pytest.raises(PreconditionError, match=f"phase must be finite, got {phase}"):
            downsample_at_phase(signal, F_M, phase)

    def test_non_integer_rate_ratio_rejected(self):
        grid = TimeGrid(dt=3e-6, n=1000)
        with pytest.raises(PreconditionError, match="whole number of samples"):
            downsample_at_phase(SampledSignal(grid, np.zeros(grid.n)), F_M, 0.0)

    # the stride is one period of `whole_period`, whatever the phase: a
    # positive f_m whose period is a whole number of samples, fewer than n
    @pytest.mark.parametrize("phase", [0.0, np.pi])
    @pytest.mark.parametrize(
        "grid, f_m",
        [
            (TimeGrid(dt=1e-200, n=4), 1e-200),  # f_m*dt underflows to 0
            (default_grid(10), 0.0),
            (default_grid(10), -F_M),
            (TimeGrid(dt=DT, n=1000), 1e-300),  # one sample 1e300 s apart
            (default_grid(1), F_M),  # exactly one period
            (TimeGrid(dt=DT, n=50), F_M),  # a quarter of a period
            (TimeGrid(dt=3e-6, n=1000), F_M),  # 133.3 samples per period
        ],
        ids=["underflow", "zero", "negative", "tiny", "one-period", "part-period",
             "fractional"],
    )
    def test_signal_without_more_than_one_whole_period_rejected(self, grid, f_m, phase):
        signal = SampledSignal(grid, np.zeros(grid.n))
        with pytest.raises(PreconditionError, match="whole number of samples"):
            downsample_at_phase(signal, f_m, phase)


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

    @pytest.mark.parametrize(
        "edges",
        [
            list(range(0, 1000, 300)) + [1000],
            # a one-sample chunk, and edges off the 256-row grid
            [0, 1, 700, 701, 2000, 4999, 5000],
        ],
        ids=["chunks-of-300", "one-sample-and-off-grid-edges"],
    )
    def test_writes_the_bytes_of_the_whole_signal(self, tmp_path, edges):
        # a (grid, chunks) pair of consecutive arrays is written as the signal
        # they make, each chunk let go before the next is made
        grid = TimeGrid(dt=DT, n=edges[-1], t0=-0.3 * DT)
        values = np.random.default_rng(9).standard_normal(grid.n)
        alive = []

        def chunks():
            for i, j in zip(edges, edges[1:]):
                assert not any(ref() is not None for ref in alive)
                chunk = values[i:j].copy()
                alive.append(weakref.ref(chunk))
                yield chunk
                del chunk

        write_csv((grid, chunks()), tmp_path / "streamed.csv")
        write_csv_per_row(SampledSignal(grid, values), tmp_path / "per_row.csv")
        assert len(alive) == len(edges) - 1
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 9001])
    def test_a_group_writes_the_bytes_of_each_whole_signal(self, tmp_path, monkeypatch, n):
        # three stacks on one grid written by one call, each as its own file,
        # all three cut at the same edges: chunks of 300 rows and a
        # one-sample chunk, so that the edges are off the 256-row grid of the
        # blocks.  They are random values, a repeated period and -0.0 but for
        # a 0.0 at row 300; the first block of the first is -0.0 with one 0.0
        # in its middle: -0.0 and 0.0 are formatted apart.  Each block's times
        # are taken once for the three, and every chunk of each stream is let
        # go before the next is made
        grid = TimeGrid(dt=DT, n=n, t0=-0.3 * DT)
        rng = np.random.default_rng(n)
        random = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        random[: min(n, 256)] = -0.0
        random[min(n, 256) // 2] = 0.0
        period = rng.standard_normal(37)
        period[3] = -0.0
        zeros = np.full(n, -0.0)
        zeros[300:301] = 0.0
        edges = sorted({0, n, min(n, 300), *range(301, n, 300)})
        spans = list(zip(edges, edges[1:]))

        class Released:
            # values read by range as a fresh array, each read once the
            # earlier ones are let go
            def __init__(self, values):
                self.values, self.refs = values, []

            def __getitem__(self, s):
                assert not any(ref() is not None for ref in self.refs)
                chunk = np.array(self.values[s])
                self.refs.append(weakref.ref(chunk))
                return chunk

            def stream(self):
                return grid, (self[i:j] for i, j in spans)

        names = ("random", "period", "zeros")
        readers = [Released(v) for v in (random, _Repeating(period, n), zeros)]
        times, calls = TimeGrid.times, []
        monkeypatch.setattr(TimeGrid, "times", lambda self, *a: calls.append(a) or times(self, *a))
        first, *more = [(r.stream(), tmp_path / f"{name}.csv") for name, r in zip(names, readers)]
        write_csv(*first, *more)
        monkeypatch.undo()
        assert len(calls) == sum(-(-(j - i) // 256) for i, j in spans)
        assert [len(r.refs) for r in readers] == [len(spans)] * 3
        for name, r in zip(names, readers):
            write_csv_per_row(SampledSignal(grid, r.values[:]), tmp_path / "per_row.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == \
                (tmp_path / "per_row.csv").read_bytes(), name

    @pytest.mark.parametrize(
        "other, message",
        [
            (SampledSignal(TimeGrid(dt=2.0, n=3), [1.0, 2.0, 3.0]), "must share a grid"),
            ((TimeGrid(dt=1.0, n=3), [np.zeros(1), np.zeros(1)]), "must hold the 3 samples"),
            ((TimeGrid(dt=1.0, n=3), [np.zeros(1)] * 4), "must hold the 3 samples"),
            ((TimeGrid(dt=1.0, n=3), [np.zeros(2), np.zeros(1)]), "must be cut at the same places"),
        ],
        ids=["another-grid", "short", "long", "cut-apart"],
    )
    def test_a_group_refuses_what_its_grid_does_not_hold(self, tmp_path, other, message):
        # the first stream is cut into single samples: the short and long
        # streams are cut alike as far as they go, and the cut-apart one holds
        # the 3 samples of its grid but in chunks of other lengths
        signal = (TimeGrid(dt=1.0, n=3), [np.array([v]) for v in (1.0, 2.0, 3.0)])
        with pytest.raises(PreconditionError, match=message):
            write_csv(signal, tmp_path / "a.csv", (other, tmp_path / "b.csv"))

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

    def test_group_memory_does_not_grow_with_rows(self, tmp_path):
        # three stacks written together: a signal held whole, the ranges of a
        # repeated period and those of a constant level.  The writer holds
        # one range of each streamed stack (32 KiB) and one block's times,
        # lists and text for the three: 0.13e6 B, not a 0.8 MB column
        n = 100_000
        grid = TimeGrid(dt=DT, n=n)
        rng = np.random.default_rng(0)
        signal = SampledSignal(grid, rng.standard_normal(n))
        stacks = [((grid, _ranges(_Repeating(period, n))), tmp_path / f"{i}.csv")
                  for i, period in enumerate((rng.standard_normal(SPP), np.array([-0.0])))]
        tracemalloc.start()
        try:
            write_csv(signal, tmp_path / "whole.csv", *stacks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 192 * 1024
