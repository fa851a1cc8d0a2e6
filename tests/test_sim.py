import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rotolock
from rotolock.cli import main
from rotolock.errors import ConfigError, PreconditionError
from rotolock.lockin import _lockin_chunks, modulate, slope_compensate
from rotolock.modulation import ModulationFit, modulation_series
from rotolock.reference import synth_demod_reference
from rotolock.sim import (
    NoiseSpec,
    SimConfig,
    SimResult,
    _NoisySum,
    _series,
    gen_noise,
    measured_signal,
    report,
    run_simulation,
    step_contamination_mask,
)
import rotolock.signals
from rotolock.signals import (
    _BLOCK_SAMPLES,
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    downsample_at_phase,
    period_grid,
    synth,
    tile,
    write_csv,
)

from oracles import window_sums


def default_grid():
    return TimeGrid(dt=2e-6, n=15000, t0=0.0)


def whole_noise(spec, grid, *periods):
    """gen_noise's reader read over the whole grid, as one signal."""
    return SampledSignal(grid, gen_noise(spec, grid, *periods)[:])


def signal_at(cfg, times):
    return cfg.signal_amp * np.sin(2.0 * np.pi * cfg.signal_freq * times)


class TestGenNoise:
    def test_same_seed_is_bit_identical(self):
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=99)
        a, b = (whole_noise(spec, default_grid()) for _ in range(2))
        assert np.array_equal(a.values, b.values)
        a_steps, b_steps = (_NoisySum(spec, default_grid()).steps for _ in range(2))
        assert np.array_equal(a_steps, b_steps)

    def test_sine_noise_peaks_at_amplitude(self):
        spec = NoiseSpec(kind="sine", amplitude=10.0, rate_or_freq=10.0, seed=0)
        grid = TimeGrid(dt=2e-6, n=50000)  # 0.1 s covers a full 10 Hz period
        out = whole_noise(spec, grid)
        assert np.max(np.abs(out.values)) == pytest.approx(10.0, rel=1e-6)

    def test_sine_noise_is_one_period_tiled(self):
        # the one-harmonic series that `measured_signal` builds: one 1 000-sample
        # period evaluated and repeated exactly, not a sine drifting with t
        spec = NoiseSpec(kind="sine", amplitude=10.0, rate_or_freq=500.0)
        grid = TimeGrid(dt=2e-6, n=1_500_000)
        out = whole_noise(spec, grid).values
        series = HarmonicSeries(500.0, 0.0, [0.0], [10.0])
        assert out.tobytes() == synth(series, grid).values.tobytes()
        assert np.array_equal(out.reshape(-1, 1000), np.broadcast_to(out[:1000], (1500, 1000)))

    @pytest.mark.parametrize("spec", [
        NoiseSpec(seed=3),
        NoiseSpec(rate_or_freq=200_000.0, seed=4),  # levels of a few samples, some empty
        NoiseSpec(amplitude=0.0),
        NoiseSpec(kind="sine", rate_or_freq=500.0),
        NoiseSpec(kind="sine", rate_or_freq=37.0),  # no whole period: the whole grid
        NoiseSpec(kind="none"),
    ], ids=["step", "fast-step", "step-amplitude-0", "sine", "sine-37Hz", "none"])
    def test_draw_fills_any_range_with_the_bits_of_the_whole(self, spec):
        # the lock-in reads the noise one range at a time; each range holds the
        # bits of the noise over the whole grid, built here without the reader:
        # step levels by sample search, a sine by synth, and zeros
        grid = TimeGrid(dt=2e-6, n=150_050)
        if spec.amplitude == 0.0 or spec.kind == "none":
            whole = np.zeros(grid.n)
        elif spec.kind == "sine":
            series = HarmonicSeries(spec.rate_or_freq, 0.0, [0.0], [spec.amplitude])
            whole = synth(series, grid).values
        else:
            whole = self.step_noise_by_sample_search(spec, grid)
        reader = _NoisySum(spec, grid)
        steps = np.flatnonzero(np.diff(whole)) + 1 if spec.kind == "step" else []
        assert np.array_equal(reader.steps, steps)
        for i, j in [(0, grid.n), (0, 1), (1, 2), (7, 1007), (999, 66_000), (65_400, 130_800),
                     (150_000, 150_050), (grid.n - 1, grid.n)]:
            part = reader[i:j]
            assert part.flags.writeable and part.tobytes() == whole[i:j].tobytes()

    @pytest.mark.parametrize("freq, amplitude, negative_zeros", [
        (500.0, 10.0, False), (37.0, 10.0, False), (500.0, 5e-324, False),
        (500.0, 10.0, True), (500.0, 5e-324, True),
    ], ids=["500Hz", "37Hz-no-whole-period", "least-subnormal", "trace-with-negative-zeros",
            "least-subnormal-trace-with-negative-zeros"])
    def test_sine_range_is_laid_from_the_tiled_sine(self, freq, amplitude, negative_zeros):
        # sine noise is the level 0.0 plus its period laid into each range: a
        # range reads the bits of the tiled sine, and plus a period passed in
        # those of the tiled sine plus the tiled period, since the sine holds
        # no -0.0 for the level to turn into +0.0; a least-subnormal sine
        # rounds to zero at many samples, and a trace may hold -0.0 itself
        spec = NoiseSpec(kind="sine", amplitude=amplitude, rate_or_freq=freq)
        grid = TimeGrid(dt=2e-6, n=150_050)
        one = period_grid(grid, freq)
        sine = synth(HarmonicSeries(freq, 0.0, [0.0], [spec.amplitude]), one).values
        trace = np.sin(np.arange(1000) * 0.01) - 0.5
        if negative_zeros:
            trace[::3] = -0.0
        tiled_sine = np.tile(sine, -(-grid.n // one.n))[: grid.n]
        tiled_trace = np.tile(trace, -(-grid.n // 1000))[: grid.n]
        period = SampledSignal(TimeGrid(grid.dt, 1000), trace)
        bare, summed = _NoisySum(spec, grid), _NoisySum(spec, grid, period)
        for i, j in [(0, grid.n), (0, 1), (7, 1007), (999, 66_000), (150_000, 150_050)]:
            assert bare[i:j].tobytes() == tiled_sine[i:j].tobytes()
            assert summed[i:j].tobytes() == (tiled_sine + tiled_trace)[i:j].tobytes()

    @pytest.mark.parametrize("spec", [
        NoiseSpec(kind="none"), NoiseSpec(amplitude=0.0), NoiseSpec(kind="sine", amplitude=0.0),
    ], ids=["none", "step-amplitude-0", "sine-amplitude-0"])
    def test_no_noise_plus_negative_zero_reads_positive_zero(self, spec):
        # no noise is the level 0.0, so a period holding -0.0 (0 Hz times a
        # modulation that dips below 0) reads 0.0 + -0.0 = +0.0, as the
        # modulated trace plus a noise of zeros does
        grid = TimeGrid(dt=2e-6, n=2500)
        period = SampledSignal(TimeGrid(grid.dt, 1000), np.full(1000, -0.0))
        out = whole_noise(spec, grid, period).values
        assert np.all(out == 0.0) and not np.any(np.signbit(out))
        # the run's own trace: a modulation with no offset dips below 0
        cfg = SimConfig(signal_freq=0.0, noise=spec, modulation=ModulationFit(offset=0.0))
        res = run_simulation(cfg)
        assert np.any(np.signbit(res.modulated_period.values))
        assert not np.any(np.signbit(res.modulated_noisy.values))

    def test_none_kind_is_zero(self):
        out = whole_noise(NoiseSpec(kind="none"), default_grid())
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("spec", [
        NoiseSpec(kind="sine", rate_or_freq=500.0), NoiseSpec(kind="none"),
        NoiseSpec(kind="step", amplitude=0.0),
    ])
    def test_steps_are_empty_without_step_levels(self, spec):
        steps = _NoisySum(spec, default_grid()).steps
        assert steps.size == 0 and steps.dtype == np.int64

    def test_step_levels_bounded_and_rate_matches(self):
        grid = default_grid()
        counts = []
        for seed in range(50):
            spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=seed)
            out = whole_noise(spec, grid)
            assert np.max(np.abs(out.values)) <= 10.0
            counts.append(np.count_nonzero(np.diff(out.values)))
        # expected switch count = rate * duration = 15; mean over 50 seeds
        assert 12.0 < np.mean(counts) < 18.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            NoiseSpec(kind="gauss")

    def test_amplitude_whose_level_range_overflows_rejected(self):
        largest = sys.float_info.max / 2.0  # 2*amplitude is still finite
        assert NoiseSpec(amplitude=largest).amplitude == largest
        for amplitude in (math.nextafter(largest, math.inf), 1e308):
            with pytest.raises(ConfigError, match="amplitude"):
                NoiseSpec(amplitude=amplitude)

    @staticmethod
    def step_noise_by_sample_search(spec, grid):
        """Step noise indexed by searching every sample time among the level
        boundaries, drawing from the RNG as gen_noise does."""
        rng = np.random.default_rng(spec.seed)
        t_end = grid.t0 + grid.duration
        boundaries = []
        levels = [float(rng.uniform(-spec.amplitude, spec.amplitude))]
        t_cur = grid.t0
        while True:
            t_cur += float(rng.exponential(1.0 / spec.rate_or_freq))
            if t_cur >= t_end:
                break
            boundaries.append(t_cur)
            levels.append(float(rng.uniform(-spec.amplitude, spec.amplitude)))
        seg = np.searchsorted(np.asarray(boundaries), grid.times(), side="right")
        return np.asarray(levels)[seg]

    def assert_matches_sample_search(self, spec, grid):
        """gen_noise's values equal the sample search's, and the reader's
        steps are where they change; returns the values."""
        noise, steps = whole_noise(spec, grid), _NoisySum(spec, grid).steps
        assert np.array_equal(noise.values, self.step_noise_by_sample_search(spec, grid))
        assert np.array_equal(steps, np.flatnonzero(np.diff(noise.values)) + 1)
        return noise.values

    # 1e-9/s draws no boundary; 5e5/s is one step per sample on average (1/dt).
    # The reader draws a level as -a + 2a * u, the sample search by
    # rng.uniform(-a, a): 3.3 is no short binary fraction, 1e-300 is near
    # the bottom of the float range and at float max / 2, 2a is the largest
    # float
    @pytest.mark.parametrize("amplitude", [10.0, 3.3, 1e-300, sys.float_info.max / 2])
    @pytest.mark.parametrize("rate", [1e-9, 500.0, 1e5, 5e5])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_step_levels_match_sample_search(self, rate, seed, amplitude):
        grid = TimeGrid(dt=2e-6, n=15000, t0=0.37 / 2500.0 - 1e-3)
        spec = NoiseSpec(kind="step", amplitude=amplitude, rate_or_freq=rate, seed=seed)
        self.assert_matches_sample_search(spec, grid)

    def test_steps_skip_a_level_equal_to_the_last(self):
        # levels drawn from [-5e-324, 5e-324] take one of three values, so
        # many a new level repeats the one before it and is no step
        spec = NoiseSpec(kind="step", amplitude=5e-324, rate_or_freq=1e5, seed=2)
        grid = default_grid()
        values = self.assert_matches_sample_search(spec, grid)
        assert 0 < np.count_nonzero(np.diff(values)) < 0.8 * spec.rate_or_freq * grid.duration

    def test_boundary_on_a_sample_time_starts_its_level_there(self):
        # a grid whose step is the first drawn interval puts the first
        # boundary exactly on sample 1
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=5)
        rng = np.random.default_rng(spec.seed)
        rng.uniform()
        grid = TimeGrid(dt=float(rng.exponential(1.0 / spec.rate_or_freq)), n=40)
        values = self.assert_matches_sample_search(spec, grid)
        assert values[1] != values[0]

    # far from t = 0 the rounded sample times t0 + k*dt are coarser than dt
    # (ulp(1e9) is 1.2e-7), so ceil((b - t0)/dt) can miss by several samples;
    # the last grid starts before t = 0
    @pytest.mark.parametrize("t0, dt", [(1e9, 5e-8), (1e9, 3e-7), (-4.2e4, 1e-9)])
    def test_step_levels_match_sample_search_on_coarse_times(self, t0, dt):
        grid = TimeGrid(dt=dt, n=4000, t0=t0)
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=0.02 / dt, seed=3)
        self.assert_matches_sample_search(spec, grid)

    def test_contamination_mask_spans_one_window_per_step(self):
        grid = TimeGrid(dt=1.0, n=20)
        values = np.zeros(20)
        values[7:] = 1.0  # one step at sample 7
        mask = step_contamination_mask(SampledSignal(grid, values), window_samples=4)
        assert list(np.flatnonzero(mask)) == [7, 8, 9, 10]
        values[9:] = 2.0  # overlapping windows of the steps at 7 and 9
        mask = step_contamination_mask(SampledSignal(grid, values), window_samples=4)
        assert list(np.flatnonzero(mask)) == [7, 8, 9, 10, 11, 12]
        values[18:] = 3.0  # a window cut short by the end of the signal
        mask = step_contamination_mask(SampledSignal(grid, values), window_samples=4)
        assert list(np.flatnonzero(mask)) == [7, 8, 9, 10, 11, 12, 18, 19]

    @pytest.mark.parametrize("kind,rate,window", [
        ("step", 5000.0, 200), ("step", 50_000.0, 7), ("step", 500.0, 1), ("none", 0.0, 200),
    ])
    def test_contamination_mask_matches_per_step_loop(self, kind, rate, window):
        noise = whole_noise(NoiseSpec(kind=kind, rate_or_freq=rate, seed=3), default_grid())
        expected = np.zeros(noise.grid.n, dtype=bool)
        for i in np.flatnonzero(np.diff(noise.values)) + 1:
            expected[i : i + window] = True
        assert np.array_equal(step_contamination_mask(noise, window), expected)


class TestSimConfig:
    def test_defaults_satisfy_grid_invariants(self):
        cfg = SimConfig()
        assert cfg.samples_per_period == 200
        assert cfg.n_samples == 15000

    def test_non_commensurate_rate_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            SimConfig(dt=3e-6)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SimConfig.from_dict({"dt": 2e-6, "speed": 3})

    def test_dict_round_trip(self):
        cfg = SimConfig(signal_amp=2.0, noise=NoiseSpec(kind="sine", amplitude=3.0,
                                                        rate_or_freq=10.0, seed=5))
        assert SimConfig.from_dict(cfg.to_dict()) == cfg


class TestRunSimulation:
    def test_noise_free_recovery(self):
        cfg = SimConfig(noise=NoiseSpec(kind="none"))
        res = run_simulation(cfg)
        assert res.metrics["rms_error_downsampled"] < 1e-3
        assert res.metrics["spike_windows"] == []

    def test_downsampled_channel_has_75_samples(self):
        res = run_simulation(SimConfig(noise=NoiseSpec(kind="none")))
        assert res.restored_downsampled.grid.n == 75
        assert res.metrics["n_downsampled"] == 75
        assert res.restored_downsampled.grid.dt == pytest.approx(4e-4)

    def test_bandwidth_bookkeeping(self):
        res = run_simulation(SimConfig(noise=NoiseSpec(kind="none")))
        assert res.metrics["bandwidth_hz"] == pytest.approx(1250.0)

    @pytest.mark.parametrize(
        "overrides",
        [{"signal_freq": 5.0, "duration": 0.3}, {"signal_freq": 50.0, "duration": 0.3001}],
        # a 5 Hz period is 100 000 samples, past _BLOCK_SAMPLES: the error sum
        # evaluates the waveform on each chunk's own slice, not one period
        # laid.  A 50 Hz period of 10 000 samples is laid over each chunk of
        # the lock-in (65 400 samples, but for the last two), and past the
        # first from a non-zero phase
        ids=["period-past-a-block", "period-laid-from-a-chunk-phase"],
    )
    def test_full_error_of_a_sliced_or_laid_period(self, overrides):
        cfg = SimConfig(**overrides)
        res = run_simulation(cfg)
        restored = res.restored_full
        dev = restored.values - measured_signal(cfg, restored.grid).values
        direct = math.sqrt(math.fsum((dev[res.warmup:] ** 2).tolist()) / (dev.size - res.warmup))
        assert res.metrics["rms_error_full"] == pytest.approx(direct, rel=1e-12)

    def test_step_noise_deviations_are_localized_to_step_windows(self):
        cfg = SimConfig()  # default step noise, amplitude 10
        noisy = run_simulation(cfg)
        clean = run_simulation(SimConfig(noise=NoiseSpec(kind="none")))
        dev = np.abs(noisy.restored_full.values - clean.restored_full.values)
        contaminated = step_contamination_mask(noisy.noise, cfg.samples_per_period)
        outside = ~contaminated
        outside[: noisy.warmup] = False
        assert np.max(dev[outside]) < 1e-9
        assert np.max(dev[contaminated]) > 1.0  # spikes really show up

    def test_downsampled_error_excludes_spikes_and_stays_small(self):
        cfg = SimConfig()
        res = run_simulation(cfg)
        assert len(res.metrics["spike_windows"]) > 0
        assert res.metrics["rms_error_downsampled"] < 0.01 * cfg.signal_amp

    @pytest.mark.parametrize("rate", [500.0, 5000.0])
    @pytest.mark.parametrize("seed", [7, 11, 22])
    def test_spike_windows_are_the_contaminated_picks(self, seed, rate):
        # the windows found at the picks from gen_noise's steps are exactly
        # the picks the full-length mask sets, scanned from the noise values
        cfg = SimConfig(noise=NoiseSpec(rate_or_freq=rate, seed=seed))
        res = run_simulation(cfg)
        spp = cfg.samples_per_period
        contaminated = step_contamination_mask(res.noise, spp)
        k0 = int(round((res.restored_downsampled.grid.t0 - res.restored_full.grid.t0) / cfg.dt))
        ds_idx = k0 + np.arange(res.metrics["n_downsampled"]) * spp
        assert len(res.metrics["spike_windows"]) > 0
        assert res.metrics["spike_windows"] == np.flatnonzero(contaminated[ds_idx]).tolist()

    def test_interference_invisibility(self):
        # noise swamps the modulated trace yet recovery stays clean
        cfg = SimConfig()
        res = run_simulation(cfg)
        noise_rms = np.sqrt(np.mean((res.modulated_noisy.values - res.modulated.values) ** 2))
        signal_rms = np.sqrt(np.mean(res.modulated.values**2))
        assert noise_rms / signal_rms > 5.0
        assert res.metrics["rms_error_downsampled"] < 0.01 * cfg.signal_amp

    def test_deterministic_given_config(self):
        cfg = SimConfig()
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.restored_full.values, b.restored_full.values)
        assert np.array_equal(a.noise.values, b.noise.values)
        assert a.metrics == b.metrics

    def test_noise_seed_only_affects_spike_windows(self):
        runs = [
            run_simulation(SimConfig(noise=NoiseSpec(kind="step", amplitude=10.0,
                                                     rate_or_freq=500.0, seed=seed)))
            for seed in (11, 22)
        ]
        cfg = SimConfig()
        spp = cfg.samples_per_period
        masks = [step_contamination_mask(r.noise, spp) for r in runs]
        k0 = int(round((runs[0].restored_downsampled.grid.t0
                        - runs[0].restored_full.grid.t0) / cfg.dt))
        ds_idx = k0 + np.arange(75) * spp
        good = ~(masks[0][ds_idx] | masks[1][ds_idx]) & (ds_idx >= runs[0].warmup)
        diff = np.abs(runs[0].restored_downsampled.values[good]
                      - runs[1].restored_downsampled.values[good])
        assert np.max(diff) < 0.01 * cfg.signal_amp

    def test_reference_delay_is_calibrated_out(self):
        # the delayed reference attenuates a fixed-gain demodulator by ~0.84;
        # numeric calibration absorbs it, so recovery quality is unchanged
        res = run_simulation(SimConfig(noise=NoiseSpec(kind="none")))
        assert res.metrics["gain_scale_vs_aligned"] == pytest.approx(0.839, abs=0.01)
        assert res.metrics["rms_error_downsampled"] < 1e-3

    def test_half_turn_reference_delay_flips_gain_not_output(self):
        res = run_simulation(
            SimConfig(ref_phase_delay=np.pi, noise=NoiseSpec(kind="none"))
        )
        assert res.metrics["gain_scale_vs_aligned"] == pytest.approx(-1.0, abs=1e-9)
        assert res.metrics["rms_error_downsampled"] < 1e-3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ref_phase_delay": np.pi / 2.0},
            {"ref_kind": "sine", "ref_phase_delay": np.pi / 2.0,
             "modulation": {"phase": 0.0}},
        ],
    )
    def test_quarter_turn_reference_delay_is_unusable(self, tmp_path, overrides, capsys):
        # at a quarter turn the reference is nearly orthogonal to the
        # modulation: each channel's gain is ~2e-5 of its bound or less, so
        # the run is refused rather than reporting amplified noise
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overrides))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "unusable reference" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_odd_channel_recovers_the_signal(self):
        # a modulation with a sizeable sine part and a delayed reference put
        # the larger gain on the odd channel; the aligned reference has no
        # odd part, so there is no scale to report
        res = run_simulation(
            SimConfig(modulation=ModulationFit(phase=0.7), ref_phase_delay=1.2)
        )
        assert res.metrics["channel"] == "odd"
        assert res.metrics["rms_error_downsampled"] < 1e-3
        assert res.metrics["gain_scale_vs_aligned"] is None

    def test_sine_reference_variant(self):
        res = run_simulation(SimConfig(ref_kind="sine", noise=NoiseSpec(kind="none")))
        assert res.metrics["rms_error_downsampled"] < 1e-3

    def test_group_delay_reported(self):
        res = run_simulation(SimConfig(noise=NoiseSpec(kind="none")))
        assert res.metrics["group_delay_s"] == pytest.approx(2e-4)
        assert res.restored_full.grid.t0 == pytest.approx(-2e-4)


def exact_phase_sine(amp, freq, grid, dt_exact):
    """amp*sin(2*pi*freq*t) with the phase freq*t reduced mod 1 in exact
    rational arithmetic, taking dt as the decimal dt_exact and t0 as the
    float it is, so no large time argument loses bits."""
    step = Fraction(freq) * dt_exact
    p, q = step.numerator, step.denominator
    start = Fraction(freq) * Fraction(grid.t0) % 1
    k = np.arange(grid.n, dtype=np.int64)
    phase = float(start) + (k * p % q) / q
    return amp * np.sin(2.0 * np.pi * phase)


class TestMeasuredSignal:
    # 37 Hz puts 13513.5 samples in a period, so synth evaluates every sample
    @pytest.mark.parametrize("freq", [50.0, -50.0, 0.0, 37.0])
    def test_original_matches_exact_phase_oracle(self, freq):
        cfg = SimConfig(signal_freq=freq, signal_amp=1.7)
        original = measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples))
        oracle = exact_phase_sine(1.7, freq, original.grid, Fraction(2, 10**6))
        assert np.max(np.abs(original.values - oracle)) <= 1e-12

    @pytest.mark.parametrize("freq", [50.0, -50.0, 37.0])
    def test_offset_and_downsampled_grids_match_oracle(self, freq):
        # the grids the metrics compare on: window centres from -T_m/2, and
        # one sample per modulation period (200 fine steps)
        cfg = SimConfig(signal_freq=freq)
        for grid, dt_exact in (
            (TimeGrid(cfg.dt, cfg.n_samples, -2e-4), Fraction(2, 10**6)),
            (TimeGrid(4e-4, 75, -2e-4 + 37 * cfg.dt), Fraction(4, 10**4)),
        ):
            oracle = exact_phase_sine(1.0, freq, grid, dt_exact)
            assert np.max(np.abs(measured_signal(cfg, grid).values - oracle)) <= 1e-12

    def test_subnormal_frequency_is_evaluated_directly(self):
        # f*dt underflows to 0, so the period has no finite sample count
        cfg = SimConfig(signal_freq=5e-324, noise=NoiseSpec(kind="none"))
        run_simulation(cfg)  # the chain runs on it too
        original = measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples))
        assert np.max(np.abs(original.values)) <= 1e-300

    def test_long_run_matches_exact_phase_oracle(self):
        cfg = SimConfig(duration=3.0, noise=NoiseSpec(kind="none"))
        original = measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples))
        assert original.grid.n == 1_500_000
        oracle = exact_phase_sine(1.0, 50.0, original.grid, Fraction(2, 10**6))
        assert np.max(np.abs(original.values - oracle)) <= 1e-12


# grids of a run with and without a shared period of the sine and the
# modulation: 15 000 samples hold 1.5 of 50 Hz's 10 000, 37 Hz has no whole
# period, and 0.01 s is shorter than the shared period
SHARED_PERIOD_GRIDS = pytest.mark.parametrize(
    "freq, duration",
    [(50.0, 0.03), (-50.0, 0.03), (0.0, 0.03), (37.0, 0.03), (1000.0, 0.03), (-50.0, 0.01)],
    ids=["50Hz", "-50Hz", "0Hz", "37Hz", "1kHz", "shorter-than-shared-period"],
)


class TestSimResultArrays:
    def test_every_stack_is_read_only(self):
        cfg = SimConfig()
        res = run_simulation(cfg)
        for stack in (measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples)), res.noise,
                      res.modulated_period, res.modulated, res.modulated_noisy,
                      res.restored_full, res.restored_downsampled):
            assert not stack.values.flags.writeable
            with pytest.raises(ValueError):
                stack.values[0] = 0.0

    def test_an_unknown_stack_is_refused(self):
        # `stack` makes only the four full-rate stacks that report writes,
        # and names them when asked for another
        res = run_simulation(SimConfig())
        with pytest.raises(KeyError) as refused:
            res.stack("restored_downsampled.csv")
        message = str(refused.value)
        assert "no full-rate stack 'restored_downsampled.csv'" in message
        for name in ("noise.csv", "modulated.csv", "modulated_noisy.csv", "restored.csv"):
            assert repr(name) in message, name

    @staticmethod
    def _peak(run, *args):
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_per_sample(self):
        # the run holds fixed-size scratch, the lock-in's chunk of the noisy
        # sum, with its output written over it, among it, and no full-length
        # array: 7.28 B per sample at this length, all of it scratch (10.77
        # while the kernel wrote each chunk's output to an array of its own,
        # 14.1 while the error sum kept a buffer for its blocks that crossed
        # a chunk edge).  The growth tests below tell a full-length array
        # apart.
        # A first run in the process also makes NumPy's lazy imports and
        # caches, so it is made untraced
        cfg = SimConfig(duration=0.3)
        run_simulation(cfg)
        assert cfg.n_samples == 150_000
        assert self._peak(run_simulation, cfg) / cfg.n_samples < 9

    @pytest.mark.parametrize("prop", ["restored_full", "noise"])
    def test_a_whole_read_holds_one_array(self, prop):
        # a property read holds its stack's stream whole, each chunk copied
        # into one array as it comes: between 0.3 s and 0.6 s its peak grows
        # by the array's 8 B per sample, 8.03 measured for restored_full,
        # whose peak is at the kernel's last chunk (fixed scratch), and 9.00
        # for noise, whose peak is at the signal's finiteness scan of the
        # array (1 B per sample more).  Chunks kept to be joined at the end,
        # a second full-length array, would add 8 B
        short, long = (run_simulation(SimConfig(duration=d)) for d in (0.3, 0.6))
        getattr(short, prop)  # a first read makes NumPy's lazy imports and caches
        growth = (self._peak(getattr, long, prop) - self._peak(getattr, short, prop)) / (
            long.config.n_samples - short.config.n_samples
        )
        assert growth < 10.0

    @pytest.mark.parametrize("kind", ["step", "sine", "none"])
    @pytest.mark.parametrize("writes", [False, True], ids=["run", "run-and-report"])
    def test_peak_does_not_grow(self, monkeypatch, tmp_path, kind, writes):
        # between 0.3 s and 0.6 s the peak grows by less than 1 B per sample
        # (0.04-0.06 measured): the lock-in output is taken one chunk at a
        # time, and report hands every stack to the writer as consecutive
        # chunks.  One full-length float array, such as the lock-in output,
        # would add 8 B.  The writer takes the chunks of each stack of its
        # call, the three that share the run grid among them, as write_csv
        # does but formats nothing, as formatting under tracemalloc is slow;
        # its own memory is pinned in test_signals
        def take_chunks(signal, path, *more):
            for stack, _ in [(signal, path), *more]:
                _, chunks = stack if isinstance(stack, tuple) else (stack.grid, [stack.values])
                for chunk in chunks:
                    del chunk  # not held while the next one is made

        monkeypatch.setattr(rotolock.signals, "write_csv", take_chunks)

        def run(cfg):
            res = run_simulation(cfg)
            if writes:
                report(res, tmp_path)

        short, long = (SimConfig(duration=d, noise=NoiseSpec(kind=kind)) for d in (0.3, 0.6))
        run(short)
        growth = (self._peak(run, long) - self._peak(run, short)) / (
            long.n_samples - short.n_samples
        )
        assert growth < 1.0

    def test_default_run_peak_memory(self, monkeypatch):
        # a first run makes NumPy's lazy imports and caches (in a fresh process
        # it peaks near 1.7e6 B) and hands over the lock-in's kernel inputs.
        # Then the run peaks at about 0.450e6 B as it sums the error of the
        # lock-in's last chunk, written over its read, one period longer than
        # the chunk: there `_Deviation` evaluates the measured sine's one
        # period (10 000 samples), and `synth` holds three period-length
        # arrays, 0.24e6 B (0.531e6 B while it held four; 0.544e6 B while
        # the kernel held its plain sources).  The kernel alone, replayed on
        # the noisy sum as an array and drained chunk by chunk, peaks at
        # about 0.32e6 B: one chunk's copied periods with its output written
        # over them, block weights and operand (fed by the reader it peaked
        # at 0.44e6 B while it wrote each output to an array of its own).
        # The bounds sit 9 % above 0.450e6 and 0.366e6 B, inside the
        # benchmark's 10 % peak_alloc_mb gate.  On the 15 000-sample default
        # run the chunk of periods is the whole signal but its first period,
        # so chunk-sized scratch (118 KB) takes the kernel past its bound.
        # The kernel lets go of its weights (0.13e6 B) before it hands on
        # that last chunk; a kernel that held them while the run sums it
        # would peak at about 0.59e6 B, past the run's bound
        kernel, calls = rotolock.lockin.window_chunks, []
        monkeypatch.setattr(
            rotolock.lockin, "window_chunks", lambda *a: calls.append(a) or kernel(*a)
        )
        run_simulation(SimConfig())
        monkeypatch.undo()
        reader, *args = calls[0]
        x = reader[:]  # the run reads it one chunk at a time; the replay reads the array
        assert isinstance(x, np.ndarray) and len(x) == len(reader)

        def drain():
            for _ in kernel(x, *args):
                pass

        peaks = [self._peak(run_simulation, SimConfig()), self._peak(drain)]
        assert peaks[0] < 491_000
        assert peaks[1] < 400_000

    def test_default_report_peaks_below_the_run(self, tmp_path):
        # the benchmark's simulate-default peak is the run's (0.434 MiB
        # measured); report, which formats each 256-row block of the four
        # full-rate stacks into byte fields, peaks below it (0.405 MiB, at the
        # restored.csv call, which replays the lock-in as it writes).  A
        # first run and report make NumPy's lazy imports and caches
        res = run_simulation(SimConfig())
        report(res, tmp_path / "first")
        assert self._peak(report, res, tmp_path / "out") < self._peak(run_simulation, SimConfig())

    @pytest.mark.parametrize("kind", ["step", "sine"])
    def test_no_full_length_finiteness_scan(self, monkeypatch, kind):
        # every signal checks its own values, and a run builds no full-length
        # signal: the noisy sum is checked one chunk at a time as the lock-in
        # reads it, the lock-in output one chunk at a time as the lock-in
        # makes it, the product over its one shared period, and the measured sine
        # over one period
        cfg = SimConfig(duration=0.3, noise=NoiseSpec(kind=kind))
        isfinite = np.isfinite
        scans = []

        def counting(x, *args, **kwargs):
            if np.size(x) == cfg.n_samples:
                scans.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        run_simulation(cfg)
        assert scans == []

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"signal_freq": 37.0}, {"duration": 0.3001}, {"f_m": 250.0, "dt": 1e-6}],
        # 37 Hz has no shared period; 0.3001 s makes three chunks of the
        # lock-in and a partial last period; at f_m = 250 Hz and dt = 1 us a
        # period of 4 000 samples, whose block weights fit _WEIGHT_FLOATS
        ids=["default", "37Hz", "chunks-and-partial-period", "long-period"],
    )
    @pytest.mark.parametrize("kind", ["step", "sine", "none"])
    def test_lockin_reads_the_noisy_sum_by_chunks(self, overrides, kind):
        # the lock-in reads the noisy sum one chunk at a time: the bits of
        # slope_compensate on the whole sum, which is the tiled product plus
        # the noise
        cfg = SimConfig(noise=NoiseSpec(kind=kind), **overrides)
        res = run_simulation(cfg)
        noisy = res.modulated_noisy
        assert noisy.values.tobytes() == (res.modulated.values + res.noise.values).tobytes()
        m = modulation_series(cfg.modulation, cfg.f_m)
        r = synth_demod_reference(
            cfg.f_m, cfg.ref_kind, cfg.modulation.n_harmonics, cfg.ref_phase_delay
        )
        restored = slope_compensate(noisy, m, r, res.metrics["channel"])
        assert res.restored_full.grid == restored.grid
        assert res.restored_full.values.tobytes() == restored.values.tobytes()

    def test_overflow_past_the_first_chunk_is_refused(self):
        # the reader checks each range it fills: a sum that leaves the float
        # range only past the lock-in's first chunk is refused when the
        # kernel reads it, with the message of every other overflowing signal
        grid = TimeGrid(dt=2e-6, n=150_000)
        trace = np.zeros(grid.n)
        trace[100_000:101_000] = 1.7e308  # one period of the sine noise
        reader = _NoisySum(NoiseSpec(kind="sine", amplitude=8e307), grid, SampledSignal(grid, trace))
        assert np.all(np.isfinite(reader[0:_BLOCK_SAMPLES]))
        message = "^signal values must all be finite$"
        with pytest.raises(PreconditionError, match=message):
            reader[_BLOCK_SAMPLES : grid.n]
        with pytest.raises(PreconditionError, match=message):
            window_sums(reader, np.full(200, 2e-6))

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"signal_freq": 37.0}, {"duration": 0.3001}, {"f_m": 250.0, "dt": 1e-6},
         {"signal_freq": 37.0, "duration": 0.3001},
         {"f_m": 125.0, "dt": 1e-6, "duration": 0.6001}],
        # a period of 4 000 samples, whose block weights fit _WEIGHT_FLOATS;
        # one of 8 000, whose weights do not: the running sums over eleven chunks
        ids=["default", "37Hz", "chunks-and-partial-period", "long-period", "37Hz-chunks",
             "running-sums"],
    )
    @pytest.mark.parametrize("kind", ["step", "sine"])
    def test_metrics_from_the_chunks_are_those_of_the_whole_output(self, overrides, kind):
        # the run takes its picks and its full-rate error from the lock-in's
        # chunks as they come: the bits of downsample_at_phase on the whole
        # output, and of the error summed chunk by chunk
        cfg = SimConfig(noise=NoiseSpec(kind=kind), **overrides)
        res = run_simulation(cfg)
        whole = res.restored_full
        down = downsample_at_phase(whole, cfg.f_m, cfg.downsample_phase)
        assert res.restored_downsampled.grid == down.grid
        assert res.restored_downsampled.values.tobytes() == down.values.tobytes()
        # the error: summed over each chunk of the lock-in from the end of the
        # warm-up on, against the sine over the grid from there (as synth
        # tiles one period) when its period has at most _BLOCK_SAMPLES
        # samples, else against the sine evaluated on the chunk's own slice
        grid, chunks = res.stack("restored.csv")
        start = res.warmup

        def sine(i, j):  # over samples [i, j) of grid
            return measured_signal(cfg, TimeGrid(grid.dt, j - i, grid.t0 + i * grid.dt)).values

        tiled = period_grid(grid, cfg.signal_freq).n <= _BLOCK_SAMPLES
        laid = sine(start, grid.n) if tiled else None
        total, i = 0.0, 0
        for chunk in chunks:
            lo, j = max(i, start), i + len(chunk)
            if lo < j:
                wave = laid[lo - start : j - start] if tiled else sine(lo, j)
                dev = chunk[lo - i :] - wave
                total += float(np.dot(dev, dev))
            i = j
        assert res.metrics["rms_error_full"] == math.sqrt(total / (grid.n - start))

    # a slow sine of a large amplitude, with no noise: the lock-in's sums
    # overflow once the sine has grown, past the third chunk of its output
    LATE_OVERFLOW = {
        "duration": 0.6, "signal_freq": 0.25, "signal_amp": 4e304, "noise": {"kind": "none"},
    }

    def test_overflow_past_the_first_output_chunks_is_refused(self):
        # each output chunk is computed with NumPy's overflow warnings off and
        # checked finite by the lock-in's stream as it comes: the finite
        # chunks are handed on, the first that is not is refused with the one
        # message of every other overflowing signal, and no RuntimeWarning,
        # whichever chunk overflows.  While the consumer holds a chunk,
        # NumPy's error state is its own: the kernel's is not left set across
        # its yield
        cfg = SimConfig.from_dict(self.LATE_OVERFLOW)
        m, r = _series(cfg)
        period = modulate(measured_signal(cfg, cfg.grid), m)
        noisy = _NoisySum(cfg.noise, cfg.grid, period)
        state = np.geterr()
        finite = []
        message = "^signal values must all be finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=message):
                for chunk in _lockin_chunks(cfg.grid, noisy, m, r, "even", compensate=True)[1]:
                    assert np.geterr() == state
                    finite.append(bool(np.all(np.isfinite(chunk))))
            assert len(finite) >= 3 and all(finite)
            with pytest.raises(PreconditionError, match=message):
                run_simulation(cfg)

    def test_report_refuses_a_late_overflow(self, tmp_path):
        # report runs the lock-in again on a result's noisy sum, so a result
        # built by hand for a run that run_simulation refuses is refused when
        # its restored stack is written: restored.csv keeps the rows of every
        # finite chunk before the refusal, as the writer writes each chunk
        # whole before it takes the next, and nothing after it is written
        cfg = SimConfig.from_dict(self.LATE_OVERFLOW)
        period = modulate(measured_signal(cfg, cfg.grid), _series(cfg)[0])
        down = SampledSignal(TimeGrid(1.0 / cfg.f_m, 1), np.zeros(1))
        res = SimResult(cfg, period, down, {"channel": "even"})
        with pytest.raises(PreconditionError, match="^signal values must all be finite$"):
            report(res, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(STACKS[:4])
        rows = (tmp_path / "restored.csv").read_text().splitlines()[1:]
        assert 0 < len(rows) < cfg.n_samples
        assert np.all(np.isfinite(np.array([row.split(",") for row in rows], dtype=float)))

    def test_cli_refuses_a_late_overflow_under_warnings_as_errors(self, tmp_path):
        # the same run through the console entry point, with every warning an
        # error: exit 3, one error line and no --out directory
        config = tmp_path / "late_overflow.json"
        config.write_text(json.dumps(self.LATE_OVERFLOW))
        src = Path(rotolock.__file__).resolve().parents[1]
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); from rotolock.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: signal values must all be finite\n"
        assert not (tmp_path / "out").exists()

    @SHARED_PERIOD_GRIDS
    def test_tiled_modulated_is_the_full_product(self, freq, duration):
        # the product is computed over the shared period of the sine and the
        # modulation and tiled over the run when `modulated` is read
        cfg = SimConfig(signal_freq=freq, duration=duration)
        grid = TimeGrid(cfg.dt, cfg.n_samples)
        full = modulate(measured_signal(cfg, grid), modulation_series(cfg.modulation, cfg.f_m))
        assert np.array_equal(run_simulation(cfg).modulated.values, full.values)

    @SHARED_PERIOD_GRIDS
    @pytest.mark.parametrize("kind", ["step", "sine", "none"])
    def test_noisy_sum_is_the_tiled_product_plus_the_noise(self, freq, duration, kind):
        # the noise is added to the one-period product row by row, then the
        # tail: the bits of the tiled product plus the noise.  gen_noise of
        # the spec and the period is the one reading of it over the grid
        cfg = SimConfig(signal_freq=freq, duration=duration, noise=NoiseSpec(kind=kind))
        res = run_simulation(cfg)
        summed = res.modulated.values + res.noise.values
        assert res.modulated_noisy.values.tobytes() == summed.tobytes()
        noisy = whole_noise(cfg.noise, cfg.grid, res.modulated_period)
        assert noisy.grid == res.modulated_noisy.grid == cfg.grid
        assert noisy.values.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("kind", ["step", "sine", "none"])
    def test_noise_is_drawn_from_its_spec_when_read(self, kind):
        # the run keeps the noise as its config's spec, not as an array: each
        # read draws it again, with the bits gen_noise gives on the run's grid
        cfg = SimConfig(noise=NoiseSpec(kind=kind))
        res = run_simulation(cfg)
        expected = whole_noise(cfg.noise, TimeGrid(cfg.dt, cfg.n_samples)).values.tobytes()
        assert res.config is cfg and cfg.grid == TimeGrid(cfg.dt, cfg.n_samples)
        assert [res.noise.values.tobytes() for _ in range(2)] == [expected, expected]

    def test_equality_is_identity(self):
        # a result holds arrays: == and hash go by identity and never raise
        cfg = SimConfig()
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert (a == b) is False and (a == a) is True and (a != b) is True
        assert hash(a) != hash(b) and {a, b, a} == {a, b}

    def test_no_tile_over_the_run(self, monkeypatch):
        # the run keeps the modulated trace as its shared period: no array is
        # tiled onto the run's grid, and `modulated` lays the period out by
        # range, as report writes it, rather than tiling it
        tile = rotolock.signals.tile
        cfg = SimConfig(duration=0.3)
        run_grid = TimeGrid(cfg.dt, cfg.n_samples)
        onto_run = []

        def counting(period, grid):
            if grid == run_grid:
                onto_run.append(len(period))
            return tile(period, grid)

        for name, module in list(sys.modules.items()):
            if name.startswith("rotolock") and getattr(module, "tile", None) is tile:
                monkeypatch.setattr(module, "tile", counting)
        res = run_simulation(cfg)
        assert onto_run == []
        modulated = res.modulated
        assert modulated.grid == run_grid and onto_run == []
        assert modulated.values.tobytes() == tile(res.modulated_period.values, run_grid).values.tobytes()

    def test_synth_evaluates_one_run_of_samples(self, monkeypatch):
        # synth evaluates the samples of `period_grid` and tiles them: the
        # measured waveform over the 10 000 samples that it and the
        # modulation share and again in the first block of the error sum,
        # the down-sampled grid and one-period tables; nothing is evaluated
        # over the whole run
        synth = rotolock.signals.synth
        evaluated = []

        def counting(series, grid):
            evaluated.append(period_grid(grid, series.f_fund).n)
            return synth(series, grid)

        for name, module in list(sys.modules.items()):
            if name.startswith("rotolock") and getattr(module, "synth", None) is synth:
                monkeypatch.setattr(module, "synth", counting)
        cfg = SimConfig(duration=0.6)
        run_simulation(cfg)
        spp = cfg.samples_per_period
        assert len(evaluated) == 6
        assert sum(evaluated) <= 2 * 10_000 + 3 * spp + 50


STACKS = (
    "noise.csv", "modulated.csv", "modulated_noisy.csv", "restored.csv",
    "restored_downsampled.csv",
)


class TestReport:
    def test_writes_six_files_with_matching_row_counts(self, tmp_path):
        cfg = SimConfig()
        res = run_simulation(cfg)
        summary = report(res, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(STACKS + ("metrics.json",))
        assert sorted(summary["files"]) == sorted(str(tmp_path / n) for n in names)
        for name in STACKS[:-1]:  # the full-rate stacks
            rows = (tmp_path / name).read_text().splitlines()
            assert len(rows) == 1 + cfg.n_samples
        rows = (tmp_path / "restored_downsampled.csv").read_text().splitlines()
        assert len(rows) == 1 + res.metrics["n_downsampled"]

    def test_metrics_json_contents(self, tmp_path):
        res = run_simulation(SimConfig())
        report(res, tmp_path)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert "rms_error_downsampled" in metrics
        assert "rms_error_full" in metrics
        assert "spike_windows" in metrics
        assert metrics["bandwidth_hz"] == 1250.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = SimConfig()
        first = tmp_path / "a"
        second = tmp_path / "b"
        report(run_simulation(cfg), first)
        report(run_simulation(cfg), second)
        for name in STACKS + ("metrics.json",):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [{"duration": 0.3001}, {"f_m": 250.0, "dt": 1e-6},
         {"f_m": 125.0, "dt": 1e-6, "duration": 0.2001, "noise": NoiseSpec(kind="sine")}],
        # three chunks of the lock-in and a partial last period; a period of
        # 4 000 samples, whose block weights fit _WEIGHT_FLOATS; one of 8 000,
        # whose weights do not: the running sums over four chunks
        ids=["chunks-and-partial-period", "long-period", "running-sums"],
    )
    def test_streamed_stacks_are_the_bytes_of_the_whole_signals(self, tmp_path, overrides):
        # report hands each full-rate stack to the writer as consecutive
        # chunks; each file has the bytes of write_csv of the whole signal,
        # built here without SimResult.stack, which the properties read
        cfg = SimConfig(**overrides)
        res = run_simulation(cfg)
        report(res, tmp_path / "streamed")
        grid, period = cfg.grid, res.modulated_period
        noisy = whole_noise(cfg.noise, grid, period)
        m, r = _series(cfg)
        restored = slope_compensate(noisy, m, r, res.metrics["channel"])
        for name, signal in (("noise.csv", whole_noise(cfg.noise, grid)),
                             ("modulated.csv", tile(period.values, grid)),
                             ("modulated_noisy.csv", noisy), ("restored.csv", restored)):
            write_csv(signal, tmp_path / name)
            assert (tmp_path / "streamed" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_modulated_stack_keeps_its_negative_zeros(self, tmp_path):
        # modulated.csv lays the period over each range rather than adding it
        # to the noise reader's 0.0 level: a 0 Hz run whose modulation dips
        # below 0 writes the -0.0 of its trace, and modulated_noisy.csv, the
        # trace plus no noise, writes 0.0 there
        cfg = SimConfig(signal_freq=0.0, noise=NoiseSpec(kind="none"),
                        modulation=ModulationFit(offset=0.0))
        res = run_simulation(cfg)
        report(res, tmp_path / "streamed")
        write_csv(res.modulated, tmp_path / "modulated.csv")
        streamed = (tmp_path / "streamed" / "modulated.csv").read_bytes()
        assert streamed == (tmp_path / "modulated.csv").read_bytes()
        assert b",-0\n" in streamed
        assert b",-0\n" not in (tmp_path / "streamed" / "modulated_noisy.csv").read_bytes()

    def test_cli_writes_what_report_writes(self, tmp_path):
        # `rotolock simulate` is report(run_simulation(cfg)) plus its manifest
        lib, cli = tmp_path / "lib", tmp_path / "cli"
        report(run_simulation(SimConfig(noise=NoiseSpec(seed=7))), lib)
        assert main(["simulate", "--seed", "7", "--out", str(cli)]) == 0
        names = sorted(p.name for p in lib.iterdir())
        assert sorted(p.name for p in cli.iterdir()) == sorted(names + ["manifest.json"])
        for name in names:
            assert (lib / name).read_bytes() == (cli / name).read_bytes(), name
