import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rotolock.cli import main
from rotolock.errors import ConfigError
from rotolock.modulation import ModulationFit
from rotolock.sim import (
    NoiseSpec,
    SimConfig,
    gen_noise,
    measured_signal,
    report,
    run_simulation,
    step_contamination_mask,
)
import rotolock.signals
from rotolock.signals import _BLOCK_SAMPLES, SampledSignal, TimeGrid


def default_grid():
    return TimeGrid(dt=2e-6, n=15000, t0=0.0)


def signal_at(cfg, times):
    return cfg.signal_amp * np.sin(2.0 * np.pi * cfg.signal_freq * times)


class TestGenNoise:
    def test_same_seed_is_bit_identical(self):
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=99)
        a = gen_noise(spec, default_grid())
        b = gen_noise(spec, default_grid())
        assert np.array_equal(a.values, b.values)

    def test_sine_noise_peaks_at_amplitude(self):
        spec = NoiseSpec(kind="sine", amplitude=10.0, rate_or_freq=10.0, seed=0)
        grid = TimeGrid(dt=2e-6, n=50000)  # 0.1 s covers a full 10 Hz period
        out = gen_noise(spec, grid)
        assert np.max(np.abs(out.values)) == pytest.approx(10.0, rel=1e-6)

    def test_none_kind_is_zero(self):
        out = gen_noise(NoiseSpec(kind="none"), default_grid())
        assert np.all(out.values == 0.0)

    def test_step_levels_bounded_and_rate_matches(self):
        grid = default_grid()
        counts = []
        for seed in range(50):
            spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=seed)
            out = gen_noise(spec, grid)
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

    # 1e-9/s draws no boundary; 5e5/s is one step per sample on average (1/dt)
    @pytest.mark.parametrize("rate", [1e-9, 500.0, 1e5, 5e5])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_step_levels_match_sample_search(self, rate, seed):
        grid = TimeGrid(dt=2e-6, n=15000, t0=0.37 / 2500.0 - 1e-3)
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=rate, seed=seed)
        expected = self.step_noise_by_sample_search(spec, grid)
        assert np.array_equal(gen_noise(spec, grid).values, expected)

    def test_boundary_on_a_sample_time_starts_its_level_there(self):
        # a grid whose step is the first drawn interval puts the first
        # boundary exactly on sample 1
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=500.0, seed=5)
        rng = np.random.default_rng(spec.seed)
        rng.uniform()
        grid = TimeGrid(dt=float(rng.exponential(1.0 / spec.rate_or_freq)), n=40)
        values = gen_noise(spec, grid).values
        assert np.array_equal(values, self.step_noise_by_sample_search(spec, grid))
        assert values[1] != values[0]

    # far from t = 0 the rounded sample times t0 + k*dt are coarser than dt
    # (ulp(1e9) is 1.2e-7), so ceil((b - t0)/dt) can miss by several samples;
    # the last grid starts before t = 0
    @pytest.mark.parametrize("t0, dt", [(1e9, 5e-8), (1e9, 3e-7), (-4.2e4, 1e-9)])
    def test_step_levels_match_sample_search_on_coarse_times(self, t0, dt):
        grid = TimeGrid(dt=dt, n=4000, t0=t0)
        spec = NoiseSpec(kind="step", amplitude=10.0, rate_or_freq=0.02 / dt, seed=3)
        expected = self.step_noise_by_sample_search(spec, grid)
        assert np.array_equal(gen_noise(spec, grid).values, expected)

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
        noise = gen_noise(NoiseSpec(kind=kind, rate_or_freq=rate, seed=3), default_grid())
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

    def test_full_error_of_a_period_longer_than_a_block(self):
        # a 5 Hz period is 100 000 samples, past _BLOCK_SAMPLES: the error sum
        # evaluates the waveform block by block, not one period tiled
        cfg = SimConfig(signal_freq=5.0, duration=0.3)
        assert round(1.0 / (cfg.signal_freq * cfg.dt)) > _BLOCK_SAMPLES
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

    def test_spike_windows_really_contain_steps(self):
        cfg = SimConfig()
        res = run_simulation(cfg)
        spp = cfg.samples_per_period
        contaminated = step_contamination_mask(res.noise, spp)
        k0 = int(round((res.restored_downsampled.grid.t0 - res.restored_full.grid.t0) / cfg.dt))
        for k in res.metrics["spike_windows"]:
            assert contaminated[k0 + k * spp]

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


class TestSimResultArrays:
    def test_every_stack_is_read_only(self):
        cfg = SimConfig()
        res = run_simulation(cfg)
        for stack in (measured_signal(cfg, TimeGrid(cfg.dt, cfg.n_samples)), res.noise,
                      res.modulated, res.modulated_noisy, res.restored_full,
                      res.restored_downsampled):
            assert not stack.values.flags.writeable
            with pytest.raises(ValueError):
                stack.values[0] = 0.0

    def test_peak_memory_per_sample(self):
        # the run holds about five full-length arrays at its peak (42 B per
        # sample at this length); one more full-length copy, such as keeping
        # the measured sine to the end of the run, would take it past the bound
        cfg = SimConfig(duration=0.3)
        tracemalloc.start()
        try:
            run_simulation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfg.n_samples == 150_000
        assert peak / cfg.n_samples < 45.0

    def test_default_run_peak_memory(self):
        # about 0.89e6 B; on the 15 000-sample default run the lock-in's chunk
        # of periods is the whole signal, so chunk-sized scratch (one more
        # full-length array) would take it past the bound
        tracemalloc.start()
        try:
            run_simulation(SimConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_synth_evaluates_one_run_of_samples(self, monkeypatch):
        # the measured waveform in full, the first block of the error sum, the
        # down-sampled grid and one-period tables; the modulation is not
        # evaluated over the whole run
        synth = rotolock.signals.synth
        asked = []

        def counting(series, grid):
            asked.append(grid.n)
            return synth(series, grid)

        for name, module in list(sys.modules.items()):
            if name.startswith("rotolock") and getattr(module, "synth", None) is synth:
                monkeypatch.setattr(module, "synth", counting)
        cfg = SimConfig(duration=0.6)
        run_simulation(cfg)
        spp = cfg.samples_per_period
        assert len(asked) == 6
        assert sum(asked) <= cfg.n_samples + _BLOCK_SAMPLES + cfg.n_samples // spp + 3 * spp


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

    def test_cli_writes_what_report_writes(self, tmp_path):
        # `rotolock simulate` is report(run_simulation(cfg)) plus its manifest
        lib, cli = tmp_path / "lib", tmp_path / "cli"
        report(run_simulation(SimConfig(noise=NoiseSpec(seed=7))), lib)
        assert main(["simulate", "--seed", "7", "--out", str(cli)]) == 0
        names = sorted(p.name for p in lib.iterdir())
        assert sorted(p.name for p in cli.iterdir()) == sorted(names + ["manifest.json"])
        for name in names:
            assert (lib / name).read_bytes() == (cli / name).read_bytes(), name
