"""End-to-end measurement-chain simulation.

Builds the measured waveform, modulates it, injects step or sine
disturbance, demodulates with a delayed reference via numeric gain
calibration, removes the first-order slope ripple of the one-period window,
down-samples phase-locked to the modulation, and reports
recovery metrics.  Runs are pure functions of their configuration
(noise included, via the seed), so identical configurations give
bit-identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, PreconditionError, reject_unknown_keys
from .lockin import (
    demod_gain_numeric,
    demodulate,
    modulate,
    slope_compensate,
    split_even_odd,
)
from .modulation import ModulationFit, modulation_series
from .reference import synth_demod_reference
from .signals import SampledSignal, TimeGrid, downsample_at_phase, synth, write_csv

_NOISE_KINDS = ("step", "sine", "none")
_REF_KINDS = ("square", "sine")


@dataclass(frozen=True)
class NoiseSpec:
    """Disturbance injected after modulation.

    kind="step": piecewise-constant levels uniform in [-amplitude, amplitude]
    switching at exponentially distributed intervals with mean 1/rate_or_freq.
    kind="sine": amplitude*sin(2*pi*rate_or_freq*t).  kind="none": zeros.
    """

    kind: str = "step"
    amplitude: float = 10.0
    rate_or_freq: float = 500.0
    seed: int = 1234

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {_NOISE_KINDS}, got {self.kind!r}")
        if not (self.amplitude >= 0.0):
            raise ConfigError(f"noise amplitude must be >= 0, got {self.amplitude}")
        if self.kind != "none" and not (self.rate_or_freq > 0.0):
            raise ConfigError(
                f"rate_or_freq must be positive for kind {self.kind!r}, got {self.rate_or_freq}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "rate_or_freq": self.rate_or_freq,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        reject_unknown_keys(d, {"kind", "amplitude", "rate_or_freq", "seed"}, "noise")
        defaults = cls()
        return cls(
            kind=str(d.get("kind", defaults.kind)),
            amplitude=float(d.get("amplitude", defaults.amplitude)),
            rate_or_freq=float(d.get("rate_or_freq", defaults.rate_or_freq)),
            seed=int(d.get("seed", defaults.seed)),
        )


@dataclass(frozen=True)
class SimConfig:
    dt: float = 2e-6
    duration: float = 0.03
    f_m: float = 2500.0
    signal_freq: float = 50.0
    signal_amp: float = 1.0
    ref_kind: str = "square"
    ref_phase_delay: float = np.pi / 6.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    downsample_phase: float = 0.0
    modulation: ModulationFit = field(default_factory=ModulationFit)

    def __post_init__(self):
        if self.ref_kind not in _REF_KINDS:
            raise ConfigError(f"ref_kind must be one of {_REF_KINDS}, got {self.ref_kind!r}")
        for name, value in (("dt", self.dt), ("duration", self.duration), ("f_m", self.f_m)):
            if not (value > 0.0):
                raise ConfigError(f"{name} must be positive, got {value}")
        spp = 1.0 / (self.f_m * self.dt)
        if abs(spp - round(spp)) > 1e-6 * spp or round(spp) < 1:
            raise ConfigError(
                f"1/(f_m*dt) must be a positive integer, got {spp:.6g}"
            )
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > 1e-6 * steps or round(steps) < 1:
            raise ConfigError(
                f"duration/dt must be a positive integer, got {steps:.6g}"
            )

    @property
    def samples_per_period(self) -> int:
        return int(round(1.0 / (self.f_m * self.dt)))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "duration": self.duration,
            "f_m": self.f_m,
            "signal_freq": self.signal_freq,
            "signal_amp": self.signal_amp,
            "ref_kind": self.ref_kind,
            "ref_phase_delay": self.ref_phase_delay,
            "noise": self.noise.to_dict(),
            "downsample_phase": self.downsample_phase,
            "modulation": self.modulation.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {
            "dt", "duration", "f_m", "signal_freq", "signal_amp", "ref_kind",
            "ref_phase_delay", "noise", "downsample_phase", "modulation",
        }
        reject_unknown_keys(d, known, "simulation")
        defaults = cls()
        return cls(
            dt=float(d.get("dt", defaults.dt)),
            duration=float(d.get("duration", defaults.duration)),
            f_m=float(d.get("f_m", defaults.f_m)),
            signal_freq=float(d.get("signal_freq", defaults.signal_freq)),
            signal_amp=float(d.get("signal_amp", defaults.signal_amp)),
            ref_kind=str(d.get("ref_kind", defaults.ref_kind)),
            ref_phase_delay=float(d.get("ref_phase_delay", defaults.ref_phase_delay)),
            noise=NoiseSpec.from_dict(d.get("noise", {})),
            downsample_phase=float(d.get("downsample_phase", defaults.downsample_phase)),
            modulation=ModulationFit.from_dict(d.get("modulation", {})),
        )


@dataclass(frozen=True)
class SimResult:
    original: SampledSignal
    noise: SampledSignal
    modulated: SampledSignal
    modulated_noisy: SampledSignal
    restored_full: SampledSignal
    restored_downsampled: SampledSignal
    warmup: int
    metrics: dict


def gen_noise(spec: NoiseSpec, grid: TimeGrid) -> SampledSignal:
    """Generate the disturbance signal for a grid; seeded and reproducible."""
    t = grid.times()
    if spec.kind == "none" or spec.amplitude == 0.0:
        return SampledSignal(grid, np.zeros(grid.n))
    if spec.kind == "sine":
        return SampledSignal(grid, spec.amplitude * np.sin(2.0 * np.pi * spec.rate_or_freq * t))

    rng = np.random.default_rng(spec.seed)
    t_end = grid.t0 + grid.duration
    boundaries = []  # times where a new level starts
    levels = [float(rng.uniform(-spec.amplitude, spec.amplitude))]
    t_cur = grid.t0
    while True:
        t_cur += float(rng.exponential(1.0 / spec.rate_or_freq))
        if t_cur >= t_end:
            break
        boundaries.append(t_cur)
        levels.append(float(rng.uniform(-spec.amplitude, spec.amplitude)))
    seg = np.searchsorted(np.asarray(boundaries), t, side="right")
    return SampledSignal(grid, np.asarray(levels)[seg])


def _step_sample_indices(noise: SampledSignal) -> np.ndarray:
    """Indices where the piecewise-constant noise switches to a new level."""
    v = noise.values
    return np.flatnonzero(v[1:] != v[:-1]) + 1


def step_contamination_mask(noise: SampledSignal, window_samples: int) -> np.ndarray:
    """Boolean mask over output samples whose integration window contains a
    noise step.  Output j integrates input samples j-window..j, so a level
    change at input i contaminates outputs i..i+window-1."""
    n = noise.grid.n
    steps = _step_sample_indices(noise)
    if len(steps) == 0:
        return np.zeros(n, dtype=bool)
    # windows that overlap or touch merge into contaminated runs [start, end)
    first = np.diff(steps, prepend=-window_samples - 1) > window_samples
    starts = steps[first]
    ends = np.minimum(steps[np.append(first[1:], True)] + window_samples, n)
    # run lengths of [0, start_0), [start_0, end_0), [end_0, start_1), ..., [end_last, n)
    lengths = np.diff(np.column_stack((starts, ends)).ravel(), prepend=0, append=n)
    return np.repeat(np.arange(len(lengths)) % 2 == 1, lengths)


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run the full chain and compute recovery metrics.

    The restored signal is the slope-compensated lock-in output
    (lockin.slope_compensate) and carries window-center time labels (see
    lockin.demodulate), so it is compared against the measured waveform
    evaluated at its own sample times; the downsampled channel keeps one
    sample per modulation period at the configured modulation phase.
    Metrics exclude the warm-up period, and the downsampled error also
    excludes windows contaminated by a noise step.
    """
    grid = TimeGrid(cfg.dt, cfg.n_samples, 0.0)
    t = grid.times()
    f_sig = cfg.signal_freq

    def signal_at(times):
        return cfg.signal_amp * np.sin(2.0 * np.pi * f_sig * times)

    original = SampledSignal(grid, signal_at(t))
    m_series = modulation_series(cfg.modulation, cfg.f_m)
    modulated = modulate(original, synth(m_series, grid))
    noise = gen_noise(cfg.noise, grid)
    noisy = SampledSignal(grid, modulated.values + noise.values)

    period = 1.0 / cfg.f_m
    l = cfg.modulation.n_harmonics
    ref_series = synth_demod_reference(period, cfg.ref_kind, l, cfg.ref_phase_delay)
    ref = split_even_odd(ref_series)
    gain = demod_gain_numeric(m_series, ref)
    channel = "even" if abs(gain.g_even) >= abs(gain.g_odd) else "odd"

    restored = slope_compensate(
        demodulate(noisy, ref, gain, channel), noisy, m_series, ref, gain, channel
    )
    restored_full = restored.signal
    warmup = restored.warmup
    down = downsample_at_phase(restored_full, cfg.f_m, cfg.downsample_phase)

    # full-rate error, warm-up excluded (noise spikes stay in: they are the output)
    target_full = signal_at(restored_full.times())
    dev_full = restored_full.values[warmup:] - target_full[warmup:]
    rms_full = float(np.sqrt(np.mean(dev_full**2)))

    # downsampled error: also exclude windows that contain a noise step
    spp = cfg.samples_per_period
    k0 = int(round((down.grid.t0 - restored_full.grid.t0) / cfg.dt))
    ds_idx = k0 + np.arange(down.grid.n) * spp
    if cfg.noise.kind == "step":
        contaminated = step_contamination_mask(noise, spp)
    else:
        contaminated = np.zeros(grid.n, dtype=bool)
    spike_windows = [int(k) for k in np.flatnonzero(contaminated[ds_idx])]
    good = (ds_idx >= warmup) & ~contaminated[ds_idx]
    if not np.any(good):
        raise PreconditionError(
            "every downsampled window is warm-up or contains a noise step; "
            "lengthen the run or lower the step rate"
        )
    dev_down = down.values[good] - signal_at(down.times()[good])
    rms_down = float(np.sqrt(np.mean(dev_down**2)))

    # what a fixed, phase-aligned gain would have applied: the ratio shows the
    # scale (and sign, for a half-period flip) error of skipping calibration;
    # None when the aligned gain on this channel is below the floor (an
    # aligned reference has no odd part, so always on the odd channel)
    aligned = split_even_odd(synth_demod_reference(period, cfg.ref_kind, l, 0.0))
    aligned_gain = demod_gain_numeric(m_series, aligned)
    scale = None
    if aligned_gain.usable(channel):
        scale = gain.channel_gain(channel) / aligned_gain.channel_gain(channel)

    metrics = {
        "rms_error_full": rms_full,
        "rms_error_downsampled": rms_down,
        "spike_windows": spike_windows,
        "bandwidth_hz": cfg.f_m / 2.0,
        "warmup_samples": warmup,
        "n_downsampled": down.grid.n,
        "channel": channel,
        "gain_even": gain.g_even,
        "gain_odd": gain.g_odd,
        "gain_scale_vs_aligned": scale,
        "group_delay_s": period / 2.0,
    }
    return SimResult(
        original=original,
        noise=noise,
        modulated=modulated,
        modulated_noisy=noisy,
        restored_full=restored_full,
        restored_downsampled=down,
        warmup=warmup,
        metrics=metrics,
    )


def report(result: SimResult, out_dir) -> dict:
    """Write the signal stacks and metrics to a directory.

    Emits noise.csv, modulated.csv, modulated_noisy.csv, restored.csv and
    metrics.json; returns a summary with the file paths and metric values.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        stacks = {
            "noise.csv": result.noise,
            "modulated.csv": result.modulated,
            "modulated_noisy.csv": result.modulated_noisy,
            "restored.csv": result.restored_full,
        }
        for name, sig in stacks.items():
            write_csv(sig, out / name)
        metrics_path = out / "metrics.json"
        with open(metrics_path, "w") as fh:
            json.dump(result.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing simulation outputs under {out}: {exc}") from exc
    files = [str(out / name) for name in stacks] + [str(metrics_path)]
    return {"files": files, "metrics": dict(result.metrics)}
