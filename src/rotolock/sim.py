"""End-to-end measurement-chain simulation.

Builds the measured waveform, modulates it, injects step or sine
disturbance, demodulates with a delayed reference on the channel with the
larger gain, removes the first-order slope ripple of the one-period window,
down-samples phase-locked to the modulation, and reports
recovery metrics.  Runs are pure functions of their configuration
(noise included, via the seed), so identical configurations give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Config, check_size, write_json
from .errors import ConfigError, PreconditionError
from .lockin import CHANNELS, GAIN_FLOOR, channel_gain, modulate, slope_compensate
from .modulation import ModulationFit, modulation_series
from .reference import synth_demod_reference
from .signals import (
    _BLOCK_SAMPLES,
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    downsample_at_phase,
    frozen,
    integer_ratio,
    synth,
    write_csv,
)

_NOISE_KINDS = ("step", "sine", "none")
_REF_KINDS = ("square", "sine")


@dataclass(frozen=True)
class NoiseSpec(Config):
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
        # step levels are drawn uniform over [-amplitude, amplitude], a range
        # of 2*amplitude that must be a finite float
        if not self.amplitude <= np.finfo(float).max / 2.0:
            raise ConfigError(
                f"noise amplitude must leave the level range 2*amplitude finite, "
                f"got {self.amplitude}"
            )
        if self.kind != "none" and not (self.rate_or_freq > 0.0):
            raise ConfigError(
                f"rate_or_freq must be positive for kind {self.kind!r}, got {self.rate_or_freq}"
            )
        if self.seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimConfig(Config):
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
        spp = 1.0 / self.f_m / self.dt  # f_m*dt can underflow to 0
        if integer_ratio(spp) is None:
            raise ConfigError(f"1/(f_m*dt) must be a positive integer, got {spp:.10g}")
        steps = self.duration / self.dt
        if integer_ratio(steps) is None:
            raise ConfigError(f"duration/dt must be a positive integer, got {steps:.10g}")
        # the down-sampled channel keeps one sample per period, so a faster
        # tone aliases (a multiple of f_m reads as a constant)
        if not abs(self.signal_freq) < self.f_m / 2.0:
            raise ConfigError(
                f"|signal_freq| must be below the bandwidth f_m/2 = {self.f_m / 2.0:g} Hz, "
                f"got {self.signal_freq:g}"
            )
        # gen_noise draws one step at a time: more than one per sample is noise
        # the grid cannot hold, and an unbounded rate never finishes
        if self.noise.kind == "step" and not self.noise.rate_or_freq <= 1.0 / self.dt:
            raise ConfigError(
                f"step noise rate must not exceed the sample rate 1/dt = {1.0 / self.dt:g}, "
                f"got {self.noise.rate_or_freq:g}"
            )
        # a run's arrays hold n_samples entries, except synth's one-period table
        # of min(n_samples, spp) x harmonics; by the rule above the expected
        # step count rate_or_freq*duration is at most n_samples, so the first
        # bound also caps gen_noise's draws
        check_size("duration/dt", self.n_samples)
        check_size(
            "min(duration/dt, 1/(f_m*dt)) * harmonics",
            min(self.n_samples, self.samples_per_period) * self.modulation.n_harmonics,
        )

    @property
    def samples_per_period(self) -> int:
        return int(round(1.0 / (self.f_m * self.dt)))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class SimResult:
    noise: SampledSignal
    modulated: SampledSignal
    modulated_noisy: SampledSignal
    restored_full: SampledSignal
    restored_downsampled: SampledSignal
    warmup: int
    metrics: dict


def _first_samples_at_or_after(grid: TimeGrid, times: np.ndarray) -> np.ndarray:
    """For each time b, the first index k whose sample time t0 + k*dt (as
    `grid.times()` rounds it) is >= b, or n when there is none: what
    `np.searchsorted(grid.times(), times, "left")` gives, in O(len(times)).

    k starts at ceil((b - t0)/dt) and is moved one sample at a time until
    the rounded sample times bracket b: off by one at most near t = 0, by a
    few where the times are coarser than dt.
    """
    k = np.clip(np.ceil((times - grid.t0) / grid.dt), 0, grid.n).astype(np.int64)
    while True:
        late = (k > 0) & (grid.t0 + (k - 1) * grid.dt >= times)
        early = (k < grid.n) & (grid.t0 + k * grid.dt < times)
        if not (late.any() or early.any()):
            return k
        k += early.astype(np.int64) - late


def gen_noise(spec: NoiseSpec, grid: TimeGrid) -> SampledSignal:
    """Generate the disturbance signal for a grid; seeded and reproducible."""
    if spec.kind == "none" or spec.amplitude == 0.0:
        return SampledSignal(grid, frozen(np.zeros(grid.n)))
    if spec.kind == "sine":
        sine = spec.amplitude * np.sin(2.0 * np.pi * spec.rate_or_freq * grid.times())
        return SampledSignal(grid, frozen(sine))

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
    # level i holds from the first sample at or after boundary i - 1 up to the
    # first sample at or after boundary i
    starts = _first_samples_at_or_after(grid, np.asarray(boundaries))
    counts = np.diff(starts, prepend=0, append=grid.n)
    return SampledSignal(grid, frozen(np.repeat(levels, counts)))


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


def measured_signal(cfg: SimConfig, grid: TimeGrid) -> SampledSignal:
    """The measured waveform signal_amp*sin(2*pi*signal_freq*t) on a grid.

    It is a one-harmonic series, so `synth` evaluates one period of it and
    tiles that when the period holds a whole number of samples; a negative
    frequency flips the sign of the sine, and a zero frequency gives zeros.
    """
    f = cfg.signal_freq
    if f == 0.0:
        return SampledSignal(grid, frozen(np.zeros(grid.n)))
    amp = cfg.signal_amp if f > 0.0 else -cfg.signal_amp
    return synth(HarmonicSeries(abs(f), 0.0, [0.0], [amp]), grid)


# an error past the float range gives inf, which run_simulation refuses
@np.errstate(over="ignore", invalid="ignore")
def _rms_after(cfg: SimConfig, restored: SampledSignal, start: int) -> float:
    """RMS of restored minus the measured waveform, over the samples from
    index `start` on.

    The sum of squares is taken one block at a time, so no full-length array
    is added to a long run's peak memory.  When the waveform's period holds
    a whole number of samples (up to _BLOCK_SAMPLES), a block is a whole
    number of periods and the waveform of the first block serves them all,
    as `synth` would have tiled it; otherwise each block is evaluated on its
    own slice of the grid.
    """
    grid = restored.grid
    f = abs(cfg.signal_freq)
    spp = integer_ratio(1.0 / f / grid.dt) if f > 0.0 else 1  # f*dt can underflow to 0
    if spp is not None and spp > _BLOCK_SAMPLES:
        spp = None
    size = _BLOCK_SAMPLES if spp is None else spp * (_BLOCK_SAMPLES // spp)
    wave = None
    total = 0.0
    for i in range(start, grid.n, size):
        k = min(size, grid.n - i)
        if wave is None or spp is None:
            wave = measured_signal(cfg, TimeGrid(grid.dt, k, grid.t0 + i * grid.dt)).values
        dev = restored.values[i : i + k] - wave[:k]
        total += float(np.dot(dev, dev))
    return math.sqrt(total / (grid.n - start))


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
    m_series = modulation_series(cfg.modulation, cfg.f_m)
    modulated = modulate(measured_signal(cfg, grid), m_series)
    noise = gen_noise(cfg.noise, grid)
    noisy = SampledSignal(grid, frozen(modulated.values + noise.values))

    period = 1.0 / cfg.f_m
    l = cfg.modulation.n_harmonics
    r = synth_demod_reference(period, cfg.ref_kind, l, cfg.ref_phase_delay)
    gains = {c: channel_gain(m_series, r, c)[0] for c in CHANNELS}
    channel = "even" if abs(gains["even"]) >= abs(gains["odd"]) else "odd"

    restored = slope_compensate(noisy, m_series, r, channel)
    restored_full = restored.signal
    warmup = restored.warmup
    down = downsample_at_phase(restored_full, cfg.f_m, cfg.downsample_phase)

    # full-rate error, warm-up excluded (noise spikes stay in: they are the output)
    rms_full = _rms_after(cfg, restored_full, warmup)

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
    # an error past the float range is refused once, below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        dev_down = down.values[good] - measured_signal(cfg, down.grid).values[good]
        rms_down = float(np.sqrt(np.mean(dev_down**2)))
    for name, value in (("rms_error_full", rms_full), ("rms_error_downsampled", rms_down)):
        if not math.isfinite(value):
            raise PreconditionError(
                f"{name} overflows the float range; lower signal_amp or the noise amplitude"
            )

    # what a fixed, phase-aligned gain would have applied: the ratio shows the
    # scale (and sign, for a half-period flip) error of skipping calibration;
    # None when the aligned gain on this channel is below the floor (an
    # aligned reference has no odd part, so always on the odd channel)
    aligned = synth_demod_reference(period, cfg.ref_kind, l, 0.0)
    g_aligned, share_aligned = channel_gain(m_series, aligned, channel)
    scale = None
    if share_aligned >= GAIN_FLOOR:
        scale = gains[channel] / g_aligned

    metrics = {
        "rms_error_full": rms_full,
        "rms_error_downsampled": rms_down,
        "spike_windows": spike_windows,
        "bandwidth_hz": cfg.f_m / 2.0,
        "warmup_samples": warmup,
        "n_downsampled": down.grid.n,
        "channel": channel,
        "gain_even": gains["even"],
        "gain_odd": gains["odd"],
        "gain_scale_vs_aligned": scale,
        "group_delay_s": period / 2.0,
    }
    return SimResult(
        noise=noise,
        modulated=modulated,
        modulated_noisy=noisy,
        restored_full=restored_full,
        restored_downsampled=down,
        warmup=warmup,
        metrics=metrics,
    )


def report(result: SimResult, out_dir) -> dict:
    """Write every file of a simulate run but the CLI's manifest to a directory.

    Emits noise.csv, modulated.csv, modulated_noisy.csv, restored.csv,
    restored_downsampled.csv and metrics.json; returns a summary with the
    file paths and metric values.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        stacks = {
            "noise.csv": result.noise,
            "modulated.csv": result.modulated,
            "modulated_noisy.csv": result.modulated_noisy,
            "restored.csv": result.restored_full,
            "restored_downsampled.csv": result.restored_downsampled,
        }
        for name, sig in stacks.items():
            write_csv(sig, out / name)
        write_json(result.metrics, out / "metrics.json")
    except OSError as exc:
        raise OSError(f"failed writing simulation outputs under {out}: {exc}") from exc
    files = [str(out / name) for name in (*stacks, "metrics.json")]
    return {"files": files, "metrics": dict(result.metrics)}
