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
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import iadd, isub

import numpy as np

from .config import Config, check_size
from .errors import ConfigError, PreconditionError
from .lockin import CHANNELS, GAIN_FLOOR, _lockin_chunks, channel_gain, modulate
from .modulation import ModulationFit, modulation_series
from .reference import synth_demod_reference
from .signals import (
    _BLOCK_SAMPLES,
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    _joined,
    _periodic,
    _ranges,
    _Repeating,
    downsample_at_phase,
    frozen,
    integer_ratio,
    period_grid,
    synth,
    whole_period,
    write_outputs,
)

_NOISE_KINDS = ("step", "sine", "none")
# the full-rate stacks of a run, by the CSV name `report` writes each as
_STACKS = ("noise.csv", "modulated.csv", "modulated_noisy.csv", "restored.csv")
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
        if not 2.0 * math.pi * self.f_m < math.inf:  # synth's angular frequency
            raise ConfigError(f"2*pi*f_m must be finite, got f_m = {self.f_m}")
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
        # a run's largest arrays: a full-length one of n_samples entries (the
        # SimResult properties, and a run whose sine shares no period with the
        # modulation or whose sine noise has no whole period); synth's
        # one-period table of min(n_samples, spp) x harmonics; and the slope
        # estimate's Gram stack of 4 x 4 per phase of the lock-in's one-period
        # window (lockin._slope_coefficients).  By the rule above the expected
        # step count rate_or_freq*duration is at most n_samples, so the first
        # bound also caps gen_noise's draws
        window = min(self.n_samples, self.samples_per_period)
        check_size("duration/dt", self.n_samples)
        check_size("min(duration/dt, 1/(f_m*dt)) * harmonics", window * self.modulation.n_harmonics)
        check_size("16 * min(duration/dt, 1/(f_m*dt))", 16 * window)

    @property
    def samples_per_period(self) -> int:
        return int(round(1.0 / (self.f_m * self.dt)))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def grid(self) -> TimeGrid:
        """The run's grid: n_samples samples dt apart from t = 0."""
        return TimeGrid(self.dt, self.n_samples)


@dataclass(frozen=True, eq=False)
class SimResult:
    """The down-sampled channel and metrics of one run, with the config it ran.

    The modulated trace repeats with the period the measured sine and the
    modulation share, so it is kept as that one period, `modulated_period`
    (the whole run when it has no shorter one).  Every full-rate stack is
    made from `config` each time it is read, with the bits of the run, by
    `stack`, the one place that says how a stack is made: `report` writes
    its stream, and each property holds it whole (`signals._joined`), so a
    property read makes the stack again and builds one full-length array:
    `restored_full` runs the lock-in again.  So when the shared period is
    shorter than the run, a result holds no full-length array.  A result
    holds arrays, so `==` compares identity, as for `SampledSignal`.
    """

    config: SimConfig
    modulated_period: SampledSignal
    restored_downsampled: SampledSignal
    metrics: dict

    @property
    def warmup(self) -> int:
        return self.metrics["warmup_samples"]

    @property
    def modulated(self) -> SampledSignal:
        return _joined(*self.stack("modulated.csv"))

    @property
    def noise(self) -> SampledSignal:
        return _joined(*self.stack("noise.csv"))

    @property
    def modulated_noisy(self) -> SampledSignal:
        return _joined(*self.stack("modulated_noisy.csv"))

    @property
    def restored_full(self) -> SampledSignal:
        return _joined(*self.stack("restored.csv"))

    def stack(self, name: str) -> tuple[TimeGrid, Iterator[np.ndarray]]:
        """The full-rate stack `report` writes as `name`, one of _STACKS, as
        its (grid, chunks) stream; only that stack is made.  The noise and
        the noisy sum are ranges of `gen_noise`'s reader of the config's
        spec (and the period), drawn again; the modulated trace is ranges of
        its period laid out (not through the noise reader, whose 0.0 level
        would turn a -0.0 in the period into 0.0), both by `signals._ranges`;
        and the restored signal is the lock-in run again on the noisy sum,
        on the channel in `metrics`, as the chunks it hands on."""
        cfg, grid, period = self.config, self.config.grid, self.modulated_period
        if name == "noise.csv":
            return grid, _ranges(gen_noise(cfg.noise, grid))
        if name == "modulated.csv":
            return grid, _ranges(_Repeating(period.values, grid.n))
        noisy = gen_noise(cfg.noise, grid, period)
        if name == "modulated_noisy.csv":
            return grid, _ranges(noisy)
        if name == "restored.csv":
            return _restored(cfg, noisy, _series(cfg), self.metrics["channel"])
        raise KeyError(f"no full-rate stack {name!r}; use one of {_STACKS}")


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


def gen_noise(spec: NoiseSpec, grid: TimeGrid, *periods: SampledSignal) -> _NoisySum:
    """The disturbance on a grid plus the periods passed in, seeded and
    reproducible, as the `_NoisySum` reader by sample range: `[:]` is its
    values over the whole grid."""
    return _NoisySum(spec, grid, *periods)


class _NoisySum:
    """The noise of a run plus the periods passed in, read by sample range.

    The noise is drawn once: step noise as its levels and the sample where
    each starts, sine noise as its `period_grid` period (the whole grid when
    its period is not a whole number of samples, as `synth` evaluates it),
    and none noise (or an amplitude of 0) as one level of 0.0.  `steps`
    are the sorted samples where the level changes, empty but for step
    noise.

    `reader[i:j]` fills the noise over [i, j) into a fresh array, the levels
    repeated or the sine period laid, and adds each period passed in to it
    in place, one period-aligned segment at a time (IEEE addition commutes,
    so a range holds the bits of the noise plus the tiled periods over the
    whole grid), and refuses a sum past the float range.  None noise is
    the level 0.0, not an empty fill, so that a period holding -0.0 reads
    0.0 + -0.0 = 0.0 there.  `gen_noise` makes the reader; the lock-in
    reads the run's noisy sum one chunk at a time and `report` writes the
    noise and the noisy sum 4 096 rows at a time, so neither exists at full
    length.

    Step levels are drawn as lo + span * random() and intervals as
    scale * standard_exponential(), NumPy's own products for uniform(lo, hi)
    and exponential(scale), so the bits are theirs; the tests' sample search
    keeps those two, and a NumPy that fused one into an FMA fails there.
    """

    def __init__(self, spec: NoiseSpec, grid: TimeGrid, *periods: SampledSignal):
        self.n = grid.n
        self.periods = [p.values for p in periods]
        self.levels = np.zeros(1)
        self.starts = np.zeros(0, dtype=np.int64)
        self.sine = None
        if spec.kind == "sine" and spec.amplitude != 0.0:
            series = HarmonicSeries(spec.rate_or_freq, 0.0, [0.0], [spec.amplitude])
            sine = synth(series, period_grid(grid, spec.rate_or_freq)).values
            self.sine = _Repeating(sine, grid.n)
        elif spec.kind == "step" and spec.amplitude != 0.0:
            rng = np.random.default_rng(spec.seed)
            random, exponential = rng.random, rng.standard_exponential
            lo, span, scale = -spec.amplitude, 2.0 * spec.amplitude, 1.0 / spec.rate_or_freq
            t_end = grid.t0 + grid.duration
            boundaries = []  # times where a new level starts
            levels = [lo + span * random()]
            t_cur = grid.t0
            while True:
                t_cur += scale * exponential()
                if t_cur >= t_end:
                    break
                boundaries.append(t_cur)
                levels.append(lo + span * random())
            # level l holds from the first sample at or after boundary l - 1,
            # starts[l - 1], up to the first sample at or after boundary l, so
            # sample k holds the level of the last start at or before it
            self.starts = _first_samples_at_or_after(grid, np.asarray(boundaries))
            self.levels = np.asarray(levels)
        # levels that hold a sample start at distinct samples; a level may
        # equal the last, so a start is a step when the level held from it on
        # differs from the level held at the sample before
        starts, levels = self.starts, self.levels
        steps = starts[(np.diff(starts, append=grid.n) > 0) & (starts > 0)]
        now, before = (levels[np.searchsorted(starts, steps, side)] for side in ("right", "left"))
        self.steps = steps[now != before]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, s: slice) -> np.ndarray:
        i, j, _ = s.indices(self.n)
        if self.sine is None:
            starts = self.starts
            lo, hi = np.searchsorted(starts, [i, j - 1], side="right")
            counts = np.diff(np.concatenate(([i], starts[lo:hi], [j])))
            values = np.repeat(self.levels[lo : hi + 1], counts)
        else:
            values = self.sine[i:j]
        with np.errstate(over="ignore"):
            for period in self.periods:
                _periodic(iadd, values, period, i)
        return SampledSignal.finite(values)


def _step_in_window(steps: np.ndarray, window: int, outputs: np.ndarray) -> np.ndarray:
    """For each output index j, whether some step s has j - window < s <= j:
    output j integrates input samples j-window..j, so a level change at
    input s contaminates outputs s..s+window-1.  `steps` is sorted."""
    after = np.searchsorted(steps, outputs, side="right")
    return after > np.searchsorted(steps, outputs - window, side="right")


def step_contamination_mask(noise: SampledSignal, window_samples: int) -> np.ndarray:
    """Boolean mask over every output sample whose integration window
    contains a step of the noise, by `run_simulation`'s rule; the steps are
    found by scanning the noise values."""
    v = noise.values
    steps = np.flatnonzero(v[1:] != v[:-1]) + 1
    return _step_in_window(steps, window_samples, np.arange(noise.grid.n))


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


class _Deviation:
    """The RMS of the restored signal on grid less the measured waveform,
    over the samples from index `start` on, taken from the signal's
    consecutive chunks, from sample 0 on, as `add` is given them: so the
    signal never needs to exist at full length.

    Each chunk's samples from `start` on are summed as the chunk comes, with
    the waveform subtracted from them in place, so `add` changes the chunk
    it is given.  When the waveform's `period_grid` holds at most
    _BLOCK_SAMPLES samples, its one period at `start` is evaluated once, for
    the first chunk that reaches past `start`, and laid over each chunk from
    the chunk's own phase by `_periodic`, as `synth` would have tiled it;
    otherwise it is evaluated on each chunk's own slice of the grid, and not
    kept.  An error past the
    float range gives inf, which run_simulation refuses.
    """

    def __init__(self, cfg: SimConfig, grid: TimeGrid, start: int):
        self.cfg, self.grid, self.start = cfg, grid, start
        self.spp = period_grid(grid, cfg.signal_freq).n
        self.at, self.wave, self.total = 0, None, 0.0  # at: the samples given so far

    def add(self, chunk: np.ndarray) -> None:
        i, self.at = self.at, self.at + len(chunk)  # chunk holds samples [i, at)
        lo = max(i, self.start)
        if lo >= self.at:
            return
        part = chunk[lo - i :]
        if self.spp > _BLOCK_SAMPLES:
            self.total += _squared_deviation(part, self._measured(lo, len(part)), 0)
            return
        if self.wave is None:
            self.wave = self._measured(self.start, min(self.spp, self.grid.n - self.start))
        self.total += _squared_deviation(part, self.wave, lo - self.start)

    def _measured(self, i: int, k: int) -> np.ndarray:
        """The measured waveform over the k samples of grid from index i."""
        grid = self.grid
        return measured_signal(self.cfg, TimeGrid(grid.dt, k, grid.t0 + i * grid.dt)).values

    @property
    def rms(self) -> float:
        return math.sqrt(self.total / (self.grid.n - self.start))


@np.errstate(over="ignore", invalid="ignore")
def _squared_deviation(part: np.ndarray, wave: np.ndarray, phase: int) -> float:
    """The sum of squares of part less the period wave laid over it from
    `phase`, subtracted in place."""
    _periodic(isub, part, wave, phase)
    return float(np.dot(part, part))


def _series(cfg: SimConfig) -> tuple[HarmonicSeries, HarmonicSeries]:
    """The run's modulation series and demodulation reference."""
    m = modulation_series(cfg.modulation, cfg.f_m)
    l = cfg.modulation.n_harmonics
    return m, synth_demod_reference(cfg.f_m, cfg.ref_kind, l, cfg.ref_phase_delay)


def _restored(
    cfg: SimConfig, noisy: _NoisySum, series: tuple, channel: str
) -> tuple[TimeGrid, Iterator[np.ndarray]]:
    """The restored signal of a run: slope_compensate's output on the run's
    noisy sum, for its (modulation, reference) series and channel, as the
    stream of `lockin._lockin_chunks`, each chunk checked finite as it
    comes.  `run_simulation` takes its metrics from it, and
    `SimResult.stack` makes it again."""
    m, r = series
    return _lockin_chunks(cfg.grid, noisy, m, r, channel, compensate=True)


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run the full chain and compute recovery metrics.

    The restored signal is the slope-compensated lock-in output
    (lockin.slope_compensate) and carries window-center time labels (see
    lockin.demodulate), so it is compared against the measured waveform
    evaluated at its own sample times; the downsampled channel keeps one
    sample per modulation period at the configured modulation phase.
    Metrics exclude the warm-up period, and the downsampled error also
    excludes the windows that hold a noise step (`spike_windows`), found at
    the down-sample picks from the steps the noise reader draws.

    The lock-in output is taken one chunk at a time, as `_restored` hands
    it on, checked finite: each chunk gives its down-sample picks and then
    its samples of the full-rate error, and is let go, so the output is
    never whole.  `SimResult.stack("restored.csv")` makes it again.
    """
    grid = cfg.grid
    m_series, r = _series(cfg)
    # the product repeats with the shared period, so it is computed over one
    # (the same bits as over the whole grid) and never tiled over the run: the
    # lock-in reads the noisy sum one chunk at a time, each filled with the
    # noise and the period added to it
    common = period_grid(grid, cfg.signal_freq, cfg.f_m)
    period = modulate(measured_signal(cfg, common), m_series)
    noisy = gen_noise(cfg.noise, grid, period)

    gains = {c: channel_gain(m_series, r, c)[0] for c in CHANNELS}
    channel = "even" if abs(gains["even"]) >= abs(gains["odd"]) else "odd"

    # slope_compensate's output, on the reader rather than a full-length
    # array, and as chunks rather than one array; spp is one modulation
    # period: the lock-in's window, so its warm-up, the width of a window
    # that a step contaminates and the stride of the picks
    out_grid, chunks = _restored(cfg, noisy, (m_series, r), channel)
    spp = whole_period(grid, cfg.f_m).n
    # full-rate error, warm-up excluded (noise spikes stay in: they are the output)
    deviation = _Deviation(cfg, out_grid, spp)

    def summed():
        for chunk in chunks:
            yield chunk  # the down-sampler copies its picks out first,
            deviation.add(chunk)  # as this subtracts the waveform in place
            del chunk  # not held while the next one is made

    down = downsample_at_phase((out_grid, summed()), cfg.f_m, cfg.downsample_phase)
    rms_full = deviation.rms

    # downsampled error: also exclude windows that contain a noise step
    k0 = int(round((down.grid.t0 - out_grid.t0) / cfg.dt))
    ds_idx = k0 + np.arange(down.grid.n) * spp
    spiked = _step_in_window(noisy.steps, spp, ds_idx)
    good = (ds_idx >= spp) & ~spiked
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
    aligned = synth_demod_reference(cfg.f_m, cfg.ref_kind, cfg.modulation.n_harmonics, 0.0)
    g_aligned, share_aligned = channel_gain(m_series, aligned, channel)
    scale = None
    if share_aligned >= GAIN_FLOOR:
        scale = gains[channel] / g_aligned

    metrics = {
        "rms_error_full": rms_full,
        "rms_error_downsampled": rms_down,
        "spike_windows": np.flatnonzero(spiked).tolist(),
        "bandwidth_hz": cfg.f_m / 2.0,
        "warmup_samples": spp,
        "n_downsampled": down.grid.n,
        "channel": channel,
        "gain_even": gains["even"],
        "gain_odd": gains["odd"],
        "gain_scale_vs_aligned": scale,
        "group_delay_s": 0.5 / cfg.f_m,
    }
    return SimResult(cfg, period, down, metrics)


def report(result: SimResult, out_dir) -> dict:
    """Write every file of a simulate run but the CLI's manifest to a directory.

    Emits noise.csv, modulated.csv, modulated_noisy.csv, restored.csv,
    restored_downsampled.csv and metrics.json; returns a summary with the
    file paths and metric values.  Each full-rate stack is handed to the
    writer as the stream `SimResult.stack` makes of it, chunk by chunk, so
    none exists at full length; all four are made before the directory is,
    so a result whose lock-in is refused up front writes nothing.  The
    three stacks on the run grid share one `write_csv` call, which
    `write_outputs` makes, and so their time column.
    """
    files = {name: result.stack(name) for name in _STACKS}
    files["restored_downsampled.csv"] = result.restored_downsampled
    files["metrics.json"] = result.metrics
    return {"files": write_outputs(files, out_dir), "metrics": dict(result.metrics)}
