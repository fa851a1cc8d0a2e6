"""Uniformly sampled signals, harmonic synthesis/fitting, windowed integration
and phase-locked down-sampling.

All angles and phases are radians, all times seconds, all frequencies Hz.
Sample times are always derived from (t0, dt, n) so long signals cannot
accumulate stored-time drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# relative tolerance used when a ratio (window/dt, rate/f_m) must be an integer
_RATIO_TOL = 1e-9


def integer_ratio(ratio: float) -> int | None:
    """`ratio` as a positive integer when it is one to within _RATIO_TOL
    (relative), else None."""
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > _RATIO_TOL * max(1.0, ratio):
        return None
    return k


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time axis: n samples spaced dt seconds starting at t0."""

    dt: float
    n: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise PreconditionError(f"dt must be positive, got {self.dt}")
        if self.n < 1:
            raise PreconditionError(f"sample count must be >= 1, got {self.n}")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n) * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def duration(self) -> float:
        """Span covered by the samples (sample-and-hold convention, n*dt)."""
        return self.n * self.dt


@dataclass(frozen=True)
class SampledSignal:
    """Real-valued signal on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n:
            raise PreconditionError(
                f"values length {values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise PreconditionError("signal values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def times(self) -> np.ndarray:
        return self.grid.times()


@dataclass(frozen=True, eq=False)
class HarmonicSeries:
    """Truncated Fourier representation of a periodic waveform.

    value(t) = dc + sum_j cos_coeffs[j-1]*cos(2*pi*j*f_fund*t)
                  + sin_coeffs[j-1]*sin(2*pi*j*f_fund*t)
    """

    f_fund: float
    dc: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HarmonicSeries):
            return NotImplemented
        return (
            self.f_fund == other.f_fund
            and self.dc == other.dc
            and np.array_equal(self.cos_coeffs, other.cos_coeffs)
            and np.array_equal(self.sin_coeffs, other.sin_coeffs)
        )

    def __post_init__(self):
        if not (self.f_fund > 0.0):
            raise PreconditionError(f"fundamental must be positive, got {self.f_fund}")
        cos_c = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float)).copy()
        sin_c = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float)).copy()
        if len(cos_c) != len(sin_c) or len(cos_c) < 1:
            raise PreconditionError(
                f"cosine/sine coefficient vectors must have equal length >= 1, "
                f"got {len(cos_c)} and {len(sin_c)}"
            )
        if not (np.isfinite(self.dc) and np.all(np.isfinite(cos_c)) and np.all(np.isfinite(sin_c))):
            raise PreconditionError("series coefficients must be finite")
        cos_c.flags.writeable = False
        sin_c.flags.writeable = False
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

    @property
    def n_harmonics(self) -> int:
        return len(self.cos_coeffs)

    @property
    def period(self) -> float:
        return 1.0 / self.f_fund

    def to_dict(self) -> dict:
        return {
            "f_fund": self.f_fund,
            "dc": self.dc,
            "cos_coeffs": [float(x) for x in self.cos_coeffs],
            "sin_coeffs": [float(x) for x in self.sin_coeffs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HarmonicSeries":
        return cls(
            f_fund=float(d["f_fund"]),
            dc=float(d["dc"]),
            cos_coeffs=np.asarray(d["cos_coeffs"], dtype=float),
            sin_coeffs=np.asarray(d["sin_coeffs"], dtype=float),
        )


@dataclass(frozen=True)
class WindowedSignal:
    """Output of a windowed (moving-integral) operation.

    The first `warmup` samples cover windows that extend before the start of
    the input; they hold partial-window values and must not be treated as
    valid output.
    """

    signal: SampledSignal
    warmup: int

    def valid(self) -> SampledSignal:
        """The signal with the warm-up region trimmed off."""
        g = self.signal.grid
        if self.warmup == 0:
            return self.signal
        if self.warmup >= g.n:
            raise PreconditionError("signal is all warm-up; lengthen the input")
        trimmed = TimeGrid(g.dt, g.n - self.warmup, g.t0 + self.warmup * g.dt)
        return SampledSignal(trimmed, self.signal.values[self.warmup:])


def synth(series: HarmonicSeries, grid: TimeGrid) -> SampledSignal:
    """Evaluate a harmonic series on a time grid.

    When a period 1/f_fund holds a whole number spp of samples (to within
    _RATIO_TOL, the test the lock-in uses), only the first min(n, spp)
    samples from grid.t0 are evaluated and that period is tiled out to n
    samples: O(spp * harmonics) trigonometry and O(n) memory.  Otherwise
    every sample is evaluated.  Tiling also keeps the phase accurate on long
    grids, where 2*pi*f*t at large t loses bits.
    """
    spp = integer_ratio(1.0 / (series.f_fund * grid.dt))
    k = grid.n if spp is None else min(grid.n, spp)
    t = grid.t0 + np.arange(k) * grid.dt
    j = np.arange(1, series.n_harmonics + 1)
    args = 2.0 * np.pi * series.f_fund * t[:, None] * j[None, :]
    values = series.dc + np.cos(args) @ series.cos_coeffs + np.sin(args) @ series.sin_coeffs
    return SampledSignal(grid, np.resize(values, grid.n))


def fit_harmonics(signal: SampledSignal, f_fund: float, l: int) -> tuple[HarmonicSeries, float]:
    """Least-squares fit of a truncated harmonic series to a sampled signal.

    The fit uses the largest whole number of periods of 1/f_fund that the
    signal covers, so that the trigonometric design matrix stays close to
    orthogonal.

    Parameters
    ----------
    signal : SampledSignal
        Must span at least one full period with at least 2*l+1 samples per
        period.
    f_fund : float
        Fundamental frequency in Hz.
    l : int
        Number of harmonics to fit.

    Returns
    -------
    (series, residual_rms)
        The fitted series and the RMS of the fit residual over the fitted
        window.
    """
    if l < 1:
        raise PreconditionError(f"harmonic count must be >= 1, got {l}")
    if not (f_fund > 0.0):
        raise PreconditionError(f"fundamental must be positive, got {f_fund}")
    grid = signal.grid
    period = 1.0 / f_fund
    spp = period / grid.dt
    n_unknowns = 2 * l + 1
    if spp < n_unknowns:
        raise PreconditionError(
            f"only {spp:.1f} samples per period for {n_unknowns} unknowns; "
            "use a finer grid or fewer harmonics"
        )
    n_periods = int(np.floor(grid.duration / period + _RATIO_TOL))
    if n_periods < 1:
        raise PreconditionError(
            f"signal spans {grid.duration:.3g} s, less than one period "
            f"{period:.3g} s; lengthen the window"
        )
    m = min(grid.n, int(round(n_periods * spp)))
    if m < n_unknowns:
        raise PreconditionError(
            f"{m} usable samples for {n_unknowns} unknowns; lengthen the window"
        )

    t = grid.times()[:m]
    j = np.arange(1, l + 1)
    args = 2.0 * np.pi * f_fund * t[:, None] * j[None, :]
    design = np.hstack([np.ones((m, 1)), np.cos(args), np.sin(args)])
    coeffs, *_ = np.linalg.lstsq(design, signal.values[:m], rcond=None)
    residual = signal.values[:m] - design @ coeffs
    series = HarmonicSeries(
        f_fund=f_fund,
        dc=float(coeffs[0]),
        cos_coeffs=coeffs[1 : l + 1],
        sin_coeffs=coeffs[l + 1 :],
    )
    return series, float(np.sqrt(np.mean(residual**2)))


def moving_integral(signal: SampledSignal, window: float) -> WindowedSignal:
    """Trailing-window integral: output[i] = integral of signal over
    [t_i - window, t_i], trapezoidal rule.

    Realized as two running integrals offset by window/dt samples and
    subtracted, so the cost is O(1) per sample.  The window must be an
    integer number of samples.  The first window/dt output samples only
    integrate from the start of the signal and are reported as warm-up.
    """
    grid = signal.grid
    w = integer_ratio(window / grid.dt)
    if w is None:
        raise PreconditionError(
            f"window {window:.6g} s is not an integer multiple of dt {grid.dt:.6g} s"
        )
    if w >= grid.n:
        raise PreconditionError(
            f"window of {w} samples does not fit in signal of {grid.n} samples"
        )
    v = signal.values
    # cum[i] = trapezoid integral from t0 to t_i
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]))]) * grid.dt
    out = np.empty_like(cum)
    out[:w] = cum[:w]
    out[w:] = cum[w:] - cum[:-w]
    return WindowedSignal(SampledSignal(grid, out), warmup=w)


def downsample_at_phase(signal: SampledSignal, f_m: float, phase: float) -> SampledSignal:
    """Keep one sample per modulation period: the one nearest the requested
    modulation phase.  The output grid has dt = 1/f_m."""
    grid = signal.grid
    spp = integer_ratio(1.0 / (f_m * grid.dt))
    if spp is None:
        raise PreconditionError(
            f"sample rate {grid.sample_rate:.6g} Hz is not an integer multiple "
            f"of f_m {f_m:.6g} Hz"
        )
    # index (mod spp) whose modulation phase 2*pi*f_m*t is closest to `phase`
    frac = (phase / (2.0 * np.pi) - f_m * grid.t0) % 1.0
    k0 = int(round(frac * spp)) % spp
    if k0 >= grid.n:
        raise PreconditionError("signal too short to retain any sample")
    values = signal.values[k0::spp]
    out_grid = TimeGrid(dt=1.0 / f_m, n=len(values), t0=grid.t0 + k0 * grid.dt)
    return SampledSignal(out_grid, values)


def rms_error(a: SampledSignal, b: SampledSignal) -> float:
    """Root-mean-square difference of two signals on identical grids."""
    if a.grid != b.grid:
        raise PreconditionError(f"grid mismatch: {a.grid} vs {b.grid}")
    return float(np.sqrt(np.mean((a.values - b.values) ** 2)))


def write_csv(signal: SampledSignal, path) -> None:
    """Write a signal as `t,value` CSV with full float precision."""
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(signal.times(), signal.values):
            fh.write(f"{t:.17g},{v:.17g}\n")


def read_csv(path) -> SampledSignal:
    """Read a `t,value` CSV back into a SampledSignal."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t, v = data[:, 0], data[:, 1]
    if len(t) < 2:
        grid = TimeGrid(dt=1.0, n=len(t), t0=float(t[0]) if len(t) else 0.0)
        return SampledSignal(grid, v)
    dt = float(np.median(np.diff(t)))
    if np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt + 1e-15:
        raise PreconditionError(f"{path}: sample times are not uniform")
    return SampledSignal(TimeGrid(dt=dt, n=len(t), t0=float(t[0])), v)
