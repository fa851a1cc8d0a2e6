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

# rows formatted and written per chunk by write_csv (see its docstring)
_CSV_CHUNK = 256

# phases per block of `window_sums`; each block costs two (B x B) matrix
# products per period, and fewer blocks mean fewer Python steps
_PHASE_BLOCK = 32

# samples in a cache-sized run (512 KiB of float64): `window_sums` works
# through chunks of whole periods of about this size, and `sim._rms_after`
# sums its error in blocks of it
_BLOCK_SAMPLES = 2**16


def integer_ratio(ratio: float) -> int | None:
    """`ratio` as a positive integer when it is one to within _RATIO_TOL
    (relative), else None."""
    if not np.isfinite(ratio):
        return None
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

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample times t0 + i*dt for i in [start, stop) (all n by default);
        a slice gives the same bits as the full array sliced."""
        return self.t0 + np.arange(start, self.n if stop is None else stop) * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def duration(self) -> float:
        """Span covered by the samples (sample-and-hold convention, n*dt)."""
        return self.n * self.dt


def frozen(values: np.ndarray) -> np.ndarray:
    """Make a freshly computed array read-only in place and return it, so
    that SampledSignal takes it over without a copy.  Only for an array that
    nothing else holds."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SampledSignal:
    """Real-valued signal on a TimeGrid.

    `values` is read-only.  The signal keeps its own copy of the array it is
    given, unless that array is read-only and owns its data: then it is taken
    as it is (see `frozen`).
    """

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
        # a read-only array that owns its data was handed over by the code that
        # made it (see `frozen`); any other array may still be written through
        # by a caller, so it is copied
        if values.flags.writeable or not values.flags.owndata:
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

    def to_dict(self) -> dict:
        return {
            "f_fund": self.f_fund,
            "dc": self.dc,
            "cos_coeffs": [float(x) for x in self.cos_coeffs],
            "sin_coeffs": [float(x) for x in self.sin_coeffs],
        }


@dataclass(frozen=True)
class WindowedSignal:
    """Output of a windowed (moving-integral) operation.

    The first `warmup` samples cover windows that extend before the start of
    the input; they hold partial-window values and must not be treated as
    valid output.
    """

    signal: SampledSignal
    warmup: int


def period_grid(series: HarmonicSeries, grid: TimeGrid) -> TimeGrid:
    """The samples of grid that determine series on all of it: the first
    min(n, spp) when a period 1/f_fund holds a whole number spp of samples
    (to within _RATIO_TOL, the test the lock-in uses), else the whole grid.
    `synth` on grid is its values on this grid, tiled."""
    spp = integer_ratio(1.0 / series.f_fund / grid.dt)  # f*dt can underflow to 0
    return grid if spp is None or spp >= grid.n else TimeGrid(grid.dt, spp, grid.t0)


def synth(series: HarmonicSeries, grid: TimeGrid) -> SampledSignal:
    """Evaluate a harmonic series on a time grid.

    Only the samples of `period_grid` are evaluated, and when they are one
    period they are tiled out to n samples: O(spp * harmonics) trigonometry
    and O(n) memory.  Tiling also keeps the phase accurate on long grids,
    where 2*pi*f*t at large t loses bits.
    """
    k = period_grid(series, grid).n
    t = grid.times(0, k)
    j = np.arange(1, series.n_harmonics + 1)
    args = 2.0 * np.pi * series.f_fund * t[:, None] * j[None, :]
    period = series.dc + np.cos(args) @ series.cos_coeffs + np.sin(args) @ series.sin_coeffs
    # tiled into an array of its own (np.resize returns a view), so that
    # SampledSignal takes it without a copy
    values = np.empty(grid.n)
    whole = grid.n - grid.n % k
    values[:whole].reshape(-1, k)[:] = period
    values[whole:] = period[: grid.n - whole]
    return SampledSignal(grid, frozen(values))


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

    t = grid.times(0, m)
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


def window_samples(grid: TimeGrid, window: float) -> int:
    """The number of samples w of a trailing window on grid: window/dt must
    be a whole number and the window must fit in the signal (w < n)."""
    w = integer_ratio(window / grid.dt)
    if w is None:
        raise PreconditionError(
            f"window {window:.6g} s is not an integer multiple of dt {grid.dt:.6g} s"
        )
    if w >= grid.n:
        raise PreconditionError(
            f"window of {w} samples does not fit in signal of {grid.n} samples"
        )
    return w


def _blocks(a: np.ndarray, first: int, count: int) -> np.ndarray:
    """The columns of `count` blocks of _PHASE_BLOCK phases of a, from block
    `first` on, as a (block, row, phase) view."""
    cols = a[:, first * _PHASE_BLOCK : (first + count) * _PHASE_BLOCK]
    return cols.reshape(len(a), count, _PHASE_BLOCK).transpose(1, 0, 2)


# an overflowing sum is left to SampledSignal's finiteness check, which
# reports it once as a precondition error
@np.errstate(over="ignore", invalid="ignore")
def window_sums(
    x: np.ndarray,
    trapezoid: np.ndarray,
    plain: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = (),
) -> np.ndarray:
    """Trailing-window sums of x, one output per sample, over windows of
    w + 1 samples, where w = len(trapezoid) is one period; needs w < len(x).

    With p = j % w the phase of output j, output j >= w is
        sum over i in [j-w, j] of e_i * trapezoid[i % w] * x[i]
          + sum over the plain sources (s, cur, prev) of
                cur[p] * (sum over i in [j-p, j] of s[i % w] * x[i])
              + prev[p] * (sum over i in [j-w, j-p) of s[i % w] * x[i]),
    where e_i is 1/2 at the window's two ends (both at phase p) and 1
    inside: the trapezoid rule.  cur weights the phases of output j's own
    period, prev those of the period before.  The first w outputs are
    warm-up: the trapezoid sum over [0, j], without the plain sums.
    `moving_integral` takes dt per phase as its trapezoid; the lock-in takes
    its scaled reference, with the slope term as plain sources.

    The signal is viewed one period per row, and every sum is a combination
    of running sums over phases within one period.  Those restart every
    period, so unlike one running sum over the whole signal, subtracted,
    they do not lose bits as the run grows.  The phases go in blocks of
    _PHASE_BLOCK, and the w % _PHASE_BLOCK left over form one more block:
    within a block the running sums grow by the block's samples up to phase
    p, a lower-triangular (phase x phase) weight matrix applied to the
    block's columns of every period at once, whose diagonal also takes off
    the half end weights; the sums before the block come from the running
    totals.

    The rows go in chunks of whole periods of about _BLOCK_SAMPLES samples,
    so that a chunk's input, output and scratch stay in cache while every
    block passes over it.  A chunk is a view of its periods and the one
    before them; the product of the own-period weights of all full blocks
    is one batched matrix product written straight into the output, and the
    other terms go block by block.  When n % w is not 0 the last n % w
    outputs come from one more chunk over a zero-padded copy of the last two
    periods, so past x the only full-length array is the output.

    The weight matrices (2 * _PHASE_BLOCK floats per phase) are built once
    per call.  A period longer than _BLOCK_SAMPLES / (2 * _PHASE_BLOCK)
    phases is done in slabs of that many, whose weights are built and used
    over every chunk in turn, so they take about _BLOCK_SAMPLES floats at a
    time; each chunk's running totals carry over to the next slab.
    """
    w, n = len(trapezoid), len(x)
    sources = np.stack([trapezoid] + [s for s, _, _ in plain])
    cur = np.stack([np.ones(w)] + [c for _, c, _ in plain])
    prev = np.stack([np.ones(w)] + [p for _, _, p in plain])

    out = np.empty(n)
    head = x[:w] * trapezoid
    out[0] = 0.0
    np.cumsum(0.5 * (head[1:] + head[:-1]), out=out[1:w])
    # chunks: (its periods and the one before them, one period per row; the
    # output rows of the windows ending in rows 1..)
    whole = n - n % w
    size = max(1, _BLOCK_SAMPLES // w) * w
    chunks = []
    for i in range(w, whole, size):
        j = min(i + size, whole)
        chunks.append((x[i - w : j].reshape(-1, w), out[i:j].reshape(-1, w)))
    if whole < n:
        tail = np.zeros(2 * w)
        tail[: n - whole + w] = x[whole - w :]
        chunks.append((tail.reshape(2, w), np.empty((1, w))))

    blocks = [(p0, min(p0 + _PHASE_BLOCK, w)) for p0 in range(0, w, _PHASE_BLOCK)]
    full = w // _PHASE_BLOCK  # the blocks of _PHASE_BLOCK phases
    per_slab = _BLOCK_SAMPLES // (2 * _PHASE_BLOCK**2)  # weights of ~_BLOCK_SAMPLES floats
    totals = [None] * len(chunks)
    for s0 in range(0, len(blocks), per_slab):
        slab = blocks[s0 : s0 + per_slab]
        # the weights within block (p0, p1): phase q <= p of period i, and q < p
        # of period i - 1 (subtracted from its rest); on the diagonals, the half
        # weights of the window's two end samples
        now, before = [], []
        for p0, p1 in slab:
            src = sources[:, p0:p1]
            half = np.diag(0.5 * trapezoid[p0:p1])
            now.append(np.tril(cur[:, p0:p1].T @ src) - half)
            before.append(np.tril(prev[:, p0:p1].T @ src, -1) + half)
        k = min(len(slab), full - s0)  # the slab's full blocks
        now_t = np.stack([a.T for a in now[:k]]) if k > 0 else None
        for c, (periods, rows) in enumerate(chunks):
            # done[i, s]: sum over the phases before the block of source s times
            # x in period i; rest[i, s]: the same over the block and the phases after
            if s0 == 0:
                totals[c] = (np.zeros((len(periods), len(sources))), periods @ sources.T)
            done, rest = totals[c]
            if k > 0:
                np.matmul(_blocks(periods[1:], s0, k), now_t, out=_blocks(rows, s0, k))
            for g, (p0, p1) in enumerate(slab):
                xb, src, acc = periods[:, p0:p1], sources[:, p0:p1], rows[:, p0:p1]
                if g >= k:
                    np.matmul(xb[1:], now[g].T, out=acc)
                acc -= xb[:-1] @ before[g].T
                acc += done[1:] @ cur[:, p0:p1]
                acc += rest[:-1] @ prev[:, p0:p1]
                step = xb @ src.T
                done += step
                rest -= step
            if s0 + per_slab >= len(blocks):
                totals[c] = None
    if whole < n:
        out[whole:] = chunks[-1][1][0, : n - whole]
    return out


def moving_integral(signal: SampledSignal, window: float) -> WindowedSignal:
    """Trailing-window integral: output[i] = integral of signal over
    [t_i - window, t_i], trapezoidal rule, by `window_sums` with dt per phase.

    The window must be an integer number of samples.  The cost is O(1) per
    sample and the rounding does not grow with the signal's length.  The
    first window/dt outputs integrate from the start and are warm-up.
    """
    grid = signal.grid
    w = window_samples(grid, window)
    out = window_sums(signal.values, np.full(w, grid.dt))
    return WindowedSignal(SampledSignal(grid, frozen(out)), warmup=w)


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


def write_csv(signal: SampledSignal, path) -> None:
    """Write a signal as `t,value` CSV with full float precision.

    Each row is `%.17g,%.17g`, so every float reads back exactly.  Rows are
    formatted _CSV_CHUNK (256) at a time: the chunk's times and values are
    interleaved into one list and formatted by one `%` over a repeated row
    format, then written with one call.  That is the same text as one
    f-string and one write per row, in 30-45 % less time; the per-value
    `%.17g` is the floor.  The chunk is fixed, not an option: between 64 and
    2048 rows the speed barely changes, while the writer's memory (times,
    lists and text of one chunk, ~40 KiB at 256 rows) grows with it, and a
    chunk that swallows a whole file would raise the peak memory of a run.
    """
    grid, values = signal.grid, signal.values
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for start in range(0, grid.n, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, grid.n)
            rows = [0.0] * (2 * (stop - start))
            rows[0::2] = grid.times(start, stop).tolist()
            rows[1::2] = values[start:stop].tolist()
            fh.write(("%.17g,%.17g\n" * (stop - start)) % tuple(rows))


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
