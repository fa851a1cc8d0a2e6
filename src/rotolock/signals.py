"""Uniformly sampled signals, harmonic synthesis/fitting, windowed integration,
phase-locked down-sampling, and the one writer of output files.

All angles and phases are radians, all times seconds, all frequencies Hz.
Sample times are always derived from (t0, dt, n) so long signals cannot
accumulate stored-time drift.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config, write_json
from .errors import PreconditionError

# relative tolerance used when a ratio (a period over dt) must be an integer
_RATIO_TOL = 1e-9

# rows formatted and written at a time by write_csv (see its docstring), and
# rows of a reader or signal that `_ranges` hands on at a time (32 KiB of values)
_CSV_CHUNK = 256
_CSV_READ = 16 * _CSV_CHUNK

# phases per block of `window_chunks`' block weights: one product by them
# per block and chunk, and fewer blocks mean fewer Python steps
_PHASE_BLOCK = 32

# samples in a cache-sized run (512 KiB of float64): `window_chunks` works
# through chunks of whole periods of about this size and hands its output on
# one such chunk at a time, and `sim._Deviation` keeps the measured sine's
# period to lay over each chunk when the period holds at most this many
_BLOCK_SAMPLES = 2**16

# floats (4 MiB) of `window_chunks`' block weights that it builds once per
# call; a period whose weights take more builds none and takes each source's
# running sums instead
_WEIGHT_FLOATS = 8 * _BLOCK_SAMPLES


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
    def duration(self) -> float:
        """Span covered by the samples (sample-and-hold convention, n*dt)."""
        return self.n * self.dt


def frozen(values: np.ndarray) -> np.ndarray:
    """Make a freshly computed array read-only in place and return it, so
    that SampledSignal takes it over without a copy: the package's one
    read-only handover, also of a signal's, series' or fit's own copy.
    Only for an array that nothing else holds."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Real-valued signal on a TimeGrid.

    `values` is read-only.  The signal keeps its own copy of the array it is
    given, unless that array is read-only and owns its data: then it is taken
    as it is (see `frozen`).  Every value is checked by `finite`: this is
    the one way to build a signal.  `==` and `hash` go by identity, as an
    array has no single truth value to compare by.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n:
            raise PreconditionError(
                f"values length {values.shape} does not match grid n={self.grid.n}"
            )
        self.finite(values)
        # a read-only array that owns its data was handed over by the code that
        # made it (see `frozen`); any other array may still be written through
        # by a caller, so it is copied
        if values.flags.writeable or not values.flags.owndata:
            values = frozen(values.copy())
        object.__setattr__(self, "values", values)

    def times(self) -> np.ndarray:
        return self.grid.times()

    @staticmethod
    def finite(values: np.ndarray) -> np.ndarray:
        """values, refused unless every one is finite: the package's one
        finiteness rule, for a signal's values and for each range or chunk
        of one that is never whole (the noise reader's, the lock-in's)."""
        if not np.all(np.isfinite(values)):
            raise PreconditionError("signal values must all be finite")
        return values


@dataclass(frozen=True, eq=False)
class HarmonicSeries(Config):
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
        cos_c = frozen(np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float)).copy())
        sin_c = frozen(np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float)).copy())
        if len(cos_c) != len(sin_c) or len(cos_c) < 1:
            raise PreconditionError(
                f"cosine/sine coefficient vectors must have equal length >= 1, "
                f"got {len(cos_c)} and {len(sin_c)}"
            )
        if not (np.isfinite(self.dc) and np.all(np.isfinite(cos_c)) and np.all(np.isfinite(sin_c))):
            raise PreconditionError("series coefficients must be finite")
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

    @property
    def n_harmonics(self) -> int:
        return len(self.cos_coeffs)


def period_grid(grid: TimeGrid, *freqs: float) -> TimeGrid:
    """The first k samples of grid over which every sinusoid with a
    fundamental in freqs repeats: k is the least common multiple of their
    periods 1/|f| in samples (1 for a zero frequency, a constant), each a
    whole number to within _RATIO_TOL (the test the lock-in uses).  The
    whole grid when a period is not, or when k >= n.  `synth` on grid is
    its values on this grid, tiled."""
    k = 1
    for f in freqs:
        spp = integer_ratio(1.0 / abs(f) / grid.dt) if f else 1  # f*dt can underflow to 0
        if spp is None:
            return grid
        k = math.lcm(k, spp)
    return grid if k >= grid.n else TimeGrid(grid.dt, k, grid.t0)


def whole_period(grid: TimeGrid, f: float) -> TimeGrid:
    """One period of f on grid, `period_grid(grid, f)`: the lock-in's
    window and warm-up and the down-sampler's stride.  f must be positive,
    its period a whole number of samples (to within _RATIO_TOL) and shorter
    than the grid."""
    one = period_grid(grid, f) if f > 0.0 else grid
    if one.n >= grid.n:
        raise PreconditionError(
            f"the period 1/f of f = {f:.6g} Hz must be a positive whole number of "
            f"samples of dt = {grid.dt:.6g} s, fewer than the signal's n = {grid.n}"
        )
    return one


def tile(period: np.ndarray, grid: TimeGrid) -> SampledSignal:
    """The k-sample array `period`, the values of grid's first k <= n
    samples, repeated over grid as a new signal: sample i is period[i % k].
    `period` must be fresh, as it is taken over (see `frozen`); its values
    are checked finite once, by the signal's constructor, over grid."""
    return SampledSignal(grid, frozen(period if len(period) == grid.n else _Repeating(period, grid.n)[:]))


def _periodic(op, buf: np.ndarray, period: np.ndarray, start: int) -> None:
    """op(dst, src) over buf, with buf holding samples start.. of a signal
    whose sample i is period[i % k]: once for the part before the first
    period boundary, once for the whole periods in between, one per row, and
    once for the rest.  `np.copyto` fills buf with the repeated period."""
    k, n = len(period), len(buf)
    a = min(n, -start % k)
    b = a + (n - a) // k * k
    p = start % k
    op(buf[:a], period[p : p + a])
    op(buf[a:b].reshape(-1, k), period)
    op(buf[b:], period[: n - b])


def synth(series: HarmonicSeries, grid: TimeGrid) -> SampledSignal:
    """Evaluate a harmonic series on a time grid.

    Only the samples of `period_grid` are evaluated, and `tile` lays them
    out to n samples as a signal, whose constructor checks each value
    finite once: O(spp * harmonics) trigonometry and O(n) memory.  Tiling
    also keeps the phase accurate on long grids, where 2*pi*f*t at large t
    loses bits.

    Over the k evaluated samples of l harmonics it holds at most k*(2l+1)
    floats at once: the k-by-l argument table, its cosines and their
    product.  The sines are taken over the table in place and each sum is
    made in place, so the bits are those of
    `dc + cos(args) @ cos_coeffs + sin(args) @ sin_coeffs`.
    """
    one = period_grid(grid, series.f_fund)
    j = np.arange(1, series.n_harmonics + 1)
    # a value past the float range is refused once, by SampledSignal's check
    with np.errstate(over="ignore", invalid="ignore"):
        t = one.times()
        t *= 2.0 * np.pi * series.f_fund
        args = t[:, None] * j[None, :]
        del t
        period = np.cos(args) @ series.cos_coeffs
        period += series.dc
        period += np.sin(args, out=args) @ series.sin_coeffs
    return tile(period, grid)


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
    # m >= n_unknowns: round(n_periods * spp) >= round(spp) >= n_unknowns, and
    # n_periods >= 1 gives grid.n >= spp * (1 - _RATIO_TOL), so grid.n >= n_unknowns
    # for any l below 5e8
    m = min(grid.n, int(round(n_periods * spp)))

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


def window_chunks(
    x,
    trapezoid: np.ndarray,
    plain: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = (),
) -> Iterator[np.ndarray]:
    """Trailing-window sums of x, one output per sample, over windows of
    w + 1 samples, where w = len(trapezoid) is one period; needs w < len(x).
    They come as consecutive chunks: the w warm-up outputs, then chunks of
    whole periods, then the last n % w outputs when that is not 0.  So
    every chunk starts at a whole period.  Each chunk is a fresh array, and
    `_joined` holds the stream whole.

    With p = j % w the phase of output j, i = j - w + k its window's sample
    k = 0..w and u = k/w - 1/2, output j >= w is
        sum over k of e_k * trapezoid[i % w] * x[i]
          + sum over the plain sources (s, c0, c1) of
                sum over k of (c0[p] + c1[p] * u) * s[i % w] * x[i],
    where e_k is 1/2 at the window's two ends (both at phase p) and 1
    inside: the trapezoid rule.  The first w outputs are warm-up: the
    trapezoid sum over [0, j], without the plain sums.  The lock-in takes
    its scaled reference as the trapezoid, with the slope term as plain
    sources; a trapezoid of dt per phase gives x's trapezoid-rule integral
    over each window.

    The signal is viewed one period per row, and every sum is a combination
    of running sums over phases within one period.  Those restart every
    period, so unlike one running sum over the whole signal, subtracted,
    they do not lose bits as the run grows.  For S sources (the trapezoid
    and two per plain one), each with its weights cur on the phases of an
    output's own period and prev on those of the period before, let C[r, q]
    be a source's running sum of source times x over phases 0..q of period
    r (0 for q = -1) and T[r] its whole-period total: output phase p of
    period r is
        sum over the sources of cur[p] * C[r, p]
                                + prev[p] * (T[r - 1] - C[r - 1, p - 1]),
    less half the trapezoid's end samples at phase p of both periods.

    A chunk holds whole periods of about _BLOCK_SAMPLES samples, so that its
    input, output and scratch stay in cache while it is summed.  It reads
    its periods and the one before them as x[i - w : j], once, when it gets
    to them, so x is an ndarray or any object with len and slicing that
    returns a fresh float64 array for the range, which the kernel then owns:
    such a reader, like the simulator's noisy sum, never needs to exist at
    full length.  The block path below writes a chunk's output over the
    first rows of its read and hands on that view, so it reads an ndarray's
    periods as a copy and never writes the caller's array; the running path
    reads them as a view, sums into rows of its own and drops the read.
    Nothing is kept across chunks but the sources and their weights, so a
    consumer that drops each chunk in turn holds no full-length array.  The
    last n % w outputs come from one more chunk over a zero-padded copy of
    the last two periods.

    A chunk's periods become its output rows in one of two ways.  When the
    block weights below fit _WEIGHT_FLOATS (a period of up to 7 072 samples
    for the lock-in's S = 5), the phases go in blocks of _PHASE_BLOCK, and
    the w % _PHASE_BLOCK left over form one more block: within a block the
    running sums grow by the block's samples up to phase p, a
    lower-triangular (phase x phase) weight matrix applied to the block's
    columns of every period at once, whose diagonal also takes off the half
    end weights; the sums before the block come from the running totals.
    The weights take (2 * _PHASE_BLOCK + 2 * S) * _PHASE_BLOCK floats per
    block (the two triangles, then cur and prev) and are built once per
    call.  A chunk's one operand of 2 * (_PHASE_BLOCK + S) columns takes,
    block by block, the block's samples of each output's period and of the
    period before, and the running totals before the block and from it on;
    the block's sums for the running totals are taken from the read, then
    one matrix product by the block's weights writes the block's outputs
    over the block's columns of the read, whose samples the operand holds.
    A longer period builds no weights: each source's running sums C are one
    `np.cumsum` over the chunk's rows, combined as above.  Both restart
    every period, and the cumulative sum rounds more: against exact sums of
    random terms, up to about 7e-15 of an output's sum of |terms| where the
    blocks stay within about 1e-15.

    The plain sources, and the scratch that `_window_sources` builds the
    sources from, are let go before the first output is handed on.  The
    last chunk is handed on only once the kernel has let go of its
    weights, sources and inputs, so a consumer that works on it holds none
    of them.  An overflowing sum is left to the caller's finiteness check,
    `SampledSignal.finite`, which reports it once as a precondition error:
    the lock-in applies it to each chunk as it comes.  Each chunk is
    computed with NumPy's overflow and invalid warnings off, and they are
    back on while the consumer holds it.
    """
    w, n = len(trapezoid), len(x)
    sources, cur, prev = _window_sources(trapezoid, plain)
    del plain  # the plain sources live on in sources, cur and prev only
    m = len(sources)  # S in the docstring
    with np.errstate(over="ignore", invalid="ignore"):
        head = x[:w] * trapezoid
        warm = np.empty(w)
        warm[0] = 0.0
        np.cumsum(0.5 * (head[1:] + head[:-1]), out=warm[1:])
    del head

    blocks = [(p0, min(p0 + _PHASE_BLOCK, w)) for p0 in range(0, w, _PHASE_BLOCK)]
    width = 2 * (_PHASE_BLOCK + m)  # a block's operand columns
    fits = len(blocks) * width * _PHASE_BLOCK <= _WEIGHT_FLOATS
    # chunks: the samples [i, j) whose windows end in them, each read once
    # with the period before them
    whole = n - n % w
    size = max(1, _BLOCK_SAMPLES // w) * w
    spans = [(i, min(i + size, whole)) for i in range(w, whole, size)]
    if whole < n:
        spans.append((whole, n))

    def read(i: int, j: int) -> np.ndarray:
        """The periods [i - w, j) of x, one per row: the last n % w samples
        zero-padded to two periods."""
        if j <= whole:
            periods = x[i - w : j]
            # the block path writes over its read: a caller's array is copied
            return (periods.copy() if fits and isinstance(x, np.ndarray) else periods).reshape(-1, w)
        padded = np.zeros(2 * w)
        padded[: j - i + w] = x[i - w : j]
        return padded.reshape(2, w)

    @np.errstate(over="ignore", invalid="ignore")
    def block_weights(p0: int, p1: int) -> np.ndarray:
        # block (p0, p1) weighs [x of period i | x of period i - 1 | done | rest]:
        # phase q <= p of period i and q < p of period i - 1 (subtracted from its
        # rest), and on the diagonals the half weights of the window's two ends
        src = sources[:, p0:p1]
        half = np.diag(0.5 * trapezoid[p0:p1])
        now = np.tril(cur[:, p0:p1].T @ src) - half
        before = np.tril(prev[:, p0:p1].T @ src, -1) + half
        return np.vstack([now.T, -before.T, cur[:, p0:p1], prev[:, p0:p1]])

    weights = [block_weights(p0, p1) for p0, p1 in blocks] if fits else []

    def blocked(periods: np.ndarray) -> np.ndarray:
        """Output rows of periods[1:] by the block weights, written over
        periods[:-1] block by block once the block has been read."""
        # done[i, s]: sum over the phases before the block of source s times
        # x in period i; rest[i, s]: the same over the block and the phases after
        done, rest = np.zeros((len(periods), m)), periods @ sources.T
        operand = np.empty((len(periods) - 1, width))
        for (p0, p1), weight in zip(blocks, weights):
            b = p1 - p0
            xb = periods[:, p0:p1]
            a = operand[:, : 2 * (b + m)]
            a[:, :b] = xb[1:]
            a[:, b : 2 * b] = xb[:-1]
            a[:, 2 * b : 2 * b + m] = done[1:]
            a[:, 2 * b + m :] = rest[:-1]
            step = xb @ sources[:, p0:p1].T
            np.matmul(a, weight, out=xb[:-1])
            done += step
            rest -= step
        return periods[:-1]

    def running(periods: np.ndarray) -> np.ndarray:
        """Output rows of periods[1:] by each source's running sums."""
        rows = -0.5 * trapezoid * (periods[1:] + periods[:-1])
        for s, now, before in zip(sources, cur, prev):
            partial = periods * s
            np.cumsum(partial, axis=1, out=partial)  # C, and T in its last column
            rows += now * partial[1:]
            rows += before * partial[:-1, -1:]
            rows[:, 1:] -= before[1:] * partial[:-1, :-1]
        return rows

    rows_of = blocked if fits else running
    yield warm
    del warm
    for i, j in spans:
        with np.errstate(over="ignore", invalid="ignore"):
            chunk = rows_of(read(i, j)).reshape(-1)[: j - i]
        if j == n:
            break  # handed on below, once the state is let go
        yield chunk
        del chunk
    del weights, sources, cur, prev, x, trapezoid
    yield chunk


@np.errstate(over="ignore", invalid="ignore")
def _window_sources(trapezoid: np.ndarray, plain: tuple) -> tuple[np.ndarray, ...]:
    """The sources of `window_chunks`, one per row, with their weights on
    the phases of an output's own period (cur) and of the period before
    (prev): the trapezoid, then two per plain source (s, c0, c1).  Their
    scratch lives in this call only, so the kernel's stream holds none of
    it."""
    w = len(trapezoid)
    # a plain source weighs a + b*k at window index k = 0..w, which is
    # a + b*(w - p) + b*q at phase q of output p's own period and a - b*p + b*q
    # in the period before: two internal sources, s with cur and prev, q*s with b
    q = np.arange(w)
    rows = [(trapezoid, np.ones(w), np.ones(w))]
    for s, c0, c1 in plain:
        a, b = c0 - 0.5 * c1, c1 / w
        rows += [(s, a + b * (w - q), a - b * q), (q * s, b, b)]
    return tuple(np.stack(r) for r in zip(*rows))


def _stream(signal) -> tuple[TimeGrid, Iterator[np.ndarray]]:
    """A signal as (its grid, its chunks), the package's one reader of a
    stream: a SampledSignal is read in the ranges of `_ranges`, views of
    its values, and a (grid, chunks) pair of consecutive arrays, cut
    anywhere, is read as its chunks come.  Its one rule, with one message:
    the chunks hold the grid's n values, so a stream is refused once its
    chunks pass n (that chunk is not handed on) or when they end short of
    it.  Each chunk is let go before the next is made."""
    grid, chunks = (signal.grid, _ranges(signal.values)) if isinstance(signal, SampledSignal) else signal

    def filled() -> Iterator[np.ndarray]:
        i = 0
        for chunk in chunks:
            i += len(chunk)
            if i > grid.n:
                break
            yield chunk
            del chunk  # not held while the next one is made
        if i != grid.n:
            raise PreconditionError(f"a stream must hold the {grid.n} samples of its grid")

    return grid, filled()


def _joined(grid: TimeGrid, chunks: Iterable) -> SampledSignal:
    """The stream (grid, chunks) held whole, the one way to make a signal of
    a stream: each chunk `_stream` hands on is copied into its place in one
    array of grid.n values and let go before the next is made, so the
    stream adds one chunk to the array, where chunks kept to be joined at
    the end would add a second full-length array."""
    values, i = np.empty(grid.n), 0
    for chunk in _stream((grid, chunks))[1]:
        values[i : i + len(chunk)] = chunk
        i += len(chunk)
        del chunk  # not held while the next one is made
    return SampledSignal(grid, frozen(values))


def downsample_at_phase(signal, f_m: float, phase: float) -> SampledSignal:
    """Keep one sample per modulation period (`whole_period`): the one
    nearest the requested modulation phase, which must be finite.  The
    output grid has dt = 1/f_m.

    `signal` is a SampledSignal or a (grid, chunks) pair, read by `_stream`:
    the chunks may be cut anywhere, as each chunk's picks start from where
    the chunk does.  The picks are copied out of each chunk before the next
    is taken, so a stream of chunks is never held whole."""
    grid, chunks = _stream(signal)
    if not np.isfinite(phase):
        raise PreconditionError(f"down-sample phase must be finite, got {phase}")
    spp = whole_period(grid, f_m).n
    # index (mod spp) whose modulation phase 2*pi*f_m*t is closest to `phase`
    frac = (phase / (2.0 * np.pi) - f_m * grid.t0) % 1.0
    k0 = int(round(frac * spp)) % spp
    picks, i = [], 0
    for chunk in chunks:
        picks.append(chunk[(k0 - i) % spp :: spp].copy())
        i += len(chunk)
        del chunk  # not held while the next one is made
    values = np.concatenate(picks)
    out_grid = TimeGrid(dt=1.0 / f_m, n=len(values), t0=grid.t0 + k0 * grid.dt)
    return SampledSignal(out_grid, frozen(values))


class _Repeating:
    """A period repeated over n samples, read by sample range: `[i:j]` lays
    it into a fresh array by `_periodic`, so that sample i is
    period[i % len(period)]."""

    def __init__(self, period: np.ndarray, n: int):
        self.period, self.n = period, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, s: slice) -> np.ndarray:
        i, j, _ = s.indices(self.n)
        values = np.empty(j - i)
        _periodic(np.copyto, values, self.period, i)
        return values


def _ranges(reader) -> Iterator[np.ndarray]:
    """A reader by sample range, such as the simulator's noise reader, a
    `_Repeating` period or a signal's values, as consecutive chunks:
    reader[i : i + _CSV_READ] over its len, each read as the last is let
    go, so the signal never needs to exist at full length."""
    for i in range(0, len(reader), _CSV_READ):
        yield reader[i : i + _CSV_READ]


def write_csv(signal, path, *more) -> None:
    """Write a signal as `t,value` CSV with full float precision, and with
    it each (signal, path) pair of `more`, whose signals share its grid.

    Each signal is a SampledSignal or a (grid, chunks) pair, read by
    `_stream`, which refuses one whose chunks do not hold the n values of
    its grid: the chunks of `window_chunks`, or a reader's ranges by
    `_ranges`.  The files are written together, one chunk of each stream
    at a time, so the streams of one call must be cut at the same places,
    or the call is refused; every call the package makes is, as a
    SampledSignal is read in the same ranges as a reader.  Each chunk is
    written as views of at most _CSV_CHUNK (256) rows, starting at its own
    first row, and is let go before the next is made, so a stream of
    chunks is never held whole and no chunk's tail is copied.

    Each row is `%.17g,%.17g`, so every float reads back exactly.  For each
    block of rows, `write` takes the block's times from the grid once, and
    each file's rows are formatted by one `%` and written with one call.  A
    file alone on its grid interleaves its times and values into one list
    under a repeated row format.  A group of files formats the block's
    times once, into rows that hold a `%.17g` for each value, and each file
    fills them with its values: the time column is formatted once for them
    all.  A block whose values all share one bit pattern (compared as
    int64, so -0.0 and 0.0 stay apart), such as a level of step noise, none
    noise or a plateau of the reference, has that value formatted once.
    Every path writes the text of one f-string and one write per row; the
    per-value `%.17g` is the floor.  The block's times, lists and text live
    in `write` only, so none is held while the next chunk is made.  A
    signal on another grid than the first is refused.
    The 256 rows are fixed, not an option: between 64 and 2048 rows the
    speed barely changes, while the writer's memory (times, lists and text
    of 256 rows, ~40 KiB) grows with them, and formatting a whole file at
    once would raise the peak memory of a run.
    """
    stacks = [(signal, path), *more]
    (grid, first), *others = [_stream(s) for s, _ in stacks]
    if any(g != grid for g, _ in others):
        raise PreconditionError(f"files written together must share a grid: {[grid, *(g for g, _ in others)]}")

    def write(start: int, blocks: list) -> None:
        """Write rows start.. of each file, from its block of values."""
        k = len(blocks[0])
        times = grid.times(start, start + k).tolist()
        # a group's rows, the times formatted and a %.17g for each value
        rows = ("%.17g,%%.17g\n" * k) % tuple(times) if more else None
        for fh, block in zip(handles, blocks):
            bits = block.view(np.int64)
            if bits[0] == bits[-1] and np.all(bits == bits[0]):
                value = "%.17g" % float(block[0])
                fh.write(rows.replace("%.17g", value) if more
                         else ("%.17g," + value + "\n") * k % tuple(times))
            elif more:
                fh.write(rows % tuple(block.tolist()))
            else:
                cells = [0.0] * (2 * k)
                cells[0::2] = times
                cells[1::2] = block.tolist()
                fh.write(("%.17g,%.17g\n" * k) % tuple(cells))

    with contextlib.ExitStack() as files:
        handles = [files.enter_context(open(p, "w", newline="")) for _, p in stacks]
        for fh in handles:
            fh.write("t,value\n")
        start = 0
        for chunk in first:
            cut = [chunk, *(next(chunks, ()) for _, chunks in others)]
            del chunk
            if any(len(c) != len(cut[0]) for c in cut):
                raise PreconditionError("files written together must be cut at the same places")
            for i in range(0, len(cut[0]), _CSV_CHUNK):
                write(start + i, [c[i : i + _CSV_CHUNK] for c in cut])
            start += len(cut[0])
            del cut  # not held while the next chunks are made
        for _, chunks in others:
            next(chunks, None)  # a chunk past the grid's n is refused by `_stream`


def write_outputs(files: dict, out) -> list[str]:
    """Make the directory `out` and write each entry name -> value of `files`
    in it: a SampledSignal or a (grid, chunks) pair through `write_csv`, any
    other value through `config.write_json`.  The CSV entries that share a
    TimeGrid, its grid as `_stream` reads it, go to one `write_csv` call,
    which writes them together, one chunk of each at a time (their time
    column formatted once), at the place of the first of them; so they
    must be cut at the same places, as every stack of the package is.
    Every other entry is written in order.  Returns the paths written, as
    strings, in the order of `files`.

    Every file the package writes goes through here, and this is where the
    directory is made, so a caller that refuses its input before this call
    leaves no directory behind.  An OSError becomes one that names `out`.
    """
    out = Path(out)
    # each CSV grid or JSON name -> its entries as (value, path), in order
    writes = {}
    for name, value in files.items():
        key = _stream(value)[0] if isinstance(value, (SampledSignal, tuple)) else name
        writes.setdefault(key, []).append((value, out / name))
    try:
        out.mkdir(parents=True, exist_ok=True)
        for key, (first, *more) in writes.items():
            if isinstance(key, TimeGrid):
                write_csv(*first, *more)
            else:
                write_json(*first)
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return [str(out / name) for name in files]
