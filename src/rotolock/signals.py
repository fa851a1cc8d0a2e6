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


# bytes of one value in write_csv's rows, laid out by `_fields`: its sign, 22
# of digits and point, 4 of exponent and the separator that follows it
_FIELD = 28


def _field_tables() -> tuple[np.ndarray, ...]:
    """The tables `_fields` reads, built once at import by NumPy arithmetic.

    - `scale[:, i]`, for i = E + 7 with E a value's decimal exponent:
      10**(16 - E), exact for i in 1..23, and its two Veltkamp halves of 26
      bits, so that every product of halves is exact.  i = 0 and 24 hold
      1e30 and 0, which scale any |x| in range out of [1e16, 1e17), so a
      misjudged E is stepped, never used.
    - `digits[g]`: the 4 ASCII digits of g in 0..9999 as one 4-byte item,
      moved but never read as a number, so byte order does not matter.
    - `last[k - 1, g]`: for g the k-th group of 4 digits after the lead
      digit (k = 1..4), the place after the lead of its last nonzero digit,
      or 0 for 0000.
    - `before`, `after` and `marks`, each row the bytes of a field: row
      1 + z + 17 * (E + 6) for E in -6..16 and z in 0..16, the place of the
      last nonzero digit, and row 0 for a zero.  The digits sit in columns
      0..20, 4 zeros and then the 17, and field byte 1 + j holds column j
      where `before` is 1 and column j - 1 where `after` is, so a point
      fits between them.  It goes before column E + 5 in fixed notation
      (-4 <= E <= 16) and 5 in d.ddde-0X.  The columns kept run from the
      lead digit, or for E < 0 the zero before the point, to the last
      nonzero digit or the column before the point, whichever is later.
      `marks` holds the point, when digits follow it, the exponent, and the
      `0` of column 0 (E = -4) and of row 0, so that no digit array need
      hold column 0.
    """
    scale = np.zeros((3, 25))
    scale[0, 0] = 1e30
    scale[0, 1:24] = 10.0 ** np.arange(22, -1, -1)
    scale[1] = scale[0] * 134217729.0  # 2**27 + 1: Veltkamp's split
    scale[1] -= scale[1] - scale[0]
    scale[2] = scale[0] - scale[1]

    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # the digits of 0..9999
    digits = np.add(d.T, 48, order="C")
    place = np.max((d != 0) * np.arange(1, 5, dtype=np.int8)[:, None], axis=0)
    last = (place + np.arange(0, 16, 4, dtype=np.int8)[:, None]) * (place > 0)

    e = np.arange(-6, 17)[:, None, None]
    z = np.arange(17)[None, :, None]
    j = np.arange(_FIELD)[None, None, :] - 1
    point = np.where(e >= -4, e + 5, 5)
    first = np.minimum(4, point - 1)  # the first column kept
    end = np.maximum(z + 4, point - 1)  # the last column kept
    before = (j >= np.maximum(first, 1)) & (j < point)
    after = (j > point) & (j <= end + 1)
    marks = np.where((j == point) & (end >= point), 46, 0)  # "."
    marks += np.where((j == 0) & (first == 0), 48, 0)  # "0"
    exponent = np.concatenate(np.broadcast_arrays(101, 45, 48, 48 - e), axis=2)  # "e-0X"
    marks[..., 23:27] = np.where(e < -4, exponent, 0)
    rows = (e.size, z.size, _FIELD)
    layout = [np.broadcast_to(t, rows).reshape(-1, _FIELD) for t in (before, after, marks)]
    layout = [np.vstack([np.zeros(_FIELD), t]).astype(np.uint8) for t in layout]
    layout[2][0, 1] = 48
    return scale, digits.view(np.uint32)[:, 0], last, *layout


# read-only, as every call in the process shares them
_SCALE, _DIGITS, _LAST, _BEFORE, _AFTER, _MARKS = map(frozen, _field_tables())


def _scaled(a: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a * `_SCALE[0, i]` exactly and hi that
    product rounded: Dekker's two-product, with a split by Veltkamp's
    constant and the scale's halves from the table (no FMA)."""
    p = _SCALE[0].take(i)
    hi = a * p
    ah = a * 134217729.0
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    # i is in range: "clip" lets a take write to its out array directly,
    # where the default mode writes through a copy
    lo = ah * _SCALE[1].take(i, out=p, mode="clip")
    lo -= hi
    lo += np.multiply(al, p, out=p)
    _SCALE[2].take(i, out=p, mode="clip")
    ah *= p
    al *= p
    lo += ah
    lo += al
    return hi, lo


def _outside(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Where hi + lo is not in [1e16, 1e17 - 1/2), so that its rounding is
    not a 17-digit integer.  hi - 1e16 + lo has the sign of the exact sum;
    near 1e17 its rounding may put a value in range out, never one out in."""
    u = hi - 1e16
    u += lo
    return (u < 0) | (u >= 9e16)


def _fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value of x as the bytes Python's `g` conversion writes with 17
    significant digits, in one row of `_FIELD` NUL-padded bytes whose last
    (the separator) is 0, and where each was written: every value with
    |x| in (1e-6, 1e17) and every zero.  The rows of the others are left
    for the caller.

    For |x| in range, E = floor(log10|x|) and 10**(16 - E) are taken, and
    `_scaled` gives hi + lo = |x| * 10**(16 - E) exactly.  Where that is not
    in [1e16, 1e17 - 1/2) (`_outside`), log10 was one off: E steps by one
    and the product is redone, so no digit rests on log10's last bit (a
    value still outside is left to the caller).  In range, hi is an even
    integer, as every double past 2**53 is, so hi + rint(lo) is the exact
    product rounded half to even: the 17 digits the conversion rounds to.
    Their groups of 4 are looked up in `_DIGITS`, and the place of the last
    nonzero one and E pick the row of `_field_tables`' layout: fixed
    notation for -4 <= E <= 16 with the trailing zeros and a bare point
    dropped, d.ddde-0X below.  The sign is the sign bit, so -0.0 is `-0`.

    Every step is a NumPy call over all values, with small dtypes and each
    array let go when done: about 100 bytes per value at the peak.
    """
    n = len(x)
    sign = np.signbit(x)
    a = np.abs(x)
    del x  # a caller that hands over its only reference lets it go here
    zero = a == 0
    done = a > 1e-6
    done &= a < 1e17
    a = np.where(done, a, 1.0)  # 1.0 stands in for a value out of range
    i = np.log10(a)
    i += 7.0  # E + 7 is positive, so the cast floors it
    i = i.astype(np.intp)
    hi, lo = _scaled(a, i)
    step = _outside(hi, lo)
    if step.any():
        k = np.flatnonzero(step)
        i[k] += np.where(hi[k] < 5e16, -1, 1)
        hi[k], lo[k] = _scaled(a[k], i[k])
        done[k] &= ~_outside(hi[k], lo[k])
    del a, step
    digits = hi.astype(np.intp)
    digits += np.rint(lo, out=lo).astype(np.intp)
    del hi, lo
    # the 17 digits' groups of 4, the lead digit alone: rows 1, 3 hold the
    # first 9 and last 8 digits, then their splits
    g = np.empty((5, n), np.intp)
    np.divmod(digits, 10**8, out=(g[1], g[3]))
    del digits
    np.divmod(g[1:4:2], 10**4, out=(g[1:4:2], g[2:5:2]))
    np.divmod(g[1], 10**4, out=(g[0], g[1]))
    # digit columns 1..20, the groups, at bytes 4..23 of each row of c
    c = np.empty((n, 7), np.uint32)
    c[:, 1:6] = _DIGITS.take(g).T
    z = np.empty((4, n), np.int8)  # the place of the last nonzero digit
    for k, group in enumerate(g[1:]):
        _LAST[k].take(group, out=z[k], mode="clip")
    del g, group
    z = z.max(axis=0)
    row = 17 * i - 16  # 1 + z + 17 * (E + 6)
    del i
    row += z
    row *= done  # row 0 writes a zero
    c = c.view(np.uint8).reshape(-1)
    # field byte 1 + j takes byte j + 3 of its row of c before the point,
    # j + 2 after it (the layout rows read no other byte of c)
    fields = _BEFORE.take(row, axis=0)
    flat = fields.reshape(-1)
    flat[:-2] *= c[2:]
    part = _AFTER.take(row, axis=0)
    part.reshape(-1)[:-1] *= c[1:]
    del c
    flat += part.reshape(-1)
    flat += _MARKS.take(row, axis=0, out=part, mode="clip").reshape(-1)
    del part
    np.multiply(sign, np.uint8(45), out=fields[:, 0])
    done |= zero
    return fields, done


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
    block of rows, one `_fields` call formats the block's times, taken
    from the grid once, and every file's values, in the block's row order,
    into NUL-padded byte fields; each file's rows are its time and value
    fields side by side, written with the NULs deleted.  `_fields` writes
    every value with |v| in (1e-6, 1e17) and every zero, exactly (see its
    docstring); the others, such as subnormals, values of 1e17 and more or
    a non-finite value, take one `%.17g` for all of them in the block.  No
    value is formatted alone.  The block's fields and text live in `write`
    only, so none is held while the next chunk is made.  A signal on
    another grid than the first is refused.
    The 256 rows are fixed, not an option: the fields of a block take
    about 100 bytes per value at their peak, and a 256-row block of one
    file (512 values) is about as much as a run's peak memory leaves room
    for, while fewer rows add NumPy calls per row.
    """
    stacks = [(signal, path), *more]
    (grid, first), *others = [_stream(s) for s, _ in stacks]
    if any(g != grid for g, _ in others):
        raise PreconditionError(f"files written together must share a grid: {[grid, *(g for g, _ in others)]}")
    # the separator after a row's time, and after each file's value
    ends = np.frombuffer(b"," + b"\n" * len(stacks), np.uint8)

    def write(start: int, blocks: list) -> None:
        """Write rows start.. of each file, from its block of values."""
        k = len(blocks[0])
        columns = [grid.times(start, start + k), *blocks]
        fields, done = _fields(np.stack(columns, axis=1).reshape(-1))
        if not done.all():
            rest = np.flatnonzero(~done)
            values = np.stack(columns, axis=1).reshape(-1)[rest]  # _fields let its x go
            text = ("%.17g " * len(rest) % tuple(values.tolist())).split()
            padded = np.array(text, f"S{_FIELD - 1}").view(np.uint8)  # NUL-padded
            fields[rest, :-1] = padded.reshape(len(rest), _FIELD - 1)
        fields = fields.reshape(k, len(ends), _FIELD)
        fields[:, :, -1] = ends
        for f, fh in enumerate(handles, 1):
            fh.write(fields[:, 0 : f + 1 : f].tobytes().translate(None, b"\0"))

    header = b"t,value\n"
    with contextlib.ExitStack() as files:
        # a buffer as long as the header: every later write is a whole block,
        # which goes to the file as it is
        handles = [files.enter_context(open(p, "wb", buffering=len(header))) for _, p in stacks]
        for fh in handles:
            fh.write(header)
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
