"""Generalized digital lock-in demodulation.

Neither the modulation m nor the zero-DC reference r needs to be
sinusoidal.  The lock-in uses one channel of r: its even (cosine) or its
odd (sine) part.  The modulated signal is multiplied by that part,
integrated over one modulation period and divided by the channel's gain,
the dot product of the harmonic coefficients of m and of the part (by
orthogonality, 2/T times the one-period integral of their product).  A
channel whose gain is below GAIN_FLOOR of its Cauchy-Schwarz bound
|m_ac|*|r| is refused: its output would be disturbance divided by almost
nothing.  The one-period window leaves a ripple that is first order in the
signal's slope; `slope_compensate` estimates the slope from each output's
own window and removes it.

One kernel, `_window_sums`, computes the lock-in integral: a single
period-major pass over the modulated signal that keeps running sums within
each period.  `demodulate` takes the integral alone; `slope_compensate`
takes it together with the slope term from the same pass, so it needs only
the modulated signal, not a demodulated output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .signals import (
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    WindowedSignal,
    frozen,
    integer_ratio,
    synth,
)

# smallest usable |g| / (|m_ac|*|r|), see `channel_gain`
GAIN_FLOOR = 1e-3
CHANNELS = ("even", "odd")


@dataclass(frozen=True)
class HarmonicOutput:
    """Quadrature outputs for one modulation harmonic."""

    index: int
    X: float
    Y: float
    magnitude: float
    phase: float


def modulate(s: SampledSignal, m: SampledSignal) -> SampledSignal:
    """Pointwise product of two signals on the same grid."""
    if s.grid != m.grid:
        raise PreconditionError(f"grid mismatch: {s.grid} vs {m.grid}")
    return SampledSignal(s.grid, frozen(s.values * m.values))


def _part(r: HarmonicSeries, channel: str) -> HarmonicSeries:
    """The even (cosine) or odd (sine) part of r, without its DC term."""
    zeros = np.zeros(r.n_harmonics)
    if channel == "even":
        return HarmonicSeries(r.f_fund, 0.0, r.cos_coeffs, zeros)
    if channel == "odd":
        return HarmonicSeries(r.f_fund, 0.0, zeros, r.sin_coeffs)
    raise PreconditionError(f"unknown channel {channel!r}; use 'even' or 'odd'")


def _norm(s: HarmonicSeries) -> float:
    return float(np.hypot(np.linalg.norm(s.cos_coeffs), np.linalg.norm(s.sin_coeffs)))


def channel_gain(m: HarmonicSeries, r: HarmonicSeries, channel: str) -> tuple[float, float]:
    """Gain g of one channel of the reference r and its share of the bound.

    g is the dot product of the coefficients of m with those of the
    channel's part of r over their shared harmonics.  share is
    |g| / (|m_ac|*|r|), where |r| is the norm of the whole reference: at
    most 1 (Cauchy-Schwarz), and 0 when either norm is.
    """
    if m.f_fund != r.f_fund:
        raise PreconditionError(
            f"modulation fundamental {m.f_fund} differs from reference fundamental {r.f_fund}"
        )
    part = _part(r, channel)
    l = min(m.n_harmonics, r.n_harmonics)
    g = float(
        np.dot(m.cos_coeffs[:l], part.cos_coeffs[:l])
        + np.dot(m.sin_coeffs[:l], part.sin_coeffs[:l])
    )
    bound = _norm(m) * _norm(r)
    return g, (abs(g) / bound if bound > 0.0 else 0.0)


def _channel(m: HarmonicSeries, r: HarmonicSeries, channel: str) -> tuple[HarmonicSeries, float]:
    """The channel's part of r and its gain; a gain below the floor is refused."""
    g, share = channel_gain(m, r, channel)
    if not share >= GAIN_FLOOR:
        raise PreconditionError(
            f"unusable reference: channel {channel!r} gain {g:.3g} is {share:.3g} of its "
            f"bound |m_ac|*|r|, below the floor {GAIN_FLOOR:g}"
        )
    return _part(r, channel), g


def _lockin(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries, channel: str, compensate: bool
) -> WindowedSignal:
    """The lock-in output of `demodulate`, and with `compensate` that of
    `slope_compensate`, from one call of `_window_sums`."""
    part, g = _channel(m, r, channel)
    period = 1.0 / r.f_fund
    grid = s_m.grid
    w = integer_ratio(period / grid.dt)
    if w is None:
        raise PreconditionError(
            f"sample rate {grid.sample_rate:.6g} Hz is not an integer "
            f"multiple of f_m {r.f_fund:.6g} Hz"
        )
    if w >= grid.n:
        raise PreconditionError(
            f"window of {w} samples does not fit in signal of {grid.n} samples"
        )
    one = TimeGrid(grid.dt, w, grid.t0)
    r_period = synth(part, one).values
    h = m_period = None
    if compensate:
        m_period = synth(m, one).values
        # the window's end samples share a phase and carry u = -1/2 and +1/2,
        # so the trapezoid end weights of the lock-in integral drop out of K
        u = np.arange(w + 1) / w - 0.5
        k_phase = _phase_sums(u, m_period * r_period) * (2.0 / (w * g))
        # the slope term K*s'_hat, subtracted
        h = -_slope_coefficients(m_period) * k_phase[:, None]
    # dt/T rather than 1/w: the lock-in integral is (2/T) * dt * trapezoid sum
    c = 2.0 * grid.dt / (period * g)
    # an overflowing product is left to SampledSignal's finiteness check,
    # which reports it once as a precondition error
    with np.errstate(over="ignore", invalid="ignore"):
        out = _window_sums(s_m.values, r_period, c, m_period, h)
    centered = TimeGrid(grid.dt, grid.n, grid.t0 - period / 2.0)
    return WindowedSignal(SampledSignal(centered, frozen(out)), warmup=w)


def demodulate(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries, channel: str
) -> WindowedSignal:
    """Recover the measured signal from the modulated signal s_m, which
    carries the modulation m.

    output = (2/T_m) * moving_integral(s_m * part, T_m) / g, with part and g
    the channel's part of r and its gain.

    The trailing window [t - T_m, t] estimates the signal at the window
    center, so the output grid is relabeled by -T_m/2: output sample times
    are the centers of the windows they integrate.  The first modulation
    period is warm-up.  Exact for signals constant over each window;
    slowly varying signals are tracked with a ripple at the modulation
    frequency and its harmonics that is first order in the signal's slope.
    `slope_compensate` removes that term.
    """
    return _lockin(s_m, m, r, channel, compensate=False)


def _phase_sums(f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[p] = sum over k = 0..w of f[k] * y[(p + k) % w], for one period y
    of length w and window weights f of length w + 1."""
    w = len(y)
    circ = np.fft.irfft(np.conj(np.fft.rfft(f[:w])) * np.fft.rfft(y), n=w)
    return circ + f[w] * y


def _slope_coefficients(m_period: np.ndarray) -> np.ndarray:
    """Per-phase weights (w, 4) of the window sums of x, u*x, m*x and u*m*x
    that give the least-squares coefficient b of x ~ c0 + c1*u + a*m + b*u*m
    over the w + 1 samples of a window starting at phase p (u in periods,
    centered on the window).  They solve G_p c = (0, 0, 0, 1) with G_p the
    Gram matrix of the basis (1, u, m, u*m).
    """
    w = len(m_period)
    u = np.arange(w + 1) / w - 0.5
    sm = [_phase_sums(u**d, m_period) for d in range(3)]
    smm = [_phase_sums(u**d, m_period**2) for d in range(3)]
    gram = np.empty((w, 4, 4))
    gram[:, 0, 0] = w + 1
    gram[:, 0, 1] = gram[:, 1, 0] = 0.0
    gram[:, 1, 1] = np.sum(u**2)
    gram[:, 0, 2] = gram[:, 2, 0] = sm[0]
    gram[:, 0, 3] = gram[:, 3, 0] = gram[:, 1, 2] = gram[:, 2, 1] = sm[1]
    gram[:, 1, 3] = gram[:, 3, 1] = sm[2]
    gram[:, 2, 2] = smm[0]
    gram[:, 2, 3] = gram[:, 3, 2] = smm[1]
    gram[:, 3, 3] = smm[2]
    scale = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    scaled = gram * scale[:, :, None] * scale[:, None, :]
    eig = np.linalg.eigvalsh(scaled)  # ascending; a Gram matrix is symmetric
    if not np.all(eig[:, 0] > 1e-12 * eig[:, -1]):
        raise PreconditionError(
            "slope estimate is singular: within one period the modulation "
            "cannot be told apart from a constant or linear disturbance"
        )
    rhs = np.zeros((w, 4, 1))
    rhs[:, 3, 0] = 1.0
    return scale * np.linalg.solve(scaled, scale[:, :, None] * rhs)[:, :, 0]


# phases per block of `_window_sums`; each block costs two (B x B) matrix
# products per period, and fewer blocks mean fewer Python steps
_PHASE_BLOCK = 32


def _window_sums(
    x: np.ndarray,
    r_period: np.ndarray,
    c: float,
    m_period: np.ndarray | None,
    h: np.ndarray | None,
) -> np.ndarray:
    """The lock-in integral of x, plus a slope term when h is given.

    With w = len(r_period), p = j % w and u the window-relative time in
    periods, centered, output j >= w is
        c * trapezoid sum over x[j-w..j] of r*x
          + sum over x[j-w..j] of (h0 + h1*u + (h2 + h3*u)*m) * x,
    with h = h[p] and r, m the periodic r_period, m_period.  The first w
    outputs are warm-up: c * the trapezoid sum from the start.

    The signal is viewed one period per row.  A window ending at phase p of
    period i takes phases q >= p of period i - 1 (window index k = q - p)
    and q <= p of period i (k = q - p + w), so it is a combination of the
    running sums over phases of r*x and, with h, of x, q*x, m*x and q*m*x
    within each period.  Those restart every period and their weights are
    bounded by w, so they stay accurate however long the signal is.  The
    window's two end samples share phase p; the trapezoid takes half of
    each.

    The phases are taken _PHASE_BLOCK at a time, in one pass over the
    period-major rows.  Within a block the running sums grow by the block's
    samples up to phase p, a lower-triangular (phase x phase) weight matrix
    applied to the block's columns of every period at once, whose diagonal
    also takes off the half end weights; the sums before the block come
    from the running totals.  The output is written in place, one block of
    columns at a time.  Past x (and its zero-padded copy when n % w is not
    0) the only full-length array is the output.
    """
    w = len(r_period)
    n = len(x)
    nb = -(-n // w)
    q = np.arange(w)
    # a sample's weight is c on r*x and a + b*k on x and on m*x (k its window
    # index); `cur` and `prev` are the weights of the running sums of period
    # i (through phase p) and period i - 1 (from phase p on)
    sources, cur, prev = [r_period], [np.full(w, c)], [np.full(w, c)]
    if h is not None:
        a = (h[:, 0] - 0.5 * h[:, 1], h[:, 2] - 0.5 * h[:, 3])
        b = (h[:, 1] / w, h[:, 3] / w)
        sources += [np.ones(w), q, m_period, q * m_period]
        cur += [a[0] + b[0] * (w - q), b[0], a[1] + b[1] * (w - q), b[1]]
        prev += [a[0] - b[0] * q, b[0], a[1] - b[1] * q, b[1]]
    sources, cur, prev = np.stack(sources), np.stack(cur), np.stack(prev)
    ends = 0.5 * c * r_period

    out = np.empty(nb * w)
    head = x[:w] * r_period
    out[0] = 0.0
    np.cumsum(0.5 * (head[1:] + head[:-1]), out=out[1:w])
    out[1:w] *= c
    if n % w:
        x = np.concatenate([x, np.zeros(nb * w - n)])
    periods = x.reshape(nb, w)
    cols = out[w:].reshape(nb - 1, w)
    # done[i, s]: sum over the phases before the block of source s times x
    # in period i; rest[i, s]: the same over the block and the phases after
    done = np.zeros((nb, len(sources)))
    rest = periods @ sources.T
    for p0 in range(0, w, _PHASE_BLOCK):
        p1 = min(p0 + _PHASE_BLOCK, w)
        xb, src = periods[:, p0:p1], sources[:, p0:p1]
        # weights within the block: phase q <= p of period i, and q < p of
        # period i - 1 (subtracted from its rest); on the diagonals, the half
        # weights of the window's two end samples
        half = np.diag(ends[p0:p1])
        now = np.tril(cur[:, p0:p1].T @ src) - half
        before = np.tril(prev[:, p0:p1].T @ src, -1) + half
        acc = xb[1:] @ now.T
        acc -= xb[:-1] @ before.T
        acc += done[1:] @ cur[:, p0:p1]
        acc += rest[:-1] @ prev[:, p0:p1]
        cols[:, p0:p1] = acc
        step = xb @ src.T
        done += step
        rest -= step
    del cols  # a view: the output cannot shrink in place while it exists
    if nb * w != n:
        out.resize(n, refcheck=False)
    return out


def slope_compensate(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries, channel: str
) -> WindowedSignal:
    """`demodulate`'s output without its first-order (slope) term.

    For a signal s with slope s' the one-period window returns
    s(t_c) + s'(t_c)*K(t) rather than s(t_c), where t_c is the window
    center and K(t) = (2/(T g)) * integral of (tau - t_c)*m*part over the
    window: a periodic function of where the window sits, which makes a
    ripple at f_m and its harmonics (6% of a 50 Hz sine at f_m = 2.5 kHz).
    This returns the demodulated output less K*s'_hat, where s'_hat is
    taken only from the samples of each output's own window (see
    `_slope_coefficients`): a disturbance that is constant or linear within
    a window cancels exactly, the result is exact for a linear signal, and
    a noise step still affects only the outputs whose window contains it.
    What is left is second order in the signal (about 0.2% in the case
    above).  The warm-up samples are those of `demodulate`.  One pass of
    `_window_sums` gives both terms.
    """
    return _lockin(s_m, m, r, channel, compensate=True)


def harmonic_outputs(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries
) -> list[HarmonicOutput]:
    """Quadrature outputs of every modulation harmonic: X_i is the mean
    recovered signal of the even channel times the modulation's cosine
    coefficient i, Y_i that of the odd channel times its sine coefficient.

    One demodulation per usable channel gives both means.  A channel whose
    gain is below the floor contributes zero; when both are, the reference
    is refused.  The phase is the full-quadrant angle of (X, Y).
    """
    means = {}
    for channel in CHANNELS:
        if channel_gain(m, r, channel)[1] >= GAIN_FLOOR:
            means[channel] = float(np.mean(demodulate(s_m, m, r, channel).valid().values))
    if not means:
        raise PreconditionError(
            f"unusable reference: both channel gains are below the floor {GAIN_FLOOR:g} "
            "of their bound |m_ac|*|r|"
        )
    x = m.cos_coeffs * means.get("even", 0.0)
    y = m.sin_coeffs * means.get("odd", 0.0)
    magnitude, phase = np.hypot(x, y), np.arctan2(y, x)
    return [
        HarmonicOutput(i + 1, float(x[i]), float(y[i]), float(magnitude[i]), float(phase[i]))
        for i in range(m.n_harmonics)
    ]


def write_harmonics_csv(rows: list[HarmonicOutput], path) -> None:
    """Write harmonic outputs as `i,X,Y,magnitude,phase` CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("i,X,Y,magnitude,phase\n")
        for h in rows:
            fh.write(
                f"{h.index},{h.X:.17g},{h.Y:.17g},{h.magnitude:.17g},{h.phase:.17g}\n"
            )
