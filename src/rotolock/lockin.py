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

The lock-in integral is one pass of `signals.window_chunks`, the package's
trailing-window trapezoid kernel: it keeps running sums within each period
and works through the modulated signal in cache-sized chunks of whole
periods, each read once: one matrix product per block of phases and chunk
when the block weights fit its budget, each written over the chunk's read
(a copy of the periods when the signal comes as its values, which are
never written), and one cumulative sum per source and chunk for a longer
period.  It hands on each chunk's output when the
chunk is summed, so the signal can come as its values or as a reader of
them by sample range, and the output can be consumed chunk by chunk:
`sim.run_simulation` passes the noisy sum, built one chunk at a time, and
takes its metrics from the output chunks, so neither is held at full
length.  One function, `_lockin_chunks`, checks the channel's gain,
builds the kernel's sources and returns that stream; `demodulate` and
`slope_compensate` return it held whole by `signals._joined`.
`demodulate` passes the scaled reference period as the trapezoid
integrand; `slope_compensate` adds the slope term to the same call as two
plain sources, the periods ones and m, whose window sums of x and m*x are
weighted per output phase by c0 + c1*u (u centred, in periods), so it needs
only the modulated signal.  The kernel alone maps those weights onto its
period rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .signals import (
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    _joined,
    frozen,
    synth,
    whole_period,
    window_chunks,
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


def modulate(s: SampledSignal, m: HarmonicSeries) -> SampledSignal:
    """s times the modulation m on s's grid (`synth` evaluates m over one
    period and tiles it)."""
    return SampledSignal(s.grid, frozen(s.values * synth(m, s.grid).values))


def _part(r: HarmonicSeries, channel: str) -> HarmonicSeries:
    """The even (cosine) or odd (sine) part of r, without its DC term."""
    zeros = np.zeros(r.n_harmonics)
    if channel == "even":
        return HarmonicSeries(r.f_fund, 0.0, r.cos_coeffs, zeros)
    if channel == "odd":
        return HarmonicSeries(r.f_fund, 0.0, zeros, r.sin_coeffs)
    raise PreconditionError(f"unknown channel {channel!r}; use 'even' or 'odd'")


def _unit(c: np.ndarray) -> tuple[np.ndarray, int]:
    """c scaled exactly by 2**-e to a peak magnitude in [0.5, 1), and e."""
    e = int(np.frexp(np.max(np.abs(c)))[1])
    return np.ldexp(c, -e), e


def channel_gain(m: HarmonicSeries, r: HarmonicSeries, channel: str) -> tuple[float, float]:
    """Gain g of one channel of the reference r and its share of the bound.

    g is the dot product of the coefficients of m with those of the
    channel's part of r over their shared harmonics.  share is
    |g| / (|m_ac|*|r|), where |r| is the norm of the whole reference: at
    most 1 (Cauchy-Schwarz), and 0 when either norm is, at any scale of m or r.
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
    um, ur = (_unit(np.stack([s.cos_coeffs, s.sin_coeffs]))[0] for s in (m, r))
    row = CHANNELS.index(channel)  # the part's row: even the cosines, odd the sines
    bound = float(np.linalg.norm(um) * np.linalg.norm(ur))
    return g, (abs(float(um[row, :l] @ ur[row, :l])) / bound if bound > 0.0 else 0.0)


def _lockin_chunks(
    grid: TimeGrid, x, m: HarmonicSeries, r: HarmonicSeries, channel: str, compensate: bool
) -> tuple[TimeGrid, Iterator[np.ndarray]]:
    """The lock-in output of `demodulate`, and with `compensate` that of
    `slope_compensate`, for the modulated signal with values x on grid, as
    its output grid and the chunks of one `window_chunks` call: x is its
    values or a reader of them by sample range.  The package's one lock-in
    setup and its one form of the lock-in output.

    The setup runs on the call, not on the first chunk, so a channel whose
    gain is below the floor is refused before anything is written.  Each
    chunk is checked by `SampledSignal.finite` as it comes, so a non-finite
    chunk is refused, not handed on.
    """
    g, share = channel_gain(m, r, channel)
    if not share >= GAIN_FLOOR:
        raise PreconditionError(
            f"unusable reference: channel {channel!r} gain {g:.3g} is {share:.3g} of its "
            f"bound |m_ac|*|r|, below the floor {GAIN_FLOOR:g}"
        )
    period = 1.0 / r.f_fund
    one = whole_period(grid, r.f_fund)
    r_period = synth(_part(r, channel), one).values
    plain = _slope_term(synth(m, one).values, r_period, g) if compensate else ()
    # dt/T rather than 1/w: the lock-in integral is (2/T) * dt * trapezoid sum
    c = 2.0 * grid.dt / (period * g)
    centered = TimeGrid(grid.dt, grid.n, grid.t0 - period / 2.0)
    return centered, map(SampledSignal.finite, window_chunks(x, c * r_period, plain))


def demodulate(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries, channel: str
) -> SampledSignal:
    """Recover the measured signal from the modulated signal s_m, which
    carries the modulation m.

    output = (2/T_m) * (trapezoid integral of s_m * part over [t - T_m, t]) / g,
    with part and g the channel's part of r and its gain.

    The trailing window [t - T_m, t] estimates the signal at the window
    center, so the output grid is relabeled by -T_m/2: output sample times
    are the centers of the windows they integrate.  The first modulation
    period, the first `whole_period(s_m.grid, r.f_fund).n` outputs, is
    warm-up: those windows extend before the start of s_m, so they hold
    partial-window values and must not be treated as valid output.  Exact
    for signals constant over each window; slowly varying signals are
    tracked with a ripple at the modulation frequency and its harmonics
    that is first order in the signal's slope.
    `slope_compensate` removes that term.
    """
    return _joined(*_lockin_chunks(s_m.grid, s_m.values, m, r, channel, compensate=False))


# weights that overflow (a subnormal m) are left to SampledSignal's finiteness check
@np.errstate(over="ignore", invalid="ignore")
def _slope_term(m_period: np.ndarray, r_period: np.ndarray, g: float) -> tuple:
    """The slope term K*s'_hat, subtracted, as plain sources of `window_chunks`:
    for output phase p the window sum of (h0 + h1*u + (h2 + h3*u)*m) * x,
    h = h[p], that is (ones, h0, h1) and (m, h2, h3).
    """
    w = len(m_period)
    # the window's end samples share a phase and carry u = -1/2 and +1/2,
    # so the trapezoid end weights of the lock-in integral drop out of K
    u = np.arange(w + 1) / w - 0.5
    m_period, e = _unit(m_period)  # exact, so that m**2 neither overflows nor underflows
    # first, so that a modulation too flat to fit is refused before its K overflows
    coef = _slope_coefficients(m_period)
    # K from the scaled period, with g scaled alike: the same bits as unscaled
    k_phase = _phase_sums(u, m_period * r_period) * (2.0 / (w * np.ldexp(g, -e)))
    h = -coef * np.ldexp(k_phase, -e)[:, None]
    return (np.ones(w), h[:, 0], h[:, 1]), (m_period, h[:, 2], h[:, 3])


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

    Basis function i is u**du[i] * m**dm[i], du = (0, 1, 0, 1) and
    dm = (0, 0, 1, 1), so G_p[i, j] is sums[p, du[i] + du[j], dm[i] + dm[j]],
    one index rule over the nine window sums of u**d * m**e, d and e in 0..2.
    Three of them hold for every phase: w + 1, exactly 0.0 and the sum of
    u**2.  The stack is taken from them in C order, one matrix per phase.
    """
    w = len(m_period)
    u = np.arange(w + 1) / w - 0.5
    sums = np.empty((w, 3, 3))
    sums[:, :, 0] = w + 1, 0.0, np.sum(u**2)
    for d in range(3):
        sums[:, d, 1] = _phase_sums(u**d, m_period)
        sums[:, d, 2] = _phase_sums(u**d, m_period**2)
    du, dm = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    gram = np.take(sums.reshape(w, 9), 3 * (du[:, None] + du) + dm[:, None] + dm, axis=1)
    del sums  # not held through the solves, which set the peak
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


def slope_compensate(
    s_m: SampledSignal, m: HarmonicSeries, r: HarmonicSeries, channel: str
) -> SampledSignal:
    """`demodulate`'s output without its first-order (slope) term.

    For a signal s with slope s' the one-period window returns
    s(t_c) + s'(t_c)*K(t) rather than s(t_c), where t_c is the window
    center and K(t) = (2/(T g)) * integral of (tau - t_c)*m*part over the
    window: a periodic function of where the window sits, which makes a
    ripple at f_m and its harmonics (6% of a 50 Hz sine at f_m = 2.5 kHz).
    This returns the demodulated output less K*s'_hat, where s'_hat is
    taken only from the samples of each output's own window (see
    `_slope_coefficients`): a disturbance that is constant or linear within
    a window cancels in s'_hat, the result is exact for a linear signal, and
    a noise step still affects only the outputs whose window contains it.
    What is left is second order in the signal (about 0.2% in the case
    above).  The output keeps `demodulate`'s term of the disturbance,
    though: a constant cancels in it, a linear one does not.  A 628/s ramp
    (the steepest slope of a 10 Hz sine of amplitude 10) leaks up to 0.214
    at most window positions of the default run; its default down-sample
    phase picks one where the leak vanishes.  The warm-up samples are
    those of `demodulate`.  One call of `window_chunks` gives both terms,
    as the stream of `_lockin_chunks` held whole.
    """
    return _joined(*_lockin_chunks(s_m.grid, s_m.values, m, r, channel, compensate=True))


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
            warmup = whole_period(s_m.grid, r.f_fund).n
            means[channel] = float(np.mean(demodulate(s_m, m, r, channel).values[warmup:]))
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
