"""Generalized digital lock-in demodulation.

Neither the modulation nor the reference needs to be sinusoidal: the
reference is split into even (cosine) and odd (sine) harmonic channels,
the modulated signal is multiplied by the selected channel and integrated
over one modulation period, and the result is normalized by the
coefficient overlap (gain) of modulation and reference.  The gain can be
computed symbolically from the coefficients or numerically from one period
of the synthesized product; the numeric path self-calibrates when the
reference carries an unknown common delay.  The one-period window leaves a
ripple that is first order in the signal's slope; `slope_compensate`
estimates the slope from each output's own window and removes it.
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
    integer_ratio,
    moving_integral,
    synth,
)

GAIN_FLOOR = 1e-9


@dataclass(frozen=True)
class DemodReference:
    """Even/odd decomposition of a demodulation reference (both zero-DC)."""

    even: HarmonicSeries
    odd: HarmonicSeries
    f_m: float

    def __post_init__(self):
        if self.even.f_fund != self.f_m or self.odd.f_fund != self.f_m:
            raise PreconditionError("even/odd parts must share the fundamental f_m")
        if self.even.dc != 0.0 or self.odd.dc != 0.0:
            raise PreconditionError("demodulation references must have zero DC")
        if np.any(self.even.sin_coeffs != 0.0) or np.any(self.odd.cos_coeffs != 0.0):
            raise PreconditionError(
                "even part must be cosine-only and odd part sine-only"
            )


@dataclass(frozen=True)
class DemodGain:
    """Coefficient overlap of modulation and reference for each channel."""

    g_even: float
    g_odd: float
    floor: float = GAIN_FLOOR

    def __post_init__(self):
        if max(abs(self.g_even), abs(self.g_odd)) < self.floor:
            raise PreconditionError(
                f"unusable reference: |g_even|={abs(self.g_even):.3g} and "
                f"|g_odd|={abs(self.g_odd):.3g} are both below the floor {self.floor:.3g}"
            )

    def usable(self, channel: str) -> bool:
        return abs(self.channel_gain(channel)) >= self.floor

    def channel_gain(self, channel: str) -> float:
        if channel == "even":
            return self.g_even
        if channel == "odd":
            return self.g_odd
        raise PreconditionError(f"unknown channel {channel!r}; use 'even' or 'odd'")


@dataclass(frozen=True)
class HarmonicOutput:
    """Quadrature outputs for one modulation harmonic."""

    index: int
    X: float
    Y: float
    magnitude: float
    phase: float


@dataclass(frozen=True)
class DemodResult:
    """Restored signal plus per-harmonic quadrature outputs."""

    restored: WindowedSignal
    harmonics: list[HarmonicOutput]


def split_even_odd(r: HarmonicSeries) -> DemodReference:
    """Split a reference series into cosine (even) and sine (odd) channels.

    The DC term is discarded: a reference with DC would leak constant
    offsets of the input straight into the demodulated output.
    """
    zeros = np.zeros(r.n_harmonics)
    even = HarmonicSeries(r.f_fund, 0.0, r.cos_coeffs, zeros)
    odd = HarmonicSeries(r.f_fund, 0.0, zeros, r.sin_coeffs)
    return DemodReference(even=even, odd=odd, f_m=r.f_fund)


def modulate(s: SampledSignal, m: SampledSignal) -> SampledSignal:
    """Pointwise product of two signals on the same grid."""
    if s.grid != m.grid:
        raise PreconditionError(f"grid mismatch: {s.grid} vs {m.grid}")
    return SampledSignal(s.grid, s.values * m.values)


def demod_gain(m: HarmonicSeries, ref: DemodReference) -> DemodGain:
    """Channel gains as coefficient dot products over the shared harmonics."""
    if m.f_fund != ref.f_m:
        raise PreconditionError(
            f"modulation fundamental {m.f_fund} differs from reference f_m {ref.f_m}"
        )
    l = min(m.n_harmonics, ref.even.n_harmonics)
    g_even = float(np.dot(m.cos_coeffs[:l], ref.even.cos_coeffs[:l]))
    g_odd = float(np.dot(m.sin_coeffs[:l], ref.odd.sin_coeffs[:l]))
    return DemodGain(g_even=g_even, g_odd=g_odd)


def demod_gain_numeric(
    m: HarmonicSeries, ref: DemodReference, samples_per_period: int = 1024
) -> DemodGain:
    """Channel gains from one period of the synthesized product:
    g = (2/T) * integral of synth(m)*synth(ref.channel) over one period.

    This path is authoritative when the reference carries an unknown common
    phase: it measures the overlap of the waveforms actually used.
    """
    if m.f_fund != ref.f_m:
        raise PreconditionError(
            f"modulation fundamental {m.f_fund} differs from reference f_m {ref.f_m}"
        )
    n_max = max(m.n_harmonics, ref.even.n_harmonics)
    if samples_per_period <= 2 * n_max:
        raise PreconditionError(
            f"need more than {2 * n_max} samples per period, got {samples_per_period}"
        )
    period = 1.0 / m.f_fund
    grid = TimeGrid(dt=period / samples_per_period, n=samples_per_period, t0=0.0)
    mv = synth(m, grid).values
    g_even = 2.0 * float(np.mean(mv * synth(ref.even, grid).values))
    g_odd = 2.0 * float(np.mean(mv * synth(ref.odd, grid).values))
    return DemodGain(g_even=g_even, g_odd=g_odd)


def demodulate(
    s_m: SampledSignal, ref: DemodReference, gain: DemodGain, channel: str
) -> WindowedSignal:
    """Recover the measured signal from the modulated signal.

    output = (2/T_m) * moving_integral(s_m * reference_channel, T_m) / gain.

    The trailing window [t - T_m, t] estimates the signal at the window
    center, so the output grid is relabeled by -T_m/2: output sample times
    are the centers of the windows they integrate.  The first modulation
    period is warm-up.  Exact for signals constant over each window;
    slowly varying signals are tracked with a ripple at the modulation
    frequency and its harmonics that is first order in the signal's slope.
    `slope_compensate` removes that term.
    """
    g = gain.channel_gain(channel)
    if abs(g) < gain.floor:
        raise PreconditionError(
            f"channel {channel!r} gain {g:.3g} is below the floor {gain.floor:.3g}"
        )
    period = 1.0 / ref.f_m
    if integer_ratio(period / s_m.grid.dt) is None:
        raise PreconditionError(
            f"sample rate {s_m.grid.sample_rate:.6g} Hz is not an integer "
            f"multiple of f_m {ref.f_m:.6g} Hz"
        )
    series = ref.even if channel == "even" else ref.odd
    product = SampledSignal(s_m.grid, s_m.values * synth(series, s_m.grid).values)
    mi = moving_integral(product, period)
    out = mi.signal.values * (2.0 / (period * g))
    grid = s_m.grid
    centered = TimeGrid(grid.dt, grid.n, grid.t0 - period / 2.0)
    return WindowedSignal(SampledSignal(centered, out), warmup=mi.warmup)


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


def _window_sums(x: np.ndarray, m_period: np.ndarray, h: np.ndarray) -> np.ndarray:
    """For every j >= w (w = len(m_period)), the sum over the trailing window
    x[j-w..j] of (h0 + h1*u + (h2 + h3*u)*m) * x, with h = h[j % w] and u
    the window-relative time in periods, centered.

    The signal is viewed one period per row.  A window ending at phase p of
    period i takes phases q >= p of period i - 1 (window index k = q - p)
    and q <= p of period i (k = q - p + w), so it is a combination of the
    running sums over phases of x, q*x, m*x and q*m*x within each period.
    Those restart every period and their weights are bounded by w, so they
    stay accurate however long the signal is.  The loop runs over the w
    phases, each step vectorised over all periods.
    """
    w = len(m_period)
    n = len(x)
    nb = -(-n // w)
    q = np.arange(w)
    # the weight is a + b*k on x and on m*x; `cur` and `prev` are the weights
    # of the running sums of period i (through phase p) and period i - 1
    # (before phase p, subtracted from its total)
    a = (h[:, 0] - 0.5 * h[:, 1], h[:, 2] - 0.5 * h[:, 3])
    b = (h[:, 1] / w, h[:, 3] / w)
    cur = np.stack([a[0] + b[0] * (w - q), b[0], a[1] + b[1] * (w - q), b[1]])
    prev = np.stack([a[0] - b[0] * q, b[0], a[1] - b[1] * q, b[1]])

    if n % w:
        x = np.concatenate([x, np.zeros(nb * w - n)])
    # phase-major copy: one contiguous row of all periods per phase
    phases = np.ascontiguousarray(x.reshape(nb, w).T)
    sources = np.stack([np.ones(w), q, m_period, q * m_period], axis=1)
    # run[s, i]: running sum of source s (x, q*x, m*x, q*m*x) over the phases of period i
    run = np.zeros((4, nb))
    sums = np.empty((w, nb - 1))
    for p in range(w):
        sums[p] = -(prev[:, p] @ run[:, :-1])
        run += np.multiply.outer(sources[p], phases[p])
        sums[p] += cur[:, p] @ run[:, 1:]
    sums += prev.T @ run[:, :-1]
    return sums.T.reshape(-1)[: n - w]


def slope_compensate(
    restored: WindowedSignal,
    s_m: SampledSignal,
    m: HarmonicSeries,
    ref: DemodReference,
    gain: DemodGain,
    channel: str,
) -> WindowedSignal:
    """Remove the first-order (slope) term from the output of `demodulate`.

    For a signal s with slope s' the one-period window returns
    s(t_c) + s'(t_c)*K(t) rather than s(t_c), where t_c is the window
    center and K(t) = (2/(T g)) * integral of (tau - t_c)*m*r over the
    window: a periodic function of where the window sits, which makes a
    ripple at f_m and its harmonics (6% of a 50 Hz sine at f_m = 2.5 kHz).
    This returns restored - K*s'_hat, where s'_hat is taken only from the
    samples of each output's own window (see `_slope_coefficients`): a
    disturbance that is constant or linear within a window cancels
    exactly, the result is exact for a linear signal, and a noise step
    still affects only the outputs whose window contains it.  What is left
    is second order in the signal (about 0.2% in the case above).  The
    warm-up samples are returned unchanged.

    `restored` must be `demodulate(s_m, ref, gain, channel)`, and `m` the
    modulation that `s_m` carries.
    """
    period = 1.0 / ref.f_m
    grid = s_m.grid
    rgrid = restored.signal.grid
    w = restored.warmup
    if m.f_fund != ref.f_m:
        raise PreconditionError(
            f"modulation fundamental {m.f_fund} differs from reference f_m {ref.f_m}"
        )
    if (
        rgrid.n != grid.n
        or rgrid.dt != grid.dt
        or abs(w * grid.dt - period) > 1e-9 * period
        or abs(rgrid.t0 - (grid.t0 - period / 2.0)) > 1e-9 * period
    ):
        raise PreconditionError(
            "restored signal is not the demodulated output of this modulated signal"
        )

    one = TimeGrid(grid.dt, w, grid.t0)
    m_period = synth(m, one).values
    r_period = synth(ref.even if channel == "even" else ref.odd, one).values
    # the window's end samples share a phase and carry u = -1/2 and +1/2, so
    # the trapezoid end weights of the lock-in integral drop out of K
    u = np.arange(w + 1) / w - 0.5
    k_phase = _phase_sums(u, m_period * r_period) * (2.0 / (w * gain.channel_gain(channel)))
    h = _slope_coefficients(m_period) * k_phase[:, None]

    out = restored.signal.values.copy()
    out[w:] -= _window_sums(s_m.values, m_period, h)
    return WindowedSignal(SampledSignal(rgrid, out), warmup=w)


def _recovered_means(
    s_m: SampledSignal, ref: DemodReference, gain: DemodGain
) -> tuple[float, float]:
    """Mean recovered signal over the valid region for each usable channel."""
    means = []
    for channel in ("even", "odd"):
        if gain.usable(channel):
            rec = demodulate(s_m, ref, gain, channel)
            means.append(float(np.mean(rec.valid().values)))
        else:
            means.append(0.0)
    return means[0], means[1]


def harmonic_outputs(
    s_m: SampledSignal,
    m: HarmonicSeries,
    ref: DemodReference,
    gain: DemodGain,
    i: int,
) -> HarmonicOutput:
    """Quadrature outputs of harmonic i: X from the even channel scaled by
    the modulation's cosine coefficient, Y likewise from the odd channel.

    The phase is the full-quadrant angle of (X, Y).  A channel whose gain
    is below the floor contributes zero.
    """
    if not (1 <= i <= m.n_harmonics):
        raise PreconditionError(f"harmonic index {i} out of range 1..{m.n_harmonics}")
    s_even, s_odd = _recovered_means(s_m, ref, gain)
    return _harmonic_output(m, i, s_even, s_odd)


def _harmonic_output(m, i, s_even, s_odd):
    x = float(m.cos_coeffs[i - 1] * s_even)
    y = float(m.sin_coeffs[i - 1] * s_odd)
    return HarmonicOutput(
        index=i,
        X=x,
        Y=y,
        magnitude=float(np.hypot(x, y)),
        phase=float(np.arctan2(y, x)),
    )


def recover(
    s_m: SampledSignal,
    m: HarmonicSeries,
    ref: DemodReference,
    gain: DemodGain,
    channel: str = "even",
) -> DemodResult:
    """Restore the signal and compute all per-harmonic quadrature outputs."""
    restored = demodulate(s_m, ref, gain, channel)
    s_even, s_odd = _recovered_means(s_m, ref, gain)
    harmonics = [
        _harmonic_output(m, i, s_even, s_odd) for i in range(1, m.n_harmonics + 1)
    ]
    return DemodResult(restored=restored, harmonics=harmonics)


def write_harmonics_csv(rows: list[HarmonicOutput], path) -> None:
    """Write harmonic outputs as `i,X,Y,magnitude,phase` CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("i,X,Y,magnitude,phase\n")
        for h in rows:
            fh.write(
                f"{h.index},{h.X:.17g},{h.Y:.17g},{h.magnitude:.17g},{h.phase:.17g}\n"
            )
