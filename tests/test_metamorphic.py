"""Metamorphic relations of the measurement chain: how the outputs of two
related configs relate, with no oracle.

The lock-in, the slope term, the down-sampler and both RMS metrics are
linear in the input, and a power of two scales every IEEE product and sum
exactly (step levels, uniform(-a, a), scale exactly with a).  So scaling
`signal_amp` and the noise amplitude by 2**k scales every output and metric
by exactly 2**k, bit for bit; a stray constant term, or values carried
over from an earlier call (a buffer kept across runs), would break it.

The lock-in's window restarts its sums every period, so an input delayed
by whole periods gives the output delayed alike, past warm-up: bit for bit
where every output row is summed alone (the running sums), and within the
rounding of a reordered sum where matrix products take the rows in other
blocks (the block weights).  A window or chunk edge that carries state by
sample index, not by period, would break it.

The lock-in of a sum is the sum of the lock-ins, within the rounding of
the three sums of weight times sample: a constant added to a chunk's
output, or any term that does not scale with the input, would break it.

A longer run keeps a shorter run's output on their shared samples: bit for
bit up to the short run's last lock-in chunk, which is shorter than the
long run's chunk there, and within the rounding of a reordered sum past
it, where the block weights' matrix products take fewer rows (the running
sums, each row alone, keep every bit).  An output that read samples after
its window, or noise drawn by the run's length, would break it.
"""

from dataclasses import replace

import numpy as np
import pytest

from rotolock.lockin import CHANNELS, GAIN_FLOOR, _part, _slope_term, channel_gain, slope_compensate
from rotolock.signals import _BLOCK_SAMPLES, SampledSignal, TimeGrid, synth, whole_period
from rotolock.sim import NoiseSpec, SimConfig, _series, run_simulation

CONFIGS = {
    "default": SimConfig(),
    "sine-10Hz": SimConfig(noise=NoiseSpec(kind="sine", amplitude=10.0, rate_or_freq=10.0)),
    # an 8 000-sample period, past the block weights' budget: the running sums
    "running-sums": SimConfig(f_m=125.0, dt=1e-6, duration=0.2,
                              noise=NoiseSpec(rate_or_freq=20.0)),
}


def outputs(cfg):
    """The run's full-rate and down-sampled outputs and both RMS errors."""
    res = run_simulation(cfg)
    return (res.restored_full.values, res.restored_downsampled.values,
            res.metrics["rms_error_full"], res.metrics["rms_error_downsampled"])


def scaled(cfg, factor):
    return replace(cfg, signal_amp=cfg.signal_amp * factor,
                   noise=replace(cfg.noise, amplitude=cfg.noise.amplitude * factor))


@pytest.mark.parametrize("name", CONFIGS)
def test_power_of_two_scaling_is_exact(name):
    cfg = CONFIGS[name]
    full, down, rms_full, rms_down = outputs(cfg)
    for k in (1, -3, 20):
        factor = 2.0**k
        s_full, s_down, s_rms_full, s_rms_down = outputs(scaled(cfg, factor))
        assert s_full.tobytes() == (factor * full).tobytes(), k
        assert s_down.tobytes() == (factor * down).tobytes(), k
        assert (s_rms_full, s_rms_down) == (factor * rms_full, factor * rms_down), k


def test_zero_in_gives_zero_out():
    full, down, rms_full, rms_down = outputs(SimConfig(signal_amp=0.0, noise=NoiseSpec(kind="none")))
    assert not np.any(full) and not np.any(down)
    assert (rms_full, rms_down) == (0.0, 0.0)


def window_weight_sum(cfg, channel):
    """The largest sum of |weight| over one output's window of w + 1 samples,
    for slope_compensate on cfg's series: the scaled reference period and the
    slope term's two plain sources (s, c0, c1), each weighing its sample by
    (c0[p] + c1[p] * u) * s, |u| <= 1/2."""
    m, r = _series(cfg)
    one = whole_period(cfg.grid, cfg.f_m)
    g = channel_gain(m, r, channel)[0]
    r_period = synth(_part(r, channel), one).values
    total = 2.0 * cfg.dt * cfg.f_m / abs(g) * 2.0 * np.sum(np.abs(r_period))  # ends twice
    for s, c0, c1 in _slope_term(synth(m, one).values, r_period, g):
        total = total + (np.abs(c0) + 0.5 * np.abs(c1)) * 2.0 * np.sum(np.abs(s))
    return float(np.max(total))


def sum_bound(cfg, channel, w):
    """The largest rounding difference between two sums of one window's
    weight times sample, per unit of max|sample|, as derived in
    `test_superposition_of_trace_and_noise`: 2 * gamma_{N+1} of the
    window's sum of |weight|, N = 5 * (w + 1) products over the five
    sources."""
    gamma = (5 * (w + 1) + 1) * np.finfo(float).eps
    return 2.0 * gamma / (1.0 - gamma) * window_weight_sum(cfg, channel)


def lockin_case(cfg):
    """cfg's modulation and reference series, the first channel whose gain
    share passes GAIN_FLOOR, and the window w, one modulation period."""
    m, r = _series(cfg)
    channel = next(c for c in CHANNELS if channel_gain(m, r, c)[1] >= GAIN_FLOOR)
    return m, r, channel, whole_period(cfg.grid, cfg.f_m).n


@pytest.mark.parametrize("name, n", [("default", 150_000), ("running-sums", 200_000)])
def test_whole_period_shift_delays_the_output(name, n):
    # 150 000 samples at w = 200 and 200 000 at w = 8 000 cross two chunk
    # edges; the three-period shift moves every edge off its place
    cfg = CONFIGS[name]
    m, r, channel, w = lockin_case(cfg)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, n)
    delayed = np.concatenate((rng.uniform(-1.0, 1.0, 3 * w), x))
    out, later = (slope_compensate(SampledSignal(TimeGrid(cfg.dt, len(v)), v), m, r, channel).values
                  for v in (x, delayed))
    got, want = later[4 * w:], out[w:]
    # past 7 072 samples a period (window_chunks' limit for the lock-in's five
    # sources) the block weights leave their budget: each row's own running sums
    if w > 7_072:
        assert got.tobytes() == want.tobytes()
    else:
        # the same products of weight and sample, summed in another order:
        # at most 2 * gamma_N times the sum of their sizes, N = 5 * (w + 1)
        # products over the five sources, and max|x| = 1 here
        gamma = 5 * (w + 1) * np.finfo(float).eps
        bound = 2.0 * gamma / (1.0 - gamma) * window_weight_sum(cfg, channel)
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("name, duration", [("default", 0.3), ("running-sums", 0.2)])
def test_superposition_of_trace_and_noise(name, duration):
    # the lock-in of the modulated trace plus the noise is the sum of the
    # two lock-ins, at w = 200 (block weights) and at w = 8 000 (running
    # sums).  Each of the three outputs is within gamma of the exact sums of
    # weight times sample, and the input's sum and the outputs' sum round
    # once more each: gamma_{N+1} + gamma_N + u*(1 + gamma_N) <=
    # 2 * gamma_{N+1}, N = 5 * (w + 1), of the window's sum of |weight|
    # times max|a| + max|b|.  150 000 samples at w = 200 and 200 000 at
    # w = 8 000 cross two chunk edges
    cfg = replace(CONFIGS[name], duration=duration)
    m, r, channel, w = lockin_case(cfg)
    res = run_simulation(cfg)
    a, b = res.modulated.values, res.noise.values
    both, ya, yb = (slope_compensate(SampledSignal(cfg.grid, v), m, r, channel).values
                    for v in (a + b, a, b))
    bound = sum_bound(cfg, channel, w) * (np.max(np.abs(a)) + np.max(np.abs(b)))
    assert np.max(np.abs(both - (ya + yb))) <= bound


@pytest.mark.parametrize("name, short, long", [("default", 0.3, 0.6), ("running-sums", 0.2, 0.4)])
def test_a_longer_run_keeps_the_shorter_runs_output(name, short, long):
    # the lock-in works through chunks of whole periods from sample w on,
    # _BLOCK_SAMPLES // w periods each, and the short run's last chunk holds
    # fewer (both runs are whole periods long).  Before that chunk the two
    # runs sum the same rows the same way; in it the block weights' matrix
    # products take fewer rows, so each output is within the rounding of
    # its window's sums in both runs, of the noisy sum's largest sample.
    # The running sums (w = 8 000) sum each row alone and keep every bit
    cfg = CONFIGS[name]
    _, _, channel, w = lockin_case(cfg)
    head, run = (run_simulation(replace(cfg, duration=d)) for d in (short, long))
    assert run.metrics["channel"] == head.metrics["channel"] == channel
    x = head.restored_full.values
    y = run.restored_full.values[: len(x)]
    size = _BLOCK_SAMPLES // w * w
    cut = w + (len(x) - w - 1) // size * size
    assert x[:cut].tobytes() == y[:cut].tobytes()
    if w > 7_072:  # past the block weights' budget: the running sums
        assert x.tobytes() == y.tobytes()
    else:
        noisy = run.modulated_noisy.values[: len(x)]
        assert np.max(np.abs(x - y)) <= sum_bound(cfg, channel, w) * np.max(np.abs(noisy))
