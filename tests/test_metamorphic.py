"""Metamorphic relations of the measurement chain: how the outputs of two
related configs relate, with no oracle.

The lock-in, the slope term, the down-sampler and both RMS metrics are
linear in the input, and a power of two scales every IEEE product and sum
exactly (step levels, uniform(-a, a), scale exactly with a).  So scaling
`signal_amp` and the noise amplitude by 2**k scales every output and metric
by exactly 2**k, bit for bit; a stray constant term, or values carried
over from an earlier call (a buffer kept across runs), would break it.
"""

from dataclasses import replace

import numpy as np
import pytest

from rotolock.sim import NoiseSpec, SimConfig, run_simulation

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
