"""Deterministic simulation and signal-processing toolkit for a
rotating-electrode optical voltage sensor: electrode-modulated intensity,
optically generated reference, and generalized lock-in demodulation."""

__version__ = "0.1.0"

from .errors import ConfigError, PreconditionError
from .lockin import (
    HarmonicOutput,
    channel_gain,
    demodulate,
    harmonic_outputs,
    modulate,
)
from .modulation import ModulationFit, eval_modulation, modulation_series
from .reference import (
    EmissionFit,
    SpotGeometry,
    TrapezoidFit,
    emission_intensity,
    fit_trapezoid_cosine,
    reference_waveform,
    synth_demod_reference,
    transmitted_fraction,
)
from .signals import (
    HarmonicSeries,
    SampledSignal,
    TimeGrid,
    WindowedSignal,
    downsample_at_phase,
    fit_harmonics,
    moving_integral,
    read_csv,
    synth,
    write_csv,
)
from .sim import NoiseSpec, SimConfig, SimResult, gen_noise, report, run_simulation

__all__ = [
    "ConfigError",
    "PreconditionError",
    "TimeGrid",
    "SampledSignal",
    "HarmonicSeries",
    "WindowedSignal",
    "synth",
    "fit_harmonics",
    "moving_integral",
    "downsample_at_phase",
    "write_csv",
    "read_csv",
    "ModulationFit",
    "eval_modulation",
    "modulation_series",
    "EmissionFit",
    "SpotGeometry",
    "TrapezoidFit",
    "emission_intensity",
    "transmitted_fraction",
    "reference_waveform",
    "fit_trapezoid_cosine",
    "synth_demod_reference",
    "HarmonicOutput",
    "modulate",
    "channel_gain",
    "demodulate",
    "harmonic_outputs",
    "NoiseSpec",
    "SimConfig",
    "SimResult",
    "gen_noise",
    "run_simulation",
    "report",
]
