"""Electrode-angle dependent light-intensity modulation.

The rotating ground electrode sweeps the field in the crystal once per
revolution, so the detected optical power is a periodic function of the
electrode angle alpha.  The waveform is not a pure sinusoid; it is carried
here as a 7-harmonic cosine fit with a common phase and a DC offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, reject_unknown_keys
from .signals import HarmonicSeries

# default fit of the modulated-intensity waveform vs electrode angle:
# amplitudes of harmonics 1..7, common phase (rad) and offset
DEFAULT_AMPLITUDES = (0.366, 0.118, 0.032, 0.018, 5.4e-3, -6.2e-3, -4.3e-3)
DEFAULT_PHASE = -2.4e-5
DEFAULT_OFFSET = 0.471


@dataclass(frozen=True, eq=False)
class ModulationFit:
    """f(alpha) = offset + sum_i amplitudes[i-1] * cos(i*alpha + phase)."""

    amplitudes: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_AMPLITUDES))
    phase: float = DEFAULT_PHASE
    offset: float = DEFAULT_OFFSET

    def __eq__(self, other):
        if not isinstance(other, ModulationFit):
            return NotImplemented
        return (
            np.array_equal(self.amplitudes, other.amplitudes)
            and self.phase == other.phase
            and self.offset == other.offset
        )

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float)).copy()
        if len(amps) < 1 or not np.all(np.isfinite(amps)):
            raise PreconditionError("amplitudes must be a non-empty finite vector")
        if not (np.isfinite(self.phase) and np.isfinite(self.offset)):
            raise PreconditionError("phase and offset must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_harmonics(self) -> int:
        return len(self.amplitudes)

    def to_dict(self) -> dict:
        return {
            "amplitudes": [float(a) for a in self.amplitudes],
            "phase": self.phase,
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModulationFit":
        reject_unknown_keys(d, {"amplitudes", "phase", "offset"}, "modulation")
        return cls(
            amplitudes=np.asarray(d.get("amplitudes", DEFAULT_AMPLITUDES), dtype=float),
            phase=float(d.get("phase", DEFAULT_PHASE)),
            offset=float(d.get("offset", DEFAULT_OFFSET)),
        )


def eval_modulation(fit: ModulationFit, alpha) -> np.ndarray | float:
    """Modulated intensity at electrode angle alpha (radians, 2*pi periodic)."""
    alpha = np.asarray(alpha, dtype=float)
    i = np.arange(1, fit.n_harmonics + 1)
    terms = fit.amplitudes * np.cos(i * alpha[..., None] + fit.phase)
    out = fit.offset + terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def modulation_series(fit: ModulationFit, f_m: float) -> HarmonicSeries:
    """Time-domain harmonic series of the modulation at rotation frequency f_m.

    Substituting alpha = 2*pi*f_m*t into the angle-domain fit and expanding
    cos(i*alpha + phase) gives per-harmonic cosine/sine coefficients
    A_i*cos(phase) and -A_i*sin(phase).
    """
    if not (f_m > 0.0):
        raise PreconditionError(f"modulation frequency must be positive, got {f_m}")
    return HarmonicSeries(
        f_fund=f_m,
        dc=fit.offset,
        cos_coeffs=fit.amplitudes * np.cos(fit.phase),
        sin_coeffs=-fit.amplitudes * np.sin(fit.phase),
    )
