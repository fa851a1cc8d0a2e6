"""Photoelectric reference channel: LED spot occlusion by the rotating blade.

An LED illuminates a small circular spot a distance R0 from the rotation
axis; the sector-shaped blade sweeps through the spot once per revolution
and a photodiode behind it sees a trapezoid-like waveform.  This module
computes that waveform from the geometry (a closed-form blocked arc at
each radius and one adaptive radial quadrature of the emission-weighted
arc, with a Monte Carlo cross-check),
fits the transition with a cosine model, detects the period, and builds
the clean harmonic references used for demodulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import ConfigError, PreconditionError
from .signals import HarmonicSeries, SampledSignal, TimeGrid, frozen

# LED emission fit I(beta) = A*cos(k*beta) + c, k per radian
DEFAULT_EMISSION_A = 4.113
DEFAULT_EMISSION_K = 0.0789 * 180.0 / np.pi
DEFAULT_EMISSION_C = 4.227

_QUAD_EPS = 1e-10


@dataclass(frozen=True)
class EmissionFit(Config):
    """Emitted intensity vs emission angle: I(beta) = A*cos(k*beta) + c."""

    A: float = DEFAULT_EMISSION_A
    k: float = DEFAULT_EMISSION_K
    c: float = DEFAULT_EMISSION_C

    def __post_init__(self):
        if not all(np.isfinite([self.A, self.k, self.c])):
            raise PreconditionError("emission fit parameters must be finite")


@dataclass(frozen=True)
class SpotGeometry(Config):
    """LED/blade/photodiode geometry.

    r0: spot radius (mm); d: LED-to-blade distance (mm); R0: rotation center
    to spot center distance (mm); theta_gnd: blade sector angle (radians;
    the config key theta_gnd_deg is in degrees).
    """

    r0: float = 0.5
    d: float = 2.0
    R0: float = 6.0
    theta_gnd: float = field(default=np.deg2rad(30.0), metadata={"deg": True})
    emission: EmissionFit = field(default_factory=EmissionFit)

    def __post_init__(self):
        if min(self.r0, self.d, self.R0) <= 0.0:
            raise PreconditionError("all lengths must be positive")
        if self.r0 >= self.R0:
            raise PreconditionError(
                f"spot radius {self.r0} must be smaller than orbit radius {self.R0}"
            )
        if not (0.0 < self.theta_gnd < np.pi):
            raise PreconditionError(
                f"blade sector angle must be in (0, pi), got {self.theta_gnd}"
            )

    @property
    def theta_max(self) -> float:
        """Half-angle subtended by the spot, seen from the rotation center."""
        return float(np.arcsin(self.r0 / self.R0))


@dataclass(frozen=True)
class TrapezoidFit:
    """Cosine model of the reference transition: B*cos(u*theta + phi) + c2."""

    B: float
    u: float
    phi: float
    c2: float

    def __post_init__(self):
        if not all(np.isfinite([self.B, self.u, self.phi, self.c2])):
            raise PreconditionError("trapezoid fit parameters must be finite")

    def __call__(self, theta):
        return self.B * np.cos(self.u * np.asarray(theta, dtype=float) + self.phi) + self.c2

    def canonical(self) -> "TrapezoidFit":
        """Equivalent parameters with B >= 0, u >= 0 and phi in [0, 2*pi).

        cos is even, so (B, u, phi) ~ (B, -u, -phi) ~ (-B, u, phi + pi);
        canonicalizing makes fits comparable across those branches.
        """
        B, u, phi = self.B, self.u, self.phi
        if B < 0:
            B, phi = -B, phi + np.pi
        if u < 0:
            u, phi = -u, -phi
        return TrapezoidFit(B, u, float(phi % (2.0 * np.pi)), self.c2)

    def to_dict(self) -> dict:
        return {"B": self.B, "u": self.u, "phi": self.phi, "c2": self.c2}


def emission_intensity(em: EmissionFit, beta) -> np.ndarray | float:
    """LED intensity at emission angle beta (radians).

    Warns when |k*beta| exceeds pi: that is outside the fitted lobe and the
    cosine model is extrapolating.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(np.abs(em.k * beta) > np.pi):
        warnings.warn(
            "emission angle outside the fitted lobe (|k*beta| > pi); "
            "cosine fit is extrapolating",
            stacklevel=2,
        )
    out = em.A * np.cos(em.k * beta) + em.c
    return float(out) if out.ndim == 0 else out


def _wrap_angle(theta):
    """Map an angle (float or array) to [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def _check_small_spot(geom: SpotGeometry) -> None:
    if geom.r0 >= geom.R0 * np.sin(geom.theta_gnd / 2.0):
        raise ConfigError(
            "spot radius exceeds the blade's angular coverage "
            f"(r0={geom.r0} >= R0*sin(theta_gnd/2)="
            f"{geom.R0 * np.sin(geom.theta_gnd / 2.0):.4g}); the blade can "
            "never block the spot completely, which this model does not support"
        )


def transmitted_fraction(geom: SpotGeometry, theta: float) -> float:
    """Emission-weighted fraction of the LED spot not covered by the blade.

    theta is the angle from the blade's leading edge to the spot center,
    wrapped to [-pi, pi).  Piecewise: 1 while the blade is clear of the
    spot, a monotone transition while an edge sweeps across it, exactly 0
    while the sector covers it.

    The spot is narrower than the sector (`_check_small_spot`), so at most
    one edge crosses it and inside the spot the blade covers a half-plane.
    With h the signed distance from the spot center to that edge (positive
    when the center is covered), the circle of radius rho about the center
    has the closed-form arc 2*acos(|h|/rho) on the far side of the edge
    for rho > |h| and none for rho <= |h|.  Only the radial integral of
    that arc, from |h| to r0, is adaptive quadrature.  The far side (the
    minor segment) is the open part when h >= 0 and the blocked part
    otherwise.
    """
    from scipy.integrate import quad  # here, so simulate and modwave never load SciPy

    _check_small_spot(geom)
    theta = _wrap_angle(float(theta))
    trail = theta - geom.theta_gnd  # trailing-edge angle, wrapped like theta
    if trail < -math.pi:
        trail += 2.0 * math.pi
    t_max = geom.theta_max
    if abs(theta) < t_max:
        h = geom.R0 * math.sin(theta)
    elif abs(trail) < t_max:
        h = -geom.R0 * math.sin(trail)
    else:
        return 0.0 if 0.0 <= theta <= geom.theta_gnd else 1.0

    em = geom.emission
    emission_intensity(em, math.atan(geom.r0 / geom.d))  # warns past the fitted lobe
    A, k, c, d = em.A, em.k, em.c, geom.d

    def weighted(rho):
        return (A * math.cos(k * math.atan(rho / d)) + c) * rho

    a = min(abs(h), geom.r0)  # R0*sin(theta) may round past r0 just inside t_max
    minor, _ = quad(
        lambda rho: weighted(rho) * math.acos(a / rho),
        a,
        geom.r0,
        limit=200,
        epsabs=_QUAD_EPS,
        epsrel=_QUAD_EPS,
    )
    disc, _ = quad(weighted, 0.0, geom.r0, limit=200, epsabs=_QUAD_EPS, epsrel=_QUAD_EPS)
    minor_share = minor / (math.pi * disc)
    return minor_share if h >= 0.0 else 1.0 - minor_share


def transmitted_fraction_mc(
    geom: SpotGeometry, theta: float, n_samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of transmitted_fraction with its standard error.

    Independent of the quadrature path: samples points uniformly over the
    spot disc, weights by the emission profile and tests blade coverage
    directly.  Used to cross-validate the quadrature.
    """
    _check_small_spot(geom)
    theta = float(_wrap_angle(theta))
    rng = np.random.default_rng(seed)
    rho = geom.r0 * np.sqrt(rng.random(n_samples))
    phi = rng.random(n_samples) * 2.0 * np.pi
    x = geom.R0 + rho * np.cos(phi)
    y = rho * np.sin(phi)
    psi = np.arctan2(y, x)
    covered = ((psi - (theta - geom.theta_gnd)) % (2.0 * np.pi)) <= geom.theta_gnd
    em = geom.emission
    w = em.A * np.cos(em.k * np.arctan(rho / geom.d)) + em.c
    a = w * ~covered
    mean_b = np.mean(w)
    estimate = float(np.sum(a) / np.sum(w))
    resid = a - estimate * w
    stderr = float(np.sqrt(np.var(resid) / n_samples) / mean_b)
    return estimate, stderr


def reference_waveform(geom: SpotGeometry, grid: TimeGrid, f_rot: float) -> SampledSignal:
    """Photodiode output over time: transmitted_fraction at theta = 2*pi*f_rot*t.

    Values repeat each rotation period, so the occlusion integral is
    evaluated once per distinct angle.
    """
    if not (f_rot > 0.0):
        raise PreconditionError(f"rotation frequency must be positive, got {f_rot}")
    _check_small_spot(geom)
    theta = _wrap_angle(2.0 * np.pi * f_rot * grid.times())
    # collapse angles that are equal up to float jitter before the expensive calls
    keys = np.round(theta, 12)
    uniq, inverse = np.unique(keys, return_inverse=True)
    frac = np.array([transmitted_fraction(geom, th) for th in uniq])
    return SampledSignal(grid, frozen(frac[inverse]))


def _first_transition(values: np.ndarray) -> slice:
    """Slice of the first contiguous run of samples strictly between the
    plateau bands (2% of range off either extreme)."""
    vmin, vmax = float(np.min(values)), float(np.max(values))
    span = vmax - vmin
    if span <= 0.0:
        raise PreconditionError("no transition found: signal is constant")
    mid = (values > vmin + 0.02 * span) & (values < vmax - 0.02 * span)
    if not np.any(mid):
        raise PreconditionError("no transition found: no intermediate samples")
    prev = np.concatenate([[False], mid[:-1]])
    starts = np.flatnonzero(mid & ~prev)
    for s in starts:
        e = s
        while e < len(values) and mid[e]:
            e += 1
        if e - s >= 5:
            return slice(s, e)
    raise PreconditionError("no transition found: intermediate runs too short")


def fit_trapezoid_cosine(signal: SampledSignal, f_rot: float) -> tuple[TrapezoidFit, float]:
    """Least-squares cosine fit B*cos(u*theta + phi) + c2 over the first
    transition of a trapezoid-like waveform.

    theta is the (unwrapped) rotation angle 2*pi*f_rot*t.  Returns the fit
    and the residual RMS over the fitted segment.
    """
    from scipy.optimize import curve_fit  # here, so simulate and modwave never load SciPy

    if not (f_rot > 0.0):
        raise PreconditionError(f"rotation frequency must be positive, got {f_rot}")
    sel = _first_transition(signal.values)
    theta = 2.0 * np.pi * f_rot * signal.times()[sel]
    v = signal.values[sel]

    vmin, vmax = float(np.min(signal.values)), float(np.max(signal.values))
    c0 = 0.5 * (vmax + vmin)
    b0 = 0.5 * (vmax - vmin)
    dtheta = theta[-1] - theta[0]
    ncross = int(np.count_nonzero(np.diff(np.sign(v - c0)) != 0))
    u0 = max(ncross, 1) * np.pi / max(dtheta, 1e-12)

    def model(th, B, u, phi, c2):
        return B * np.cos(u * th + phi) + c2

    best = None
    for u_init in (u0, -u0):
        # choose the phi branch whose initial slope matches the data
        cos0 = np.clip((v[0] - c0) / b0, -1.0, 1.0)
        for phi_branch in (np.arccos(cos0), -np.arccos(cos0)):
            phi_init = phi_branch - u_init * theta[0]
            try:
                popt, _ = curve_fit(
                    model, theta, v, p0=[b0, u_init, phi_init, c0], maxfev=20000
                )
            except RuntimeError:
                continue
            resid = float(np.sqrt(np.mean((v - model(theta, *popt)) ** 2)))
            if best is None or resid < best[1]:
                best = (popt, resid)
    if best is None:
        raise PreconditionError("cosine fit of the transition did not converge")
    popt, resid = best
    fit = TrapezoidFit(B=float(popt[0]), u=float(popt[1]), phi=float(popt[2]), c2=float(popt[3]))
    return fit, resid


def detect_period(signal: SampledSignal, threshold: float) -> float:
    """Mean spacing of successive downward crossings of a threshold.

    threshold is a fraction of the signal's min-max range.  Crossing times
    are linearly interpolated between samples.
    """
    if not (0.0 < threshold < 1.0):
        raise PreconditionError(f"threshold must be a fraction in (0, 1), got {threshold}")
    v = signal.values
    vmin, vmax = float(np.min(v)), float(np.max(v))
    if vmax <= vmin:
        raise PreconditionError("period detection failed: signal has no crossings")
    level = vmin + threshold * (vmax - vmin)
    above = v >= level
    idx = np.flatnonzero(above[:-1] & ~above[1:])
    if len(idx) < 2:
        raise PreconditionError(
            f"period detection needs >= 2 downward crossings, found {len(idx)}"
        )
    t = signal.times()
    frac = (v[idx] - level) / (v[idx] - v[idx + 1])
    crossings = t[idx] + frac * signal.grid.dt
    return float(np.mean(np.diff(crossings)))


def synth_demod_reference(period: float, kind: str, l: int, phase: float) -> HarmonicSeries:
    """Zero-DC harmonic series used as the demodulation reference.

    kind="sine": unit-amplitude fundamental.  kind="square": odd harmonics
    with amplitude 4/(pi*j) up to l.  `phase` is a phase delay of the
    underlying waveform, so harmonic j is rotated by j*phase.
    """
    if not (period > 0.0):
        raise PreconditionError(f"period must be positive, got {period}")
    if l < 1:
        raise PreconditionError(f"harmonic count must be >= 1, got {l}")
    cos_c = np.zeros(l)
    sin_c = np.zeros(l)
    if kind == "sine":
        cos_c[0] = np.cos(phase)
        sin_c[0] = np.sin(phase)
    elif kind == "square":
        for j in range(1, l + 1, 2):
            amp = 4.0 / (np.pi * j)
            cos_c[j - 1] = amp * np.cos(j * phase)
            sin_c[j - 1] = amp * np.sin(j * phase)
    else:
        raise PreconditionError(f"unknown reference kind {kind!r}; use 'square' or 'sine'")
    return HarmonicSeries(f_fund=1.0 / period, dc=0.0, cos_coeffs=cos_c, sin_coeffs=sin_c)
