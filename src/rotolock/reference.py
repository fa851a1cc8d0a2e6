"""Photoelectric reference channel: LED spot occlusion by the rotating blade.

An LED illuminates a small circular spot a distance R0 from the rotation
axis; the sector-shaped blade sweeps through the spot once per revolution
and a photodiode behind it sees a trapezoid-like waveform.  This module
computes that waveform from the geometry (a closed-form blocked arc at
each radius and a Gauss-Legendre rule for the radial integral of the
emission-weighted arc, with a Monte Carlo cross-check), fits the transition
with a cosine model, detects the period, and builds the clean harmonic
references used for demodulation.

`transmitted_fraction` takes one angle or an array of them through one
code path: the angles on an edge share each node count of the rule and its
disc integral, so a whole waveform is one call.
"""

from __future__ import annotations

import functools
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

_MAX_NODES = 4096  # node cap of the radial rule in `transmitted_fraction`
# fixed blocks, so that the temporaries of `transmitted_fraction` do not grow
# with its input: angles classified per pass, floats per temporary of the rule
_ANGLE_BLOCK = 256
_RULE_FLOATS = 1 << 10


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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], read-only
    because every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    return frozen(0.5 * (x + 1.0)), frozen(0.5 * w)


def transmitted_fraction(geom: SpotGeometry, theta) -> np.ndarray | float:
    """Emission-weighted fraction of the LED spot not covered by the blade.

    theta (a float or an array) is the angle from the blade's leading edge
    to the spot center, wrapped to [-pi, pi).  Piecewise: 1 while the blade
    is clear of the spot, a monotone transition while an edge sweeps across
    it, exactly 0 while the sector covers it.  A float in gives a float out.

    The spot is narrower than the sector (`_check_small_spot`), so at most
    one edge crosses it and inside the spot the blade covers a half-plane.
    With h the signed distance from the spot center to that edge (positive
    when the center is covered), the circle of radius rho about the center
    has the closed-form arc 2*acos(|h|/rho) on the far side of the edge
    for rho > |h| and none for rho <= |h|.  The far side (the minor
    segment) is the open part when h >= 0 and the blocked part otherwise.
    The angles are classified _ANGLE_BLOCK at a time and those on an edge
    go to `_minor_share`; the emission-lobe warning fires once per call,
    and only when some angle is on an edge.
    """
    _check_small_spot(geom)
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape)
    angles, flat = theta.reshape(-1), out.reshape(-1)
    t_max = geom.theta_max
    edges, dists = [], []
    for start in range(0, angles.size, _ANGLE_BLOCK):
        th = _wrap_angle(angles[start : start + _ANGLE_BLOCK])
        trail = th - geom.theta_gnd  # trailing-edge angle, wrapped like theta
        trail[trail < -math.pi] += 2.0 * math.pi
        lead = np.abs(th) < t_max
        edge = np.flatnonzero(lead | (np.abs(trail) < t_max))
        flat[start : start + th.size] = np.where((0.0 <= th) & (th <= geom.theta_gnd), 0.0, 1.0)
        if edge.size:
            edges.append(start + edge)
            dists.append(
                np.where(lead[edge], geom.R0 * np.sin(th[edge]), -geom.R0 * np.sin(trail[edge]))
            )
    if edges:
        emission_intensity(geom.emission, math.atan(geom.r0 / geom.d))  # warns past the fitted lobe
        h = np.concatenate(dists)
        # R0*sin(theta) may round past r0 just inside t_max
        share = _minor_share(geom, np.minimum(np.abs(h) / geom.r0, 1.0))
        flat[np.concatenate(edges)] = np.where(h >= 0.0, share, 1.0 - share)
    return float(out) if out.ndim == 0 else out


def _minor_share(geom: SpotGeometry, a: np.ndarray) -> np.ndarray:
    """Emission-weighted share of the spot beyond a chord at distance a*r0
    from its center, for each a in [0, 1].

    In units of r0, with W the emission weight, the share is
    int_a^1 W*rho*acos(a/rho) d rho over pi*int_0^1 W*rho d rho.  One
    Gauss-Legendre rule in u on [0, 1] gives both, with rho = a + (1-a)*u**2
    and rho = u**2 (the u**2 absorbs the square-root edge at rho = a); the
    disc integral is computed once per node count.  The node count doubles
    from 16, and each a leaves the batch when its own two successive shares
    agree to 1e-13; an a that has not converged at _MAX_NODES raises
    PreconditionError.  Each rule temporary holds at most _RULE_FLOATS
    floats (one row of nodes past that).
    """
    em = geom.emission
    scale = geom.r0 / geom.d

    def weight(rho):
        return em.A * np.cos(em.k * np.arctan(rho * scale)) + em.c

    share = np.empty_like(a)
    prev = np.full_like(a, math.inf)
    pending = np.arange(a.size)
    for n in (1 << i for i in range(4, _MAX_NODES.bit_length())):  # 16, 32, ..., _MAX_NODES
        u, w = _gauss_legendre(n)
        rho_disc = u * u
        w_disc = weight(rho_disc)
        if not np.all(w_disc > 0.0):
            raise PreconditionError(
                "emission weight A*cos(k*atan(rho/d)) + c must be positive over the spot "
                f"(A = {em.A:.4g}, c = {em.c:.4g})"
            )
        disc = float((w_disc * rho_disc * u) @ w)
        rows = max(1, _RULE_FLOATS // n)
        cur = np.empty(pending.size)
        for i in range(0, pending.size, rows):
            b = a[pending[i : i + rows], None]
            rho = b + (1.0 - b) * u * u
            f = weight(rho) * rho * u
            f *= (1.0 - b) * np.arccos(b / rho)
            cur[i : i + rows] = f @ w
        cur /= math.pi * disc
        done = np.abs(cur - prev[pending]) <= 1e-13
        share[pending[done]] = cur[done]
        prev[pending] = cur
        pending = pending[~done]
        if not pending.size:
            return share
    raise PreconditionError(
        f"occlusion integral did not converge within {_MAX_NODES} Gauss-Legendre nodes "
        f"(r0/d = {scale:.3g}, |h|/r0 = {a[pending[0]]:.3g})"
    )


def transmitted_fraction_mc(
    geom: SpotGeometry, theta: float, n_samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of transmitted_fraction with its standard error.

    Independent of the radial rule: samples points uniformly over the
    spot disc, weights by the emission profile and tests blade coverage
    directly.  Used to cross-validate the rule.
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

    Values repeat each rotation period, so the angles are rounded to 12
    decimals and the distinct ones go through one call of
    `transmitted_fraction`.
    """
    if not (f_rot > 0.0):
        raise PreconditionError(f"rotation frequency must be positive, got {f_rot}")
    _check_small_spot(geom)
    theta = _wrap_angle(2.0 * np.pi * f_rot * grid.times())
    # collapse angles that are equal up to float jitter before the rule
    uniq, inverse = np.unique(np.round(theta, 12), return_inverse=True)
    return SampledSignal(grid, frozen(transmitted_fraction(geom, uniq)[inverse]))


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

    theta is the (unwrapped) rotation angle 2*pi*f_rot*t.  Returns the fit,
    on its canonical branch (`TrapezoidFit.canonical`: the starts below tie
    up to that symmetry, so rounding would otherwise pick the sign), and
    the residual RMS over the fitted segment.
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
    return fit.canonical(), resid


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
