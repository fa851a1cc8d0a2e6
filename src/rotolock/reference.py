"""Photoelectric reference channel: LED spot occlusion by the rotating blade.

An LED illuminates a small circular spot a distance R0 from the rotation
axis; the sector-shaped blade sweeps through the spot once per revolution
and a photodiode behind it sees a trapezoid-like waveform.  This module
computes that waveform from the geometry (a closed-form blocked arc at
each radius and a Gauss-Legendre rule for the radial integral of the
emission-weighted arc), fits the transition with a cosine model, and builds
the clean harmonic references used for demodulation.

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
# smallest phase span u*(theta[-1] - theta[0]), in radians, of an accepted
# transition fit: below it the fitted cosine is close to a parabola over the
# segment, so B and c2 trade off along a flat valley and are not determined
# (over d = 0.05-20 mm at 200-20 000 samples per period, well-posed fits span
# 0.69 rad or more and degenerate ones, with |B| > 100, 0.03 or less)
_MIN_FIT_ARC = 0.25


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
    # +1 where a run of mid starts, -1 one past where it ends
    edges = np.diff(np.concatenate(([False], mid, [False])).astype(np.int8))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    long = np.flatnonzero(ends - starts >= 5)
    if not long.size:
        raise PreconditionError("no transition found: intermediate runs too short")
    return slice(int(starts[long[0]]), int(ends[long[0]]))


def fit_trapezoid_cosine(signal: SampledSignal, f_rot: float) -> tuple[TrapezoidFit, float]:
    """Least-squares cosine fit B*cos(u*theta + phi) + c2 over the first
    transition of a trapezoid-like waveform.

    theta is the (unwrapped) rotation angle 2*pi*f_rot*t.  One `curve_fit`
    runs from a start on the canonical branch (B, u > 0; any other start is
    the same cosine, see `TrapezoidFit.canonical`).  Returns the fit on that
    branch and the residual RMS over the fitted segment.  A fit whose
    cosine spans less than _MIN_FIT_ARC of phase over the segment is refused.
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
    ncross = int(np.count_nonzero(np.diff(np.sign(v - c0)) != 0))
    u0 = max(ncross, 1) * np.pi / max(theta[-1] - theta[0], 1e-12)
    # the phi branch whose initial slope -b0*u0*sin(phi) has the sign of v[-1] - v[0]
    phi0 = math.copysign(math.acos(float(np.clip((v[0] - c0) / b0, -1.0, 1.0))), v[0] - v[-1])

    def model(th, B, u, phi, c2):
        return B * np.cos(u * th + phi) + c2

    try:
        popt, _ = curve_fit(model, theta, v, p0=[b0, u0, phi0 - u0 * theta[0], c0], maxfev=20000)
    except RuntimeError:
        raise PreconditionError("cosine fit of the transition did not converge") from None
    arc = abs(float(popt[1])) * (theta[-1] - theta[0])
    if not arc >= _MIN_FIT_ARC:
        raise PreconditionError(
            f"cosine fit of the transition is ill-posed: it spans {arc:.3g} rad of phase "
            f"over the fitted segment, below {_MIN_FIT_ARC} rad, so B and c2 are not determined"
        )
    resid = float(np.sqrt(np.mean((v - model(theta, *popt)) ** 2)))
    fit = TrapezoidFit(B=float(popt[0]), u=float(popt[1]), phi=float(popt[2]), c2=float(popt[3]))
    return fit.canonical(), resid


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
