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
from .errors import PreconditionError
from .signals import HarmonicSeries, SampledSignal, TimeGrid, frozen, period_grid, tile

# LED emission fit I(beta) = A*cos(k*beta) + c, k per radian
DEFAULT_EMISSION_A = 4.113
DEFAULT_EMISSION_K = 0.0789 * 180.0 / np.pi
DEFAULT_EMISSION_C = 4.227

_MAX_NODES = 4096  # node cap of the radial rule in `transmitted_fraction`
# fixed blocks, so that the temporaries of `transmitted_fraction` do not grow
# with its input: angles classified per pass, floats per temporary of the rule
_ANGLE_BLOCK = 256
_RULE_FLOATS = 1 << 10
# smallest 1 - |rho| of an accepted transition fit, rho the correlation of B
# and c2 from the fit's covariance: below it the fitted cosine is close to a
# parabola or a line over the segment, so B and c2 trade off along a flat
# valley and are not determined.  Over d = 0.05-20 mm at 200-50 000 samples
# per period the default d = 2 mm reads 5.1e-3 or more and d >= 1 mm 6.6e-4
# or more; d = 0.5 mm, whose B moves from 1.30 to 2.08 between 2 000 and
# 20 000 samples per period, reads 7.1e-6 or less.  Where the cost falls all
# the way toward a parabola's (u -> 0, |B| -> inf) the fit has no minimum:
# the search ends deep in that valley and reads 1e-9 or less, or a covariance
# that cannot be estimated.  An exact 12-sample transition, which the fit
# recovers to 1e-6, reads 3.0e-5.
_MIN_FIT_DECORRELATION = 1e-5
# the transition fit stops once a step moves u by at most this share of it
# (curve_fit's default xtol), and is refused after this many costs (leastsq's
# default for four parameters; the swept fits without a minimum spend 287 or
# fewer, and 503 or fewer with their values moved by a few ulps)
_FIT_XTOL = 1.49012e-8
_FIT_TRIALS = 1000


@dataclass(frozen=True)
class EmissionFit(Config):
    """Emitted intensity vs emission angle: I(beta) = A*cos(k*beta) + c.

    Calling the fit evaluates I, the one statement of the law: both
    `emission_intensity` (which warns past the fitted lobe) and the
    occlusion weight of `_minor_share` read it.
    """

    A: float = DEFAULT_EMISSION_A
    k: float = DEFAULT_EMISSION_K
    c: float = DEFAULT_EMISSION_C

    def __post_init__(self):
        if not all(np.isfinite([self.A, self.k, self.c])):
            raise PreconditionError("emission fit parameters must be finite")
        # |weight| <= |A| + |c|, so the occlusion rule's largest integrand,
        # |weight| * pi, stays a finite float
        limit = np.finfo(float).max / 4.0
        if not abs(self.A) + abs(self.c) <= limit:
            raise PreconditionError(
                f"emission fit |A| + |c| must be at most {limit:.4g}, "
                f"got A = {self.A:.4g}, c = {self.c:.4g}"
            )

    def __call__(self, beta):
        return self.A * np.cos(self.k * beta) + self.c


@dataclass(frozen=True)
class SpotGeometry(Config):
    """LED/blade/photodiode geometry.

    r0: spot radius (mm); d: LED-to-blade distance (mm); R0: rotation center
    to spot center distance (mm); theta_gnd_deg: blade sector angle (degrees,
    in (0, 180)), given in radians by `theta_gnd`.  The spot must be
    narrower than the sector, r0 < R0*sin(theta_gnd/2), so that the blade
    covers it completely and at most one edge crosses it at a time (which
    also keeps it clear of the rotation center, r0 < R0).
    """

    r0: float = 0.5
    d: float = 2.0
    R0: float = 6.0
    theta_gnd_deg: float = 30.0
    emission: EmissionFit = field(default_factory=EmissionFit)

    def __post_init__(self):
        if min(self.r0, self.d, self.R0) <= 0.0:
            raise PreconditionError("all lengths must be positive")
        if not (0.0 < self.theta_gnd_deg < 180.0):
            raise PreconditionError(
                f"blade sector angle theta_gnd_deg must be in (0, 180), got {self.theta_gnd_deg}"
            )
        cover = self.R0 * np.sin(self.theta_gnd / 2.0)
        if not self.r0 < cover:
            raise PreconditionError(
                f"spot radius r0={self.r0} must be below R0*sin(theta_gnd/2)={cover:.4g}; "
                "the blade can never block a wider spot completely"
            )

    @property
    def theta_gnd(self) -> float:
        """Blade sector angle in radians."""
        return float(np.deg2rad(self.theta_gnd_deg))

    @property
    def theta_max(self) -> float:
        """Half-angle subtended by the spot, seen from the rotation center."""
        return float(np.arcsin(self.r0 / self.R0))


@dataclass(frozen=True)
class TrapezoidFit(Config):
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
    out = em(beta)
    return float(out) if out.ndim == 0 else out


def _wrap_angle(theta):
    """Map a finite angle (float or array) to [-pi, pi); a NaN or an
    infinity, which has no place on the circle, is refused."""
    if not np.all(np.isfinite(theta)):
        raise PreconditionError("blade angles must be finite")
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


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

    The spot is narrower than the sector (see `SpotGeometry`), so at most
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
        return em(np.arctan(rho * scale))

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

    Values repeat each rotation period, so, as in `synth`, one call of
    `transmitted_fraction` evaluates the samples of `period_grid` and
    `tile` repeats them over the grid.
    """
    if not (f_rot > 0.0):
        raise PreconditionError(f"rotation frequency must be positive, got {f_rot}")
    one = period_grid(grid, f_rot)
    period = transmitted_fraction(geom, 2.0 * np.pi * f_rot * one.times())
    return tile(period, grid)


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


# a step toward a degenerate fit may overflow or divide by zero: a step that
# is not finite ends the search, and a trial whose cost is not finite is halved
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cosine_lsq(theta: np.ndarray, v: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of B*cos(u*theta + phi) + c2 to v on an evenly
    spaced theta, from u, by variable projection (Golub and Pereyra 1973).

    With theta centred on its midpoint, the model is a*(cos - cbar) + b*sin
    + c, cbar the mean of cos(u*theta): linear in (a, b, c), whose three rows
    are orthogonal (even, odd and even minus its mean), so each u has one
    best fit, each coefficient its row's projection of v.  The search is in u
    alone: Gauss-Newton steps with Kaufman's derivative of the projected
    residual, each halved until the cost falls.  It stops when a step moves
    u by at most _FIT_XTOL of it (curve_fit's default xtol): at a minimum, or
    where halving leaves no step that lowers the cost.  A step that is not
    finite (deep in a valley without a minimum) stops it too.  It is refused
    as not converging after _FIT_TRIALS costs.  Returns (B, u, phi, c2) and
    the 2 x 2 covariance of (B, c2), their rows and columns of
    s**2 * inv(J'J), s**2 = RSS/(n - 4), J the model's Jacobian; a singular
    J'J gives an infinite covariance.
    """
    mid = 0.5 * (theta[0] + theta[-1])
    th = theta - mid
    n = th.size

    def project(u):
        basis = np.ones((3, n))
        np.cos(u * th, out=basis[0])
        np.sin(u * th, out=basis[1])
        cbar = basis[0].sum() / n
        basis[0] -= cbar
        norms = np.einsum("ij,ij->i", basis, basis)
        x = (basis @ v) / norms
        r = x @ basis - v
        return r @ r, cbar, basis, norms, x, r

    fit, halved = project(u), False
    for _ in range(_FIT_TRIALS):
        if not halved:
            # the step from Kaufman's derivative: d/du of the model at fixed
            # (a, b, c), less its projection on the rows
            cost, cbar, basis, norms, x, r = fit
            d = th * (x[1] * (basis[0] + cbar) - x[0] * basis[1])
            db = basis @ d
            step = -(d @ r) / (d @ d - db * db @ (1.0 / norms))
        if not math.isfinite(step) or abs(step) <= _FIT_XTOL * abs(u):
            break
        trial = project(u + step)
        if trial[0] < cost:
            u, fit, halved = u + step, trial, False
        else:
            step, halved = 0.5 * step, True
    else:
        raise PreconditionError("cosine fit of the transition did not converge")
    # the Jacobian in (B, u, psi, c2), psi = phi + u*mid the phase at the
    # midpoint: B and c2 are the same parameters in (B, u, phi, c2)
    B, psi = math.hypot(x[0], x[1]), math.atan2(-x[1], x[0])
    slope = -B * np.sin(u * th + psi)
    jac = np.stack((np.cos(u * th + psi), slope * th, slope, np.ones(n)))
    try:
        cov = np.linalg.inv(jac @ jac.T) * (cost / (n - 4))
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.inf)
    return np.array([B, u, psi - u * mid, x[2] - x[0] * cbar]), cov[::3, ::3]


def fit_trapezoid_cosine(signal: SampledSignal, f_rot: float) -> tuple[TrapezoidFit, float]:
    """Least-squares cosine fit B*cos(u*theta + phi) + c2 over the first
    transition of a trapezoid-like waveform.

    theta is the (unwrapped) rotation angle 2*pi*f_rot*t.  One `_cosine_lsq`
    search runs from u0, one cosine half-period per crossing of the
    mid-level over the segment, and the fit is returned on the canonical
    branch (B, u > 0, see `TrapezoidFit.canonical`) with the residual RMS
    over the fitted segment.  A fit that does not converge, whose B and c2
    are correlated to 1 - |rho| below _MIN_FIT_DECORRELATION, or whose
    covariance cannot be estimated, is refused.
    """
    if not (f_rot > 0.0):
        raise PreconditionError(f"rotation frequency must be positive, got {f_rot}")
    sel = _first_transition(signal.values)
    theta = 2.0 * np.pi * f_rot * signal.grid.times(sel.start, sel.stop)
    v = signal.values[sel]

    c0 = 0.5 * (float(np.max(signal.values)) + float(np.min(signal.values)))
    ncross = int(np.count_nonzero(np.diff(np.sign(v - c0)) != 0))
    u0 = max(ncross, 1) * np.pi / max(theta[-1] - theta[0], 1e-12)
    popt, pcov = _cosine_lsq(theta, v, u0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the square roots apart, so that their product cannot overflow
        rho = pcov[0, 1] / (np.sqrt(pcov[0, 0]) * np.sqrt(pcov[1, 1]))
    if not np.isfinite(rho):
        raise PreconditionError(
            "cosine fit of the transition is ill-posed: its covariance cannot be "
            "estimated, so B and c2 are not determined"
        )
    if not 1.0 - abs(rho) >= _MIN_FIT_DECORRELATION:
        raise PreconditionError(
            f"cosine fit of the transition is ill-posed: B and c2 are correlated to "
            f"1 - |rho| = {1.0 - abs(rho):.3g}, below {_MIN_FIT_DECORRELATION:g}, so they "
            "are not determined"
        )
    fit = TrapezoidFit(*map(float, popt))
    return fit.canonical(), float(np.sqrt(np.mean((v - fit(theta)) ** 2)))


def synth_demod_reference(f_fund: float, kind: str, l: int, phase: float) -> HarmonicSeries:
    """Zero-DC harmonic series of fundamental f_fund: the demodulation reference.

    kind="sine": unit-amplitude fundamental.  kind="square": odd harmonics
    with amplitude 4/(pi*j) up to l.  `phase` is a phase delay of the
    underlying waveform, so harmonic j is rotated by j*phase; it is first
    reduced to [-pi, pi] (exactly, and leaving such a phase as it is), so
    that j*phase stays in range.
    """
    if l < 1:
        raise PreconditionError(f"harmonic count must be >= 1, got {l}")
    phase = math.remainder(phase, 2.0 * math.pi)
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
    return HarmonicSeries(f_fund=f_fund, dc=0.0, cos_coeffs=cos_c, sin_coeffs=sin_c)
