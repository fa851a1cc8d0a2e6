"""Independent oracles that tests check the package against, the reader
that takes its CSV outputs back, and the trailing-window kernel's stream
held as one array."""

import math
import warnings

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from rotolock.errors import PreconditionError
from rotolock.modulation import ModulationFit
from rotolock.reference import SpotGeometry, TrapezoidFit, _first_transition, _wrap_angle
from rotolock.signals import SampledSignal, TimeGrid, _joined, period_grid, window_chunks


def transmitted_fraction_mc(
    geom: SpotGeometry, theta: float, n_samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of transmitted_fraction with its standard error.

    Independent of the radial rule: samples points uniformly over the
    spot disc, weights by the emission profile and tests blade coverage
    directly.  Used to cross-validate the rule.
    """
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


def transition_fit_by_curve_fit(signal: SampledSignal, f_rot: float):
    """The transition fit of `fit_trapezoid_cosine` made by SciPy's
    `curve_fit` (MINPACK's Levenberg-Marquardt) from the start point
    (b0, u0, phi0 - u0*theta0, c0) that the package used with it: the fit on
    the canonical branch, and the segment's angles and values."""
    sel = _first_transition(signal.values)
    theta = 2.0 * np.pi * f_rot * signal.times()[sel]
    v = signal.values[sel]
    vmin, vmax = float(np.min(signal.values)), float(np.max(signal.values))
    c0, b0 = 0.5 * (vmax + vmin), 0.5 * (vmax - vmin)
    ncross = int(np.count_nonzero(np.diff(np.sign(v - c0)) != 0))
    u0 = max(ncross, 1) * np.pi / max(theta[-1] - theta[0], 1e-12)
    phi0 = math.copysign(math.acos(float(np.clip((v[0] - c0) / b0, -1.0, 1.0))), v[0] - v[-1])

    def model(th, B, u, phi, c2):
        return B * np.cos(u * th + phi) + c2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, theta, v, p0=[b0, u0, phi0 - u0 * theta[0], c0], maxfev=20000)
    return TrapezoidFit(*map(float, popt)).canonical(), theta, v


def eval_modulation(fit: ModulationFit, alpha) -> np.ndarray | float:
    """Modulated intensity at electrode angle alpha (radians, 2*pi periodic)."""
    alpha = np.asarray(alpha, dtype=float)
    i = np.arange(1, fit.n_harmonics + 1)
    terms = fit.amplitudes * np.cos(i * alpha[..., None] + fit.phase)
    out = fit.offset + terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def synth_one_expression(series, grid: TimeGrid) -> np.ndarray:
    """A harmonic series on grid as the one expression
    dc + cos(args) @ cos_coeffs + sin(args) @ sin_coeffs over the samples
    of `period_grid`, repeated out to the grid's n samples: the bits that
    `synth` must give however it orders its temporaries."""
    one = period_grid(grid, series.f_fund)
    j = np.arange(1, series.n_harmonics + 1)
    args = 2.0 * np.pi * series.f_fund * one.times()[:, None] * j[None, :]
    period = series.dc + np.cos(args) @ series.cos_coeffs + np.sin(args) @ series.sin_coeffs
    return np.resize(period, grid.n)


def trapezoid_window_sum(y, j, w):
    """Exact (fsum) trapezoid sum of y over the samples [max(0, j - w), j]."""
    lo = max(0, j - w)
    if j == lo:
        return 0.0
    return math.fsum(y[lo + 1 : j].tolist() + [0.5 * y[lo], 0.5 * y[j]])


def window_sums(x, trapezoid, plain=()) -> np.ndarray:
    """The outputs of `window_chunks`, which defines them, as one array of
    len(x): the stream held whole by `_joined`, as the lock-in holds it."""
    return _joined(TimeGrid(1.0, len(x)), window_chunks(x, trapezoid, plain)).values


def read_csv(path) -> SampledSignal:
    """Read a `t,value` CSV back into a SampledSignal."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t, v = data[:, 0], data[:, 1]
    if len(t) < 2:
        grid = TimeGrid(dt=1.0, n=len(t), t0=float(t[0]) if len(t) else 0.0)
        return SampledSignal(grid, v)
    dt = float(np.median(np.diff(t)))
    if np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt + 1e-15:
        raise PreconditionError(f"{path}: sample times are not uniform")
    return SampledSignal(TimeGrid(dt=dt, n=len(t), t0=float(t[0])), v)
