"""Independent oracles that tests check the package against."""

import numpy as np

from rotolock.reference import SpotGeometry, _check_small_spot, _wrap_angle


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
