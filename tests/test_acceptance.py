"""Acceptance suite: one test per acceptance criterion, each printing a
[PASS]/[FAIL] line with the measured value next to its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from rotolock.cli import main as cli_main
from rotolock.lockin import harmonic_outputs, modulate
from rotolock.modulation import ModulationFit, modulation_series
from rotolock.reference import SpotGeometry, synth_demod_reference, transmitted_fraction
from rotolock.signals import HarmonicSeries, SampledSignal, TimeGrid, fit_harmonics, synth
from rotolock.sim import NoiseSpec, SimConfig, run_simulation, step_contamination_mask

from oracles import transmitted_fraction_mc

DT = 2e-6
F_M = 2500.0
T_M = 1.0 / F_M
SPP = 200


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def step_run():
    cfg = SimConfig()
    t0 = time.perf_counter()
    result = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def clean_run():
    cfg = SimConfig(noise=NoiseSpec(kind="none"))
    return cfg, run_simulation(cfg)


def test_criterion_1_modulation_fit_round_trip():
    fit = ModulationFit()
    series = modulation_series(fit, F_M)
    t0 = time.perf_counter()
    grid = TimeGrid(dt=DT, n=SPP, t0=0.0)  # exactly one period
    signal = synth(series, grid)
    fitted, _ = fit_harmonics(signal, F_M, l=7)
    phase_hat = math.atan2(-fitted.sin_coeffs[0], fitted.cos_coeffs[0])
    amps_hat = fitted.cos_coeffs / math.cos(phase_hat)
    elapsed = time.perf_counter() - t0
    worst = max(
        float(np.max(np.abs(amps_hat - fit.amplitudes))),
        abs(fitted.dc - fit.offset),
    )
    check("1", worst < 1e-6 and elapsed < 1.0,
          f"coefficient recovery error {worst:.2e} (tol 1e-6), runtime {elapsed:.3f} s (< 1 s)")


def test_criterion_2_modulation_shape():
    fit = ModulationFit()
    ratio = abs(fit.amplitudes[1]) / abs(fit.amplitudes[0])
    alphas = np.linspace(-np.pi, np.pi, 400001)
    i = np.arange(1, 8)
    values = fit.offset + np.cos(alphas[:, None] * i + fit.phase) @ fit.amplitudes
    peak_alpha = float(alphas[np.argmax(values)])
    f0 = fit.offset + float(np.sum(fit.amplitudes * np.cos(fit.phase)))
    periodic_err = max(
        abs((fit.offset + np.sum(fit.amplitudes * np.cos(i * (a + 2 * np.pi) + fit.phase)))
            - (fit.offset + np.sum(fit.amplitudes * np.cos(i * a + fit.phase))))
        for a in (-2.0, 0.3, 1.7)
    )
    ok = ratio > 0.25 and periodic_err < 1e-12 and abs(peak_alpha) < 1e-3 \
        and np.max(values) - f0 < 1e-9
    check("2", ok,
          f"|A2|/|A1| = {ratio:.3f} (> 0.25), period error {periodic_err:.1e} "
          f"(< 1e-12), peak at alpha = {peak_alpha:.2e} rad (|.| < 1e-3)")


def test_criterion_3_reference_geometry():
    t0 = time.perf_counter()
    g = SpotGeometry()
    theta_max_deg = math.degrees(g.theta_max)
    plateau_one = transmitted_fraction(g, -math.pi / 2.0)
    blocked = transmitted_fraction(g, math.radians(10.0))
    halfway = transmitted_fraction(g, 0.0)

    rng = np.random.default_rng(20260810)
    leading = rng.uniform(-g.theta_max, g.theta_max, size=10)
    trailing = rng.uniform(g.theta_gnd - g.theta_max, g.theta_gnd + g.theta_max, size=10)
    worst_sigma = 0.0
    for i, th in enumerate(np.concatenate([leading, trailing])):
        q = transmitted_fraction(g, float(th))
        mc, se = transmitted_fraction_mc(g, float(th), n_samples=1_000_000, seed=500 + i)
        worst_sigma = max(worst_sigma, abs(q - mc) / se)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(theta_max_deg - 4.78) < 0.01
        and plateau_one == 1.0
        and blocked == 0.0
        and abs(halfway - 0.5) < 0.01
        and worst_sigma < 3.0
        and elapsed < 30.0
    )
    check("3", ok,
          f"theta_max {theta_max_deg:.4f} deg (4.78 +/- 0.01), plateau {plateau_one}, "
          f"blocked {blocked}, center {halfway:.4f} (0.5 +/- 0.01), "
          f"worst MC deviation {worst_sigma:.2f} sigma (< 3), runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_4_orthogonality_suite():
    grid = TimeGrid(dt=DT, n=SPP, t0=0.0)
    t = grid.times()
    worst = 0.0
    for j in range(1, 8):
        for k in range(1, 8):
            cj, ck = np.cos(2 * np.pi * j * F_M * t), np.cos(2 * np.pi * k * F_M * t)
            sj, sk = np.sin(2 * np.pi * j * F_M * t), np.sin(2 * np.pi * k * F_M * t)
            expected = (T_M / 2.0) if j == k else 0.0
            worst = max(
                worst,
                abs(float(np.dot(cj, ck)) * DT - expected),
                abs(float(np.dot(sj, sk)) * DT - expected),
                abs(float(np.dot(sj, ck)) * DT),
            )
    check("4", worst < 1e-9,
          f"worst deviation from (T_m/2)*delta_jk over pairs j,k <= 7: {worst:.2e} (tol 1e-9)")


def test_criterion_5a_noise_swamps_modulated_trace(step_run):
    cfg, res, _ = step_run
    noise_rms = float(np.sqrt(np.mean((res.modulated_noisy.values - res.modulated.values) ** 2)))
    signal_rms = float(np.sqrt(np.mean(res.modulated.values**2)))
    ratio = noise_rms / signal_rms
    check("5a", ratio > 5.0, f"noise-to-signal RMS on the modulated trace {ratio:.1f} (> 5)")


def test_criterion_5b_large_deviations_only_at_steps(step_run):
    cfg, res, _ = step_run
    target = cfg.signal_amp * np.sin(2 * np.pi * cfg.signal_freq * res.restored_full.times())
    dev = np.abs(res.restored_full.values - target)
    contaminated = step_contamination_mask(res.noise, cfg.samples_per_period)
    valid = np.arange(len(dev)) >= res.warmup
    off_step = valid & ~contaminated
    offenders = off_step & (dev > 0.05 * cfg.signal_amp)
    max_off = float(np.max(dev[off_step]))
    # context for the verdict: the same deviation aggregated per window
    spp = cfg.samples_per_period
    window_rms = [
        float(np.sqrt(np.mean(dev[k * spp:(k + 1) * spp] ** 2)))
        for k in range(1, len(dev) // spp)
        if not contaminated[k * spp:(k + 1) * spp].any()
    ]
    check(
        "5b",
        int(np.count_nonzero(offenders)) == 0,
        f">5% deviations outside step windows: {int(np.count_nonzero(offenders))} samples "
        f"(max off-step deviation {max_off:.2e}, worst off-step window RMS "
        f"{max(window_rms):.2e}, threshold {0.05 * cfg.signal_amp:.2e})",
    )


def test_criterion_5c_downsampled_recovery(step_run):
    cfg, res, _ = step_run
    rel = res.metrics["rms_error_downsampled"] / cfg.signal_amp
    n_spikes = len(res.metrics["spike_windows"])
    check("5c", rel <= 0.01,
          f"downsampled relative RMS error {rel:.2e} (<= 1e-2) "
          f"excluding {n_spikes} flagged spike windows")


def test_criterion_5d_downsampled_channel_shape(step_run):
    cfg, res, elapsed = step_run
    n = res.restored_downsampled.grid.n
    bw = res.metrics["bandwidth_hz"]
    check("5d", n == 75 and bw == 1250.0 and elapsed < 10.0,
          f"{n} downsampled samples (= 75), bandwidth {bw} Hz (= 1250), "
          f"runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_6_sine_noise_leakage(clean_run):
    cfg = SimConfig(noise=NoiseSpec(kind="sine", amplitude=10.0, rate_or_freq=10.0, seed=1))
    res = run_simulation(cfg)
    measured = res.metrics["rms_error_downsampled"]

    # brute-force oracle: the leakage is the windowed integral of
    # noise * even-reference, trapezoid rule, independent of the lockin module:
    # the even part is the reference's cosine terms, and its gain is
    # (2/T) * the integral of modulation * even part over one period
    _, clean = clean_run
    assert res.metrics["channel"] == "even"
    grid = res.noise.grid
    m_series = modulation_series(cfg.modulation, cfg.f_m)
    ref = synth_demod_reference(T_M, cfg.ref_kind, cfg.modulation.n_harmonics,
                                cfg.ref_phase_delay)
    even = HarmonicSeries(cfg.f_m, 0.0, ref.cos_coeffs, np.zeros(ref.n_harmonics))
    one_period = TimeGrid(dt=cfg.dt, n=SPP, t0=0.0)
    g = 2.0 * float(np.mean(synth(m_series, one_period).values
                            * synth(even, one_period).values))
    prod = res.noise.values * synth(even, grid).values
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (prod[1:] + prod[:-1]))]) * cfg.dt
    leak = np.empty(grid.n)
    leak[:SPP] = cum[:SPP]
    leak[SPP:] = cum[SPP:] - cum[:-SPP]
    leak *= 2.0 / (T_M * g)

    k0 = int(round((res.restored_downsampled.grid.t0 - res.restored_full.grid.t0) / cfg.dt))
    ds_idx = k0 + np.arange(res.restored_downsampled.grid.n) * SPP
    good = ds_idx >= res.warmup
    clean_resid = (clean.restored_downsampled.values
                   - cfg.signal_amp * np.sin(2 * np.pi * cfg.signal_freq
                                             * clean.restored_downsampled.times()))
    predicted = clean_resid[good] + leak[ds_idx[good]]
    bound = float(np.sqrt(np.mean(predicted**2)))
    ok = measured <= bound + 1e-9 and abs(measured - bound) < 0.05 * bound \
        and measured < 0.01 * cfg.signal_amp and measured < 1e-3
    check("6", ok,
          f"sine-noise residual RMS {measured:.2e} vs brute-force bound {bound:.2e}, "
          f"< 1% of amplitude, regression pin 1e-3")


def test_criterion_7_per_harmonic_outputs():
    fit = ModulationFit()
    m = modulation_series(fit, F_M)
    grid = TimeGrid(dt=DT, n=20 * SPP, t0=0.0)
    s_m = modulate(SampledSignal(grid, np.ones(grid.n)), m)

    aligned = synth_demod_reference(T_M, "square", 7, 0.0)
    outs = harmonic_outputs(s_m, m, aligned)
    ratio_err = max(
        abs(outs[i - 1].X / outs[0].X - fit.amplitudes[i - 1] / fit.amplitudes[0])
        / abs(fit.amplitudes[i - 1] / fit.amplitudes[0])
        for i in range(1, 8)
    )

    shifted = synth_demod_reference(T_M, "square", 7, 2.0 * np.pi / 12.0)  # shift by T_m/12
    mags_a = np.array([o.magnitude for o in outs])
    mags_s = np.array([o.magnitude for o in harmonic_outputs(s_m, m, shifted)])
    mag_err = float(np.max(np.abs(mags_s - mags_a) / np.abs(mags_a)))
    check("7", ratio_err < 0.01 and mag_err < 1e-6,
          f"X ratios match amplitude ratios within {ratio_err:.2e} (tol 1e-2); "
          f"magnitude shift-invariance within {mag_err:.2e} (tol 1e-6)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["simulate", "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--seed", "7", "--out", str(out2)]) == 0
    names = ["noise.csv", "modulated.csv", "modulated_noisy.csv", "restored.csv",
             "restored_downsampled.csv", "metrics.json"]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    check("8", identical, f"{len(names)} output files byte-identical across reruns")


def test_emitted_metrics_are_finite(step_run):
    _, res, _ = step_run
    numeric = [v for v in res.metrics.values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in numeric)
    assert json.dumps(res.metrics)  # serializable as emitted
