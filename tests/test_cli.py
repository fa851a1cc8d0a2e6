import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotolock
from rotolock.cli import main
from rotolock.config import MAX_ELEMENTS
from rotolock.modulation import ModulationFit
from rotolock.reference import SpotGeometry
from rotolock.signals import fit_harmonics, read_csv


def run_cli(*argv):
    return main(list(argv))


class TestModwave:
    def test_default_run_spans_two_cycles(self, tmp_path):
        assert run_cli("modwave", "--out", str(tmp_path)) == 0
        wave = read_csv(tmp_path / "modwave.csv")
        rows = (tmp_path / "modwave.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 720
        alpha_span_deg = 360.0 * 2500.0 * (wave.times()[-1] + wave.grid.dt)
        assert alpha_span_deg == pytest.approx(720.0, abs=1e-9)
        series = json.loads((tmp_path / "modwave_series.json").read_text())
        assert series["dc"] == pytest.approx(0.471)

    def test_custom_phase_propagates(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"phase": 0.5}}))
        out = tmp_path / "out"
        assert run_cli("modwave", "--config", str(cfg), "--out", str(out)) == 0
        series = json.loads((out / "modwave_series.json").read_text())
        fit = ModulationFit(phase=0.5)
        assert series["sin_coeffs"][0] == pytest.approx(-fit.amplitudes[0] * math.sin(0.5))

    def test_output_refits_to_input_coefficients(self, tmp_path):
        assert run_cli("modwave", "--out", str(tmp_path)) == 0
        wave = read_csv(tmp_path / "modwave.csv")
        fitted, resid = fit_harmonics(wave, 2500.0, l=7)
        expected = json.loads((tmp_path / "modwave_series.json").read_text())
        assert np.allclose(fitted.cos_coeffs, expected["cos_coeffs"], atol=1e-9)
        assert np.allclose(fitted.sin_coeffs, expected["sin_coeffs"], atol=1e-9)
        assert resid < 1e-9


class TestRefsignal:
    def test_default_run_reproduces_trapezoid_structure(self, tmp_path):
        assert run_cli("refsignal", "--out", str(tmp_path)) == 0
        wave = read_csv(tmp_path / "refsignal.csv")
        v = wave.values
        assert np.max(v) == 1.0 and np.min(v) == 0.0
        # two plateaus and two transitions
        g = SpotGeometry()
        duty_zero = np.mean(v == 0.0)
        assert duty_zero == pytest.approx(
            (g.theta_gnd - 2 * g.theta_max) / (2 * np.pi), abs=2e-3
        )
        assert np.mean(v == 1.0) > 0.85
        interior = (v > 0) & (v < 1)
        sign_changes = np.count_nonzero(np.diff(interior.astype(int)) != 0)
        assert sign_changes == 4  # enter/leave falling edge, enter/leave rising edge

    def test_fit_json_carries_period(self, tmp_path):
        assert run_cli("refsignal", "--out", str(tmp_path)) == 0
        fit = json.loads((tmp_path / "trapezoid_fit.json").read_text())
        assert fit["period"] == pytest.approx(1.0 / 2500.0)
        assert fit["residual_rms"] < 0.02

    @pytest.mark.filterwarnings("ignore:emission angle")
    @pytest.mark.parametrize("spp, code", [(200, 3), (2000, 0)])
    def test_ill_posed_transition_fit_is_exit_three(self, tmp_path, capsys, spp, code):
        # a lens 0.1 mm from the blade: at 200 samples per period the fitted
        # cosine spans 0.02 rad of the transition and B, c2 are not determined
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"d": 0.1}, "samples_per_period": spp}))
        out = tmp_path / "out"
        assert run_cli("refsignal", "--config", str(cfg), "--out", str(out)) == code
        err = capsys.readouterr().err
        if code == 3:
            assert re.fullmatch(r"error: cosine fit of the transition is ill-posed: "
                                r"it spans 0\.02\d* rad of phase .*\n", err)
        assert (out / "trapezoid_fit.json").exists() == (code == 0)

    def test_manifest_reingestion_reproduces_degree_geometry(self, tmp_path):
        # rad2deg(deg2rad(24.0)) is 24.000000000000004, which reads back one ulp off
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"theta_gnd_deg": 24.0}}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("refsignal", "--config", str(cfg), "--out", str(out1)) == 0
        manifest = out1 / "manifest.json"
        assert run_cli("refsignal", "--config", str(manifest), "--out", str(out2)) == 0
        for name in ("refsignal.csv", "trapezoid_fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_geometry_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"r0": 3.0}}))
        assert run_cli("refsignal", "--config", str(cfg), "--out", str(tmp_path)) == 2


class TestSimulate:
    def test_default_run_writes_metrics_below_threshold(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["rms_error_downsampled"] < 0.01
        assert (tmp_path / "restored_downsampled.csv").exists()
        rows = (tmp_path / "restored_downsampled.csv").read_text().splitlines()
        assert len(rows) == 1 + 75

    def test_noise_none_flag(self, tmp_path):
        assert run_cli("simulate", "--noise", "none", "--out", str(tmp_path)) == 0
        noise = read_csv(tmp_path / "noise.csv")
        assert np.all(noise.values == 0.0)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["spike_windows"] == []

    def test_seed_changes_noise_realization_only(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--seed", "1", "--out", str(out1)) == 0
        assert run_cli("simulate", "--seed", "2", "--out", str(out2)) == 0
        n1 = read_csv(out1 / "noise.csv")
        n2 = read_csv(out2 / "noise.csv")
        assert not np.array_equal(n1.values, n2.values)
        m1 = read_csv(out1 / "modulated.csv")
        m2 = read_csv(out2 / "modulated.csv")
        assert np.array_equal(m1.values, m2.values)

    def test_manifest_reingestion_reproduces_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--out", str(out1)) == 0
        manifest = out1 / "manifest.json"
        assert run_cli("simulate", "--config", str(manifest), "--out", str(out2)) == 0
        for name in ("noise.csv", "modulated.csv", "modulated_noisy.csv",
                     "restored.csv", "restored_downsampled.csv", "metrics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ref_flag_matches_config_file(self, tmp_path):
        flag, file = tmp_path / "flag", tmp_path / "file"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ref_kind": "sine"}))
        assert run_cli("simulate", "--ref", "sine", "--out", str(flag)) == 0
        assert run_cli("simulate", "--config", str(cfg), "--out", str(file)) == 0
        names = sorted(p.name for p in flag.iterdir())
        assert names == sorted(p.name for p in file.iterdir())
        for name in names:
            if name != "manifest.json":  # it names its own output directory
                assert (flag / name).read_bytes() == (file / name).read_bytes(), name
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (flag, file)]
        assert manifests[0]["config"] == manifests[1]["config"]
        assert manifests[0]["config"]["ref_kind"] == "sine"

    def test_manifest_for_other_subcommand_rejected(self, tmp_path):
        out = tmp_path / "a"
        assert run_cli("modwave", "--out", str(out)) == 0
        code = run_cli("simulate", "--config", str(out / "manifest.json"),
                       "--out", str(tmp_path / "b"))
        assert code == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 2e-6, "turbo": True}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "subcommand,config",
        [
            ("simulate", {"noise": 5}),
            ("simulate", {"noise": None}),
            ("simulate", {"modulation": [0.3]}),
            ("simulate", {"modulation": {"amplitude": 1}}),
            ("simulate", {"subcommand": "simulate", "config": [1]}),
            ("modwave", {"modulation": "flat"}),
            ("modwave", {"modulation": {"amplitude": 1}}),
            ("refsignal", {"geometry": 3}),
            ("refsignal", {"geometry": {"emission": []}}),
            ("simulate", {"noise": {"rate_or_freq": math.inf}}),
            ("simulate", {"modulation": {"amplitudes": [[0.3, 0.1]]}}),
            ("refsignal", {"samples_per_period": 0}),
            ("simulate", {"signal_freq": math.nan}),
            ("simulate", {"downsample_phase": math.nan}),
            ("refsignal", {"geometry": {"r0": -1}}),
            ("refsignal", {"geometry": {"emission": {"A": math.nan}}}),
            ("modwave", {"samples_per_period": 2.9}),
            ("simulate", {"ref_phase_delay": "0.5"}),
            ("simulate", {"signal_freq": 1e6}),  # aliases to zero at one sample per period
            ("simulate", {"noise": {"rate_or_freq": 1e7}}),  # more steps than samples
            ("simulate", {"noise": {"amplitude": 1e308}}),  # level range 2e308 overflows
            ("simulate", {"dt": 1.9999998e-06}),  # 200.00002 samples per period
            ("simulate", {"dt": 1e-320, "f_m": 1e-10}),  # f_m*dt underflows to 0
            ("modwave", {"f_m": 0}),
            ("refsignal", {"f_rot": -2500.0}),
            ("simulate", {"duration": 10000.0}),  # 5e9 samples: 37 GiB per array
            ("simulate", {"duration": 100.0, "noise": {"rate_or_freq": 5e5}}),  # 5e7 steps
            ("simulate", {"modulation": {"amplitudes": [0.1] * 200_000}}),  # 200 x 2e5 table
            ("modwave", {"samples_per_period": MAX_ELEMENTS}),
            ("refsignal", {"samples_per_period": MAX_ELEMENTS + 1}),
        ],
    )
    def test_bad_config_section_is_config_error(self, tmp_path, capsys, subcommand, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [subcommand, "--config", str(cfg), "--out", str(tmp_path)]
        if subcommand == "simulate":
            args += ["--seed", "7"]  # the override must not trip on the bad section
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("seed", ["abc", 1.7, -1, True])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"seed": seed}}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("config error: SimConfig.noise")

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dt": 2e-6,')
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and ":" in err  # parse context with position

    def test_precondition_failure_is_exit_three(self, tmp_path):
        # one modulation period: the integration window cannot fit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 4e-4}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 3

    def test_out_of_memory_is_exit_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, out):
            raise MemoryError("Unable to allocate 37.3 GiB")

        monkeypatch.setattr("rotolock.cli.cmd_refsignal", exhausted)
        assert run_cli("refsignal", "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("error: out of memory")


METRIC_OVERFLOW = (
    "error: rms_error_full overflows the float range; lower signal_amp or the noise amplitude\n"
)


@pytest.mark.parametrize(
    "config, stderr",
    [
        # the lock-in's sums overflow: the finiteness error
        ({"noise": {"amplitude": 8e307}}, "error: signal values must all be finite\n"),
        # the signals stay finite, but the error metrics' sums of squares do not
        ({"signal_amp": 1e200}, METRIC_OVERFLOW),
        ({"noise": {"amplitude": 1e160}}, METRIC_OVERFLOW),
    ],
    ids=["lockin-sums", "signal-amp", "noise-amp"],
)
def test_overflowing_noise_reports_one_error_line(tmp_path, config, stderr):
    # the config accepts these amplitudes, but the run overflows: it exits 3
    # with one error line, no NumPy warnings before it (a fresh interpreter,
    # so that its default warning filters apply) and no metrics.json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    src = Path(rotolock.__file__).resolve().parents[1]
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from rotolock.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == stderr
    assert not (tmp_path / "out" / "metrics.json").exists()


SLOPE_SINGULAR = (
    "error: slope estimate is singular: within one period the modulation cannot be told "
    "apart from a constant or linear disturbance\n"
)


@pytest.mark.parametrize(
    "subcommand, config, code, stderr",
    [
        # pi * (disc integral) underflows: the share must come from a scale-free ratio;
        # one sample lies strictly inside the transition, too few to fit
        ("refsignal", {"geometry": {"r0": 1e-300}}, 3,
         "error: no transition found: intermediate runs too short\n"),
        # the gain's Cauchy-Schwarz bound overflows unless m is scaled first
        ("simulate", {"modulation": {"amplitudes": [1e200] * 7}}, 0, ""),
        # an aligned reference, but the modulation's AC part is 1e-300 of its DC:
        # the slope estimate, not the gain floor, refuses it
        ("simulate", {"modulation": {"amplitudes": [1e-300]}}, 3, SLOPE_SINGULAR),
        # a subnormal AC part: refused before the slope term's K overflows
        ("simulate", {"modulation": {"amplitudes": [1e-310]}}, 3, SLOPE_SINGULAR),
        # with no offset m is not singular, but its slope weights overflow
        ("simulate", {"modulation": {"amplitudes": [1e-310], "offset": 0}}, 3,
         "error: signal values must all be finite\n"),
        # an emission weight that vanishes or is negative over the spot
        ("refsignal", {"geometry": {"emission": {"A": 0, "c": 0}}}, 3,
         "error: emission weight A*cos(k*atan(rho/d)) + c must be positive over the spot "
         "(A = 0, c = 0)\n"),
        ("refsignal", {"geometry": {"emission": {"A": 0, "c": -1}}}, 3,
         "error: emission weight A*cos(k*atan(rho/d)) + c must be positive over the spot "
         "(A = 0, c = -1)\n"),
    ],
    ids=["tiny-spot", "huge-modulation", "tiny-modulation", "subnormal-modulation",
         "subnormal-zero-offset", "zero-emission", "negative-emission"],
)
def test_extreme_scales_exit_with_one_line(tmp_path, subcommand, config, code, stderr):
    # a fresh interpreter, so that NumPy warnings would reach stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    src = Path(rotolock.__file__).resolve().parents[1]
    argv = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from rotolock.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)


def test_simulate_and_modwave_never_import_scipy(tmp_path):
    # a fresh interpreter: this test process may have loaded SciPy already
    src = Path(rotolock.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from rotolock.cli import main\n"
        "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"assert main(['simulate', '--seed', '7', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        f"assert main(['modwave', '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        "print('after simulate, modwave:', scipy_modules())\n"
        f"assert main(['refsignal', '--out', {str(tmp_path / 'r')!r}]) == 0\n"
        "print('after refsignal:', scipy_modules())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probes = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert probes[0] == "after simulate, modwave: []"
    # the probe does see SciPy where it is used: only the transition fit
    # needs it, the occlusion integral is a NumPy rule
    assert "'scipy.optimize'" in probes[1] and "'scipy.integrate'" not in probes[1]
