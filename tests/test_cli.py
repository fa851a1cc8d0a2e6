import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotolock
from rotolock.cli import _build_parser, main
from rotolock.config import MAX_ELEMENTS
from rotolock.modulation import ModulationFit
from rotolock.reference import SpotGeometry
from rotolock.signals import fit_harmonics
from rotolock.sim import SimConfig

from oracles import read_csv


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
    @pytest.mark.parametrize(
        "geometry, spp, code, exponent",
        [
            ({"d": 0.1}, 200, 3, None),
            ({"d": 0.1}, 2000, 0, None),
            ({"d": 0.5}, 2000, 3, "06"),
            ({"r0": 1.0}, 20000, 0, None),
        ],
        ids=["200-3", "2000-0", "d0.5-2000-3", "r0-1.0-20000-0"],
    )
    def test_ill_posed_transition_fit_is_exit_three(self, tmp_path, capsys, geometry, spp, code,
                                                    exponent):
        # a lens 0.1 mm from the blade: at 200 samples per period the
        # transition is 5 samples on a near-straight line, whose cost falls
        # all the way toward a parabola's as u -> 0: the search ends deep in
        # that valley, where B and c2 (about 1e10 and -1e10) trade off.  At
        # 0.5 mm the valley is flatter than the bound and B moves from 1.30 to
        # 2.08 with the sampling.  A 1 mm spot at 20 000 samples per period,
        # whose 1 - |rho| of 6.3e-4 is the lowest of the accepted geometries
        # swept, is a well-posed fit.  At 0.1 mm the 1 - |rho| reached is
        # rounding: moving each sample by a relative 1e-15 or so gives e-10,
        # e-11 or a covariance that cannot be estimated (65 of 80 draws moved
        # it off e-11), so that row takes either form of the refusal and no
        # exponent
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": geometry, "samples_per_period": spp}))
        out = tmp_path / "out"
        assert run_cli("refsignal", "--config", str(cfg), "--out", str(out)) == code
        err = capsys.readouterr().err
        if code == 3:
            digits = exponent or r"\d+"
            form = (r"B and c2 are correlated to 1 - \|rho\| = "
                    rf"\d\.?\d*e-{digits}, below 1e-05, so they are not determined")
            if exponent is None:
                form = f"({form}|its covariance cannot be estimated, so B and c2 are not determined)"
            assert re.fullmatch(rf"error: cosine fit of the transition is ill-posed: {form}\n", err)
        assert (out / "trapezoid_fit.json").exists() == (code == 0)
        assert out.exists() == (code == 0)

    def test_csv_write_peaks_below_the_run(self, tmp_path, monkeypatch):
        # the benchmark's refsignal peak is set by the occlusion quadrature
        # (0.0905 MiB measured), not by the write of refsignal.csv, 2000 rows
        # formatted into byte fields 256 at a time (0.077 MiB).  A first run
        # makes NumPy's lazy imports and caches
        write_csv, peaks = rotolock.signals.write_csv, []

        def traced(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])  # the run's, so far
            tracemalloc.reset_peak()
            write_csv(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(rotolock.signals, "write_csv", traced)
        assert run_cli("refsignal", "--out", str(tmp_path / "first")) == 0
        tracemalloc.start()
        try:
            assert run_cli("refsignal", "--out", str(tmp_path / "out")) == 0
        finally:
            tracemalloc.stop()
        assert peaks[3] < peaks[2]

    def test_manifest_reingestion_reproduces_degree_geometry(self, tmp_path):
        # rad2deg(deg2rad(24.0)) is 24.000000000000004: the manifest must write
        # back the degrees given, not a value recomputed from radians
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"theta_gnd_deg": 24.0}}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("refsignal", "--config", str(cfg), "--out", str(out1)) == 0
        manifest = out1 / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["geometry"]["theta_gnd_deg"] == 24.0
        assert run_cli("refsignal", "--config", str(manifest), "--out", str(out2)) == 0
        for name in ("refsignal.csv", "trapezoid_fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_default_manifest_writes_the_default_degrees(self, tmp_path):
        assert run_cli("refsignal", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert repr(manifest["config"]["geometry"]["theta_gnd_deg"]) == "30.0"

    def test_bad_geometry_is_config_error(self, tmp_path, capsys):
        # a spot wider than the sector (r0 = 0.5 against R0*sin(1.5 deg) =
        # 0.157), or a sector angle outside (0, 180) degrees, is refused as
        # the geometry is read, before the output directory is made
        for geometry, reason in (({"r0": 3.0}, "spot radius"),
                                 ({"theta_gnd_deg": 3.0}, "spot radius"),
                                 ({"theta_gnd_deg": 180.0}, "blade sector angle"),
                                 ({"theta_gnd_deg": 0.0}, "blade sector angle")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"geometry": geometry}))
            out = tmp_path / "out"
            assert run_cli("refsignal", "--config", str(cfg), "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: RefsignalConfig.geometry: {reason}")
            assert err.count("\n") == 1
            assert not out.exists()


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
            # the emission weight times pi could overflow in the occlusion rule
            ("refsignal", {"geometry": {"emission": {"A": 1e308, "c": 1e308}}}),
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
            ("modwave", {"f_m": 1e308}),  # the step 1/(f_m*720) underflows to 0
            ("modwave", {"f_m": 5e-324}),  # the step overflows to inf
            ("refsignal", {"f_rot": 5e-324}),
            ("modwave", {"f_m": 1e308, "samples_per_period": 1}),  # 2*pi*f_m overflows
            # 2*pi*f_m overflows, though dt and 1/(f_m*dt) = 2 are fine
            ("simulate", {"f_m": 5e307, "dt": 1e-308, "duration": 1e-306, "signal_freq": 0}),
        ],
    )
    def test_bad_config_section_is_config_error(self, tmp_path, capsys, subcommand, config):
        # one line, and refused as the config is read, before --out is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        args = [subcommand, "--config", str(cfg), "--out", str(out)]
        if subcommand == "simulate":
            args += ["--seed", "7"]  # the override must not trip on the bad section
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", 1.7, -1, True])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"seed": seed}}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("config error: SimConfig.noise")

    @pytest.mark.parametrize(
        "text, context",
        [
            (b'{"dt": 2e-6,', "cfg.json:1:13: "),  # the parser's line and column
            (b"[" * 100_000 + b"]" * 100_000, "cfg.json: "),  # nested past its recursion
            (b"\xff\xfe{}", "cfg.json: "),  # not UTF-8
            (b'{"f_m": 1' + b"0" * 5_000 + b"}", "cfg.json: "),  # past the 4 300-digit int limit
        ],
        ids=["truncated", "deep-nesting", "not-utf8", "long-integer"],
    )
    def test_malformed_json_is_config_error(self, tmp_path, capsys, text, context):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert context in err
        assert not out.exists()

    def test_precondition_failure_is_exit_three(self, tmp_path, capsys):
        # one modulation period: the integration window cannot fit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 4e-4}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "error: the period 1/f of f = 2500 Hz must be a positive whole number of "
            "samples of dt = 2e-06 s, fewer than the signal's n = 200\n"
        )
        assert not out.exists()

    def test_modulation_frequency_whose_period_does_not_round_trip(self, tmp_path, capsys):
        # 1/(1/1003) != 1003: the reference takes f_m itself, not its period
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"f_m": 1003.0, "dt": 4.985044865403788e-06, "duration": 0.02991026919242273}
        ))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_out_of_memory_is_exit_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(geom, grid, f_rot):
            raise MemoryError("Unable to allocate 37.3 GiB")

        # the refsignal runner holds the name it imported
        monkeypatch.setattr("rotolock.cli.reference_waveform", exhausted)
        assert run_cli("refsignal", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert not (tmp_path / "out").exists()


METRIC_OVERFLOW = (
    "error: rms_error_full overflows the float range; lower signal_amp or the noise amplitude\n"
)


@pytest.mark.parametrize(
    "config, stderr",
    [
        # the lock-in's sums overflow: the finiteness error
        ({"noise": {"amplitude": 8e307}}, "error: signal values must all be finite\n"),
        # the modulated signal plus the noise overflows: the finiteness error
        (
            {"signal_amp": 1.5e308, "noise": {"amplitude": 8e307}},
            "error: signal values must all be finite\n",
        ),
        # the sine noise's phase overflows: the finiteness error
        (
            {"noise": {"kind": "sine", "rate_or_freq": 1e308}},
            "error: signal values must all be finite\n",
        ),
        # the signals stay finite, but the error metrics' sums of squares do not
        ({"signal_amp": 1e200}, METRIC_OVERFLOW),
        ({"noise": {"amplitude": 1e160}}, METRIC_OVERFLOW),
    ],
    ids=["lockin-sums", "noisy-sum", "sine-phase", "signal-amp", "noise-amp"],
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
        # too few samples per period for a transition
        ("refsignal", {"samples_per_period": 3}, 3,
         "error: no transition found: no intermediate samples\n"),
        # the modulation's one period overflows: refused by the finiteness check alone
        ("modwave", {"modulation": {"amplitudes": [1e308, 1e308]}}, 3,
         "error: signal values must all be finite\n"),
        # harmonic j of the reference is rotated by j times the reduced delay
        ("simulate", {"ref_phase_delay": 1e308}, 0, ""),
    ],
    ids=["tiny-spot", "huge-modulation", "tiny-modulation", "subnormal-modulation",
         "subnormal-zero-offset", "zero-emission", "negative-emission", "three-samples",
         "overflowing-modulation", "huge-delay"],
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
    # a failed run leaves no output directory
    assert (tmp_path / "out").exists() == (code == 0)


def test_a_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser on its first call and reuses it: flags given to
    # one call are not defaults of the next, and neither a usage error nor
    # --version (each a SystemExit from the parser) changes what a later
    # run writes
    assert _build_parser() is _build_parser()
    flags = ["--seed", "7", "--noise", "sine", "--ref", "sine"]
    for name, argv in [("flags", flags), ("plain", [])]:
        assert main(["simulate", *argv, "--out", str(tmp_path / name)]) == 0
    configs = {name: json.loads((tmp_path / name / "manifest.json").read_text())["config"]
               for name in ("flags", "plain")}
    assert configs["flags"]["noise"]["seed"] == 7 and configs["flags"]["ref_kind"] == "sine"
    assert configs["plain"] == SimConfig().to_dict()
    first = tmp_path / "refsignal"
    assert main(["refsignal", "--out", str(first)]) == 0
    for argv, code in [(["simulate", "--noise", "bogus"], 2), (["--version"], 0)]:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
        out = tmp_path / f"after_exit_{code}"
        assert main(["refsignal", "--out", str(out)]) == 0
        for name in ("refsignal.csv", "trapezoid_fit.json"):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
        before, after = (json.loads((d / "manifest.json").read_text()) for d in (first, out))
        assert dict(after, out_dir=None) == dict(before, out_dir=None)
    assert f"rotolock {rotolock.__version__}" in capsys.readouterr().out


def test_no_subcommand_imports_scipy(tmp_path):
    # a fresh interpreter in which any SciPy import raises: the package and
    # every subcommand run on NumPy alone, and SciPy is a test dependency only
    src = Path(rotolock.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); sys.modules['scipy'] = None\n"
        "import rotolock\n"
        "from rotolock.cli import main\n"
        f"assert main(['simulate', '--seed', '7', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        f"assert main(['modwave', '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        f"assert main(['refsignal', '--out', {str(tmp_path / 'r')!r}]) == 0\n"
        # the stub aside, no SciPy module may be loaded
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for out, name in [("s", "restored.csv"), ("m", "modwave.csv"), ("r", "trapezoid_fit.json")]:
        assert (tmp_path / out / name).exists()


@pytest.mark.parametrize("subcommand", ["modwave", "refsignal", "simulate"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, subcommand):
    # every file goes through one writer, which names the directory it could
    # not make or write under
    out = tmp_path / "out"
    out.write_text("a regular file")
    assert run_cli(subcommand, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: failed writing outputs under {out}: ")
    assert err.count("\n") == 1
    assert out.read_text() == "a regular file"


@pytest.mark.parametrize(
    "config, code, message",
    [
        ({"duration": 8e-4, "noise": {"rate_or_freq": 100000}}, 3,
         "error: every downsampled window is warm-up or contains a noise step"),
        (None, 2, "config error: cannot read config"),
        # an integer that no float holds
        ('{"duration": 1' + "0" * 400 + "}", 2,
         "config error: SimConfig.duration must be a finite number, got inf"),
        ({"duration": 0.0300001}, 2, "duration/dt must be a positive integer"),
        ({"noise": {"amplitude": -1}}, 2, "noise amplitude must be >= 0"),
        ({"noise": {"kind": "step", "rate_or_freq": 0}}, 2,
         "rate_or_freq must be positive for kind 'step'"),
        ({"noise": {"kind": "sine", "rate_or_freq": 0}}, 2,
         "rate_or_freq must be positive for kind 'sine'"),
    ],
    ids=["all-windows-spiked", "missing-config", "huge-integer", "fractional-steps",
         "negative-amplitude", "zero-step-rate", "zero-sine-frequency"],
)
def test_refused_simulate_leaves_no_directory(tmp_path, capsys, config, code, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "error: ")
    assert message in err and err.count("\n") == 1
    assert not out.exists()


# The console-script contract: each case that the CI step ran through the
# installed `rotolock` entry point, by the output directory it named there.
# Each row is (argv before --config and --out, the config file's JSON or
# None, the exit code); an --out that is a regular file is marked FILE_OUT.
FILE_OUT = object()
CONTRACT = [
    pytest.param(["modwave"], None, 0, id="modwave"),
    pytest.param(["refsignal"], None, 0, id="refsignal"),
    pytest.param(["simulate"], None, 0, id="simulate"),
    pytest.param(["simulate", "--noise", "sine"], None, 0, id="simulate_sine"),
    # the other two overrides, the seed as the benchmark passes it: the
    # manifest's config carries each into the re-run
    pytest.param(["simulate", "--ref", "sine"], None, 0, id="simulate_ref_sine"),
    pytest.param(["simulate", "--seed", "7"], None, 0, id="simulate_seed_7"),
    # the noise reader's zero level
    pytest.param(["simulate", "--noise", "none"], None, 0, id="simulate_none"),
    # a modulated trace of zeros on that level
    pytest.param(["simulate", "--noise", "none"], {"signal_freq": 0.0}, 0,
                 id="simulate_no_signal"),
    # no whole period: a sine over the whole grid
    pytest.param(["simulate"], {"noise": {"kind": "sine", "rate_or_freq": 37.0}}, 0,
                 id="simulate_sine_37hz"),
    # a 4 000-sample period, whose block weights fit _WEIGHT_FLOATS
    pytest.param(["simulate"], {"f_m": 250.0, "dt": 1e-6}, 0, id="simulate_long_period"),
    # three chunks of the lock-in's output and a partial last period
    pytest.param(["simulate"], {"duration": 0.3001}, 0, id="simulate_chunks"),
    # an 8 000-sample period, whose block weights do not fit: the running
    # sums over eleven chunks
    pytest.param(["simulate"], {"f_m": 125.0, "dt": 1e-6, "duration": 0.6001}, 0,
                 id="simulate_running_sums"),
    pytest.param(["simulate"], {"duration": 4e-4}, 3, id="one_period"),
    pytest.param(["simulate"], {"no_such_key": 1}, 2, id="unknown_key"),
    # the noisy sum overflows, refused by the lock-in's stream
    pytest.param(["simulate"], {"noise": {"amplitude": 8e307}}, 3, id="overflow"),
    # the signals are finite, but rms_error_full's sum of squares is not
    pytest.param(["simulate"], {"signal_amp": 1e200, "noise": {"kind": "none"}}, 3,
                 id="metric_overflow"),
    # a blade sector angle outside (0, 180) degrees
    pytest.param(["refsignal"], {"geometry": {"theta_gnd_deg": 180.0}}, 2, id="flat_sector"),
    pytest.param(["modwave"], FILE_OUT, 3, id="out_is_a_file"),
]

# the stderr line of a refusal whose words the table pins, by its row's id
CONTRACT_LINES = {"metric_overflow": METRIC_OVERFLOW}


@pytest.mark.parametrize("argv, config, code", CONTRACT)
def test_console_script_contract(request, tmp_path, capsys, recwarn, argv, config, code):
    # the entry point's `main`, in process: a run exits 0 with an empty
    # stderr, and its re-run from its own manifest writes the same bytes
    # (criterion 8); a refusal exits 2 (config) or 3 with one stderr line
    # and leaves nothing at --out.  The installed script would print any
    # warning to stderr, so a warning of any category (`recwarn` records
    # them all) breaks these as a stderr line would
    out = tmp_path / "out"
    if config is FILE_OUT:
        out.write_text("a regular file")
    elif config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not recwarn.list, [str(w.message) for w in recwarn]
    if code != 0:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err == CONTRACT_LINES.get(request.node.callspec.id, err)
        if config is FILE_OUT:
            assert out.read_text() == "a regular file"
        else:
            assert not out.exists()
        return
    assert err == ""
    again = tmp_path / "again"
    assert main([argv[0], "--config", str(out / "manifest.json"), "--out", str(again)]) == 0
    assert capsys.readouterr().err == ""
    assert not recwarn.list, [str(w.message) for w in recwarn]
    names = sorted(p.name for p in out.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        if name != "manifest.json":  # it names its own output directory
            assert (out / name).read_bytes() == (again / name).read_bytes(), name
