import ast
import dataclasses
import importlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np

import rotolock
import rotolock.lockin
import rotolock.reference
import rotolock.signals
from rotolock.cli import main
from rotolock.lockin import demodulate, slope_compensate
from rotolock.reference import SpotGeometry, reference_waveform
from rotolock.signals import HarmonicSeries, SampledSignal, TimeGrid, moving_integral

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = BENCH / "layers.json"
SRC = Path(rotolock.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in rotolock.__all__ if not hasattr(rotolock, name)]
    assert missing == []
    assert len(set(rotolock.__all__)) == len(rotolock.__all__)


def test_lockin_has_one_gain_path():
    # the reference is passed as a series with a channel name: no wrapper
    # types and no second gain function
    for name in ("DemodReference", "split_even_odd", "DemodGain", "demod_gain",
                 "demod_gain_numeric", "recover", "DemodResult"):
        assert not hasattr(rotolock.lockin, name), name
        assert name not in rotolock.__all__, name


def test_one_trailing_window_kernel(monkeypatch):
    # signals.window_sums is the only trailing-window sum: the lock-in keeps
    # no kernel of its own, and each caller makes one call of it
    for name in ("_window_sums", "_PHASE_BLOCK"):
        assert not hasattr(rotolock.lockin, name), name
    kernel = rotolock.signals.window_sums
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    # the lock-in holds the name it imported
    monkeypatch.setattr(rotolock.signals, "window_sums", counted)
    monkeypatch.setattr(rotolock.lockin, "window_sums", counted)
    grid = TimeGrid(dt=2e-6, n=4 * 200)  # whole periods of f_m = 2.5 kHz
    m = HarmonicSeries(2500.0, 0.5, [1.0, 0.3], [0.2, -0.1])
    s_m = SampledSignal(grid, np.sin(2.0 * np.pi * 50.0 * grid.times()))
    for run in (
        lambda: demodulate(s_m, m, m, "even"),
        lambda: slope_compensate(s_m, m, m, "even"),
        lambda: moving_integral(s_m, 4e-4),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_one_occlusion_pass_per_waveform(monkeypatch):
    # the distinct angles of a waveform go through transmitted_fraction
    # together, not one call per angle
    rule = rotolock.reference.transmitted_fraction
    sizes = []

    def counted(geom, theta):
        sizes.append(np.size(theta))
        return rule(geom, theta)

    monkeypatch.setattr(rotolock.reference, "transmitted_fraction", counted)
    grid = TimeGrid(dt=1.0 / (2500.0 * 2000), n=2000)
    reference_waveform(SpotGeometry(), grid, 2500.0)
    assert sum(sizes) == 2000  # the distinct angles of one period
    assert len(sizes) <= math.ceil(sum(sizes) / rotolock.reference._ANGLE_BLOCK)


def test_one_fit_per_transition(monkeypatch, tmp_path):
    # the reference transition is fitted from one start on the canonical
    # branch: one default refsignal makes one curve_fit call
    import scipy.optimize

    fit = scipy.optimize.curve_fit
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    # the fit imports curve_fit when it runs, so it picks up the patched name
    monkeypatch.setattr(scipy.optimize, "curve_fit", counted)
    assert main(["refsignal", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_one_json_writer():
    # config.write_json is the one JSON writer: one json.dump(s) call site in
    # the package, and the writers nothing called are gone
    sites = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"\bjson\.dumps?\(", line)
    ]
    assert sites == ["config.py"]
    assert not hasattr(rotolock.lockin, "write_harmonics_csv")
    assert "write_harmonics_csv" not in rotolock.__all__


def test_traced_spans_resolve():
    # the benchmark's traced run wraps each span <module>.<function> under
    # rotolock and reports 0 calls for one that is gone; a function moved or
    # renamed by a refactor must fail here, not go quiet there
    retired = {"lockin.demod_gain_numeric"}  # deleted with the numeric gain path
    missing = []
    for span in json.loads(LAYERS.read_text())["spans"]:
        module, _, function = span.rpartition(".")
        fn = getattr(importlib.import_module("rotolock." + module), function, None)
        if span not in retired and not inspect.isfunction(fn):
            missing.append(span)
    assert missing == []


def test_sim_result_holds_only_what_is_read():
    # report writes the five stacks, the metrics come with them and the
    # warm-up bounds their use; no field holds a full-length array that no
    # output file, metric or CLI path reads, such as the measured sine
    assert [f.name for f in dataclasses.fields(rotolock.SimResult)] == [
        "noise", "modulated", "modulated_noisy", "restored_full",
        "restored_downsampled", "warmup", "metrics",
    ]


def test_test_only_code_is_gone():
    # the Monte Carlo oracle lives in tests/oracles.py; period detection and
    # the warm-up trim had no caller in the package
    for name in ("detect_period", "transmitted_fraction_mc"):
        assert not hasattr(rotolock.reference, name), name
        assert name not in rotolock.__all__, name
    assert not hasattr(rotolock.signals.WindowedSignal, "valid")


# exports that no other module of the package imports and the benchmark does
# not use or trace, each with the reason it stays public
KEEP = {
    "fit_harmonics": "criterion 1 refits the emitted modulation waveform with it",
    "eval_modulation": "the oracle of the modulation series fit in test_signals",
    "EmissionFit": "the type of SpotGeometry's `emission` config section",
    "TrapezoidFit": "the result type of fit_trapezoid_cosine",
    "emission_intensity": "the LED emission model I(beta) with its fitted-lobe warning",
    "HarmonicOutput": "the item type of harmonic_outputs",
    "harmonic_outputs": "criterion 7: per-harmonic quadrature outputs",
    "SimResult": "the result type of run_simulation, which report takes",
}


def test_every_export_is_used_or_kept_for_a_reason():
    imported = set()  # names another module of the package imports
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    imported.update(alias.name for alias in node.names)
    bench = {span.rpartition(".")[2] for span in json.loads(LAYERS.read_text())["spans"]}
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                bench.add(node.id)
            elif isinstance(node, ast.Attribute):
                bench.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                bench.update(alias.name for alias in node.names)
    used = imported | bench
    assert [name for name in rotolock.__all__ if name not in used and name not in KEEP] == []
    # a kept name is an export that needs the reason
    assert [name for name in KEEP if name in used or name not in rotolock.__all__] == []
