import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

import rotolock
import rotolock.cli
import rotolock.config
import rotolock.lockin
import rotolock.modulation
import rotolock.reference
import rotolock.signals
import rotolock.sim
from rotolock.cli import main
from rotolock.lockin import demodulate, slope_compensate
from rotolock.reference import SpotGeometry, reference_waveform
from rotolock.signals import HarmonicSeries, SampledSignal, TimeGrid

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
    # signals.window_chunks is the only trailing-window sum, with one output
    # form, its stream: the lock-in keeps no kernel of its own and no array
    # form, and each caller makes one call of it.  The slope term goes in as
    # two plain sources (s, c0, c1), the periods ones and m with per-phase
    # weights: how they fall on the kernel's period rows is the kernel's alone.
    # One lock-in function, `_lockin_chunks`, checks the channel, builds the
    # sources and streams the call: no setup helpers of its own
    for name in ("_window_sums", "_PHASE_BLOCK", "_lockin", "_lockin_terms", "_channel"):
        assert not hasattr(rotolock.lockin, name), name
    assert not hasattr(rotolock.signals, "window_sums")
    kernel = rotolock.signals.window_chunks
    signature = inspect.signature(kernel)
    assert list(signature.parameters) == ["x", "trapezoid", "plain"]
    # a period past the weight budget takes per-period running sums, each
    # chunk read once: no slabs of weights, rebuilt per group of chunks
    # that each slab reads again, and no per-chunk state kept across slabs
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(kernel))):
        names.add(getattr(node, "id", getattr(node, "name", getattr(node, "arg", None))))
    gone = {"slabs", "per_slab", "slab_weights", "group", "built", "sums", "outs", "totals"}
    assert not names & gone, names & gone
    calls = []

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return kernel(*args, **kwargs)

    # the lock-in holds the name it imported
    monkeypatch.setattr(rotolock.signals, "window_chunks", counted)
    monkeypatch.setattr(rotolock.lockin, "window_chunks", counted)
    grid = TimeGrid(dt=2e-6, n=4 * 200)  # whole periods of f_m = 2.5 kHz
    m = HarmonicSeries(2500.0, 0.5, [1.0, 0.3], [0.2, -0.1])
    s_m = SampledSignal(grid, np.sin(2.0 * np.pi * 50.0 * grid.times()))
    w = 200  # samples in one period of m
    m_period = rotolock.signals.synth(m, TimeGrid(grid.dt, w)).values
    m_unit = np.ldexp(m_period, -np.frexp(np.max(np.abs(m_period)))[1])  # peak in [0.5, 1)
    demodulate(s_m, m, m, "even")
    assert len(calls) == 1 and calls[0]["plain"] == ()
    calls.clear()
    slope_compensate(s_m, m, m, "even")
    assert len(calls) == 1
    plain = calls[0]["plain"]
    assert len(plain) == 2
    assert all(len(source) == 3 for source in plain)
    assert all(np.shape(a) == (w,) for source in plain for a in source)
    assert np.array_equal(plain[0][0], np.ones(w))
    assert np.array_equal(plain[1][0], m_unit)


def test_one_spike_window_rule(monkeypatch):
    # a run finds its spike windows by one rule, evaluated at the down-sample
    # picks on the steps gen_noise drew: no rescan of the noise for its steps
    # and no full-length contamination mask
    assert not hasattr(rotolock.sim, "_step_sample_indices")
    rule = rotolock.sim._step_in_window
    picks = []

    def counted(steps, window, outputs):
        picks.append(len(outputs))
        return rule(steps, window, outputs)

    def refused(*args):
        raise AssertionError("run_simulation built the full-length mask")

    monkeypatch.setattr(rotolock.sim, "_step_in_window", counted)
    monkeypatch.setattr(rotolock.sim, "step_contamination_mask", refused)
    res = rotolock.run_simulation(rotolock.SimConfig())
    assert res.metrics["spike_windows"] != []
    assert picks == [res.metrics["n_downsampled"]]


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
    # the reference transition is fitted by one search from one start: one
    # default refsignal makes one solver call
    fit = rotolock.reference._cosine_lsq
    calls = []

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(rotolock.reference, "_cosine_lsq", counted)
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
    # and one dataclass-to-JSON rule, Config.to_dict, for the files it writes
    for cls in (HarmonicSeries, rotolock.reference.TrapezoidFit):
        assert cls.to_dict is rotolock.config.Config.to_dict, cls.__name__


def call_sites(name: str) -> list[tuple[str, str]]:
    """(module file, top-level function or class) of each call in the package
    of a function or method named `name`."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    sites.append((path.name, getattr(top, "name", None)))
    return sites


def test_one_output_writer():
    # signals.write_outputs makes the output directory and writes every file
    # of every subcommand, the manifest included: the package's one mkdir and
    # its only calls of the CSV and JSON writers are there
    for name in ("mkdir", "makedirs", "write_csv", "write_json"):
        expected = [] if name == "makedirs" else [("signals.py", "write_outputs")]
        assert call_sites(name) == expected, name
    for name in ("cmd_simulate", "_write_manifest"):
        assert not hasattr(rotolock.cli, name), name
    # and one table of subcommands, which the parser reads
    parser = rotolock.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(rotolock.cli._SUBCOMMANDS)


def test_program_work_is_done_once_per_process():
    # the parser and each config class's field types depend on the program
    # alone, so they are built once per process and not per call of main:
    # cli._build_parser is the package's one ArgumentParser and
    # config._hints its one lookup of the field types, each cached
    assert call_sites("ArgumentParser") == [("cli.py", "_build_parser")]
    assert call_sites("get_type_hints") == [("config.py", "_hints")]


def test_one_csv_row_formatter():
    # signals.write_csv formats every CSV row of the package, for a file
    # alone on its grid and for a group written together: the full-precision
    # `%.17g` is in its body and nowhere else
    sites = [
        (path.name, top.name)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
    ]
    assert sites and set(sites) == {("signals.py", "write_csv")}


def test_one_noise_reader_and_one_way_to_build_a_signal():
    # sim._NoisySum draws the noise once and fills any sample range of it, for
    # gen_noise and for the run's noisy sum alike, so it is the package's one
    # random draw; and a SampledSignal is only built through its constructor,
    # which checks every value, with no shortcut around that check
    assert not hasattr(rotolock.sim, "_noise_draw")
    assert not hasattr(rotolock.signals, "_finite_signal")
    assert call_sites("default_rng") == [("sim.py", "_NoisySum")]
    assert [path.name for path in SRC.glob("*.py") if "object.__new__(" in path.read_text()] == []


def test_one_read_only_handover():
    # signals.frozen makes an array read-only for the code that hands it
    # over, the signal constructor's copy and the series' and fit's
    # coefficients among them: the package's one write of a writeable flag
    sites = [
        (path.name, top.name)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store)
    ]
    assert sites == [("signals.py", "frozen")]
    assert call_sites("setflags") == []


def test_one_finiteness_rule():
    # SampledSignal.finite is the one finiteness rule, applied where values
    # are made: its message is written once in the package, the constructor
    # and the noise reader call it, and the lock-in's stream maps it over its
    # chunks
    sites = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if "signal values must all be finite" in line
    ]
    assert sites == ["signals.py"]
    assert call_sites("finite") == [("signals.py", "SampledSignal"), ("sim.py", "_NoisySum")]
    assert "map(SampledSignal.finite," in inspect.getsource(rotolock.lockin._lockin_chunks)


def test_one_stream_length_rule():
    # signals._stream is the one reader of a stream and holds its one rule,
    # that the chunks hold the n values of the grid: its message is written
    # once in the package, every reader of a stream calls it (write_outputs
    # for the grid alone), and the writer re-cuts no stream into blocks of
    # its own
    sites = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if "samples of its grid" in line
    ]
    assert sites == ["signals.py"]
    readers = ["_joined", "downsample_at_phase", "write_csv", "write_outputs"]
    assert call_sites("_stream") == [("signals.py", name) for name in readers]
    assert not hasattr(rotolock.signals, "_blocks")


def test_traced_spans_resolve():
    # the benchmark's traced run wraps each span <module>.<function> under
    # rotolock and reports 0 calls for one that is gone; a function moved or
    # renamed by a refactor must fail here, not go quiet there, and a retired
    # span must name a function that is gone
    retired = {
        "lockin.demod_gain_numeric",  # deleted with the numeric gain path
        # deleted: nothing in the package called it, and window_sums with dt
        # per phase is the same trapezoid integral
        "signals.moving_integral",
    }
    missing, revived = [], []
    for span in json.loads(LAYERS.read_text())["spans"]:
        module, _, function = span.rpartition(".")
        fn = getattr(importlib.import_module("rotolock." + module), function, None)
        if inspect.isfunction(fn) and span in retired:
            revived.append(span)
        elif not inspect.isfunction(fn) and span not in retired:
            missing.append(span)
    assert missing == []
    assert revived == []


def test_sim_result_holds_only_what_is_read(monkeypatch, tmp_path):
    # report writes the five stacks and the metrics come with them; no field
    # holds a full-length array.  The run's inputs are held as the config it
    # ran, whose `grid` every property reads.  Each full-rate stack is made
    # in one place, `SimResult.stack`, as a stream: report writes each
    # stream, one call per stack, and each property holds one whole, one
    # call per read.  The warm-up is read from the metrics, not held twice
    assert [f.name for f in dataclasses.fields(rotolock.SimResult)] == [
        "config", "modulated_period", "restored_downsampled", "metrics",
    ]
    for name in ("warmup", "modulated", "noise", "modulated_noisy", "restored_full"):
        assert isinstance(inspect.getattr_static(rotolock.SimResult, name), property), name
    assert isinstance(inspect.getattr_static(rotolock.SimConfig, "grid"), property)
    for name in ("_grid", "_restored"):
        assert not hasattr(rotolock.SimResult, name), name
    for name in ("tile", "_lockin"):
        assert not hasattr(rotolock.sim, name), name
    assert inspect.signature(rotolock.gen_noise).return_annotation == "_NoisySum"
    res = rotolock.run_simulation(rotolock.SimConfig())
    assert res.warmup == res.metrics["warmup_samples"] == 200

    stack, stacks = rotolock.SimResult.stack, []
    monkeypatch.setattr(rotolock.SimResult, "stack",
                        lambda self, name: stacks.append(name) or stack(self, name))
    for prop, name in (("modulated", "modulated.csv"), ("noise", "noise.csv"),
                       ("modulated_noisy", "modulated_noisy.csv"),
                       ("restored_full", "restored.csv")):
        stacks.clear()
        assert getattr(res, prop).grid.n == res.config.grid.n
        assert stacks == [name], prop
    stacks.clear()
    rotolock.report(res, tmp_path)
    assert stacks == ["noise.csv", "modulated.csv", "modulated_noisy.csv", "restored.csv"]
    # a stack is made alone: reading `noise` draws one _NoisySum, of the
    # spec and grid, and runs no lock-in setup (counted by its slope term)
    reader, readers = rotolock.sim._NoisySum, []
    terms, made = rotolock.lockin._slope_term, []
    monkeypatch.setattr(rotolock.sim, "_NoisySum",
                        lambda *a: readers.append(len(a)) or reader(*a))
    monkeypatch.setattr(rotolock.lockin, "_slope_term",
                        lambda *a: made.append(1) or terms(*a))
    assert res.noise.grid == res.config.grid
    assert readers == [2] and made == []
    assert res.restored_full.grid.n == res.config.grid.n
    assert readers == [2, 3] and made == [1]


def test_one_emission_law():
    # I(beta) = A*cos(k*beta) + c is written once, as EmissionFit.__call__;
    # emission_intensity and the occlusion weight both evaluate it
    source = (SRC / "reference.py").read_text()
    assert len(re.findall(r"np\.cos\(\w+\.k \*", source)) == 1
    em = rotolock.EmissionFit()
    beta = np.linspace(-0.9, 0.9, 7) * math.pi / em.k  # inside the fitted lobe
    assert rotolock.emission_intensity(em, beta).tobytes() == em(beta).tobytes()


def test_test_only_code_is_gone():
    # the Monte Carlo oracle and the angle-domain modulation live in
    # tests/oracles.py; period detection had no caller in the package; the
    # lock-in's (signal, warm-up) pair gave way to the plain signal; and one
    # period rule, `whole_period`, counts the lock-in's window and warm-up and
    # the down-sampler's stride, so `window_samples` and `TimeGrid.sample_rate`
    # (read only by the down-sampler's own ratio) have no reader
    for module, name in ((rotolock.reference, "detect_period"),
                         (rotolock.reference, "transmitted_fraction_mc"),
                         (rotolock.modulation, "eval_modulation"),
                         (rotolock.signals, "WindowedSignal"),
                         (rotolock.signals, "window_samples")):
        assert not hasattr(module, name), name
        assert name not in rotolock.__all__, name
    assert not hasattr(TimeGrid, "sample_rate")
    grid = TimeGrid(dt=2e-6, n=4 * 200)
    m = HarmonicSeries(2500.0, 0.5, [1.0, 0.3], [0.2, -0.1])
    s_m = SampledSignal(grid, np.sin(2.0 * np.pi * 50.0 * grid.times()))
    for lockin in (demodulate, slope_compensate):
        assert type(lockin(s_m, m, m, "even")) is SampledSignal, lockin.__name__


def test_config_reads_every_field_by_its_type():
    # SpotGeometry keeps the degrees the config gives and checks its own
    # small-spot rule, so the loader has no field-specific code and the
    # occlusion rule raises no ConfigError
    for name in ("_degrees", "_key"):
        assert not hasattr(rotolock.config, name), name
    assert "metadata" not in (SRC / "config.py").read_text()
    for name in ("_check_small_spot", "ConfigError"):
        assert not hasattr(rotolock.reference, name), name


# exports that no other module of the package imports and the benchmark does
# not reach or call, each with the reason it stays public
KEEP = {
    "fit_harmonics": "criterion 1 refits the emitted modulation waveform with it",
    "EmissionFit": "the type of SpotGeometry's `emission` config section",
    "TrapezoidFit": "the result type of fit_trapezoid_cosine",
    "emission_intensity": "the LED emission model I(beta) with its fitted-lobe warning",
    "HarmonicOutput": "the item type of harmonic_outputs",
    "harmonic_outputs": "criterion 7: per-harmonic quadrature outputs",
    "demodulate": "criterion 7: `harmonic_outputs` demodulates each usable channel with it",
    "SimResult": "the result type of run_simulation, which report takes",
}


def bench_references() -> set[str]:
    """Names that perfbench/*.py reaches in the package: the attributes of a
    chain rooted at `rotolock` (rotolock.sim.run_simulation) and the names
    imported from a rotolock module.  A helper of perfbench's own that shares
    an export's name is not a use."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "rotolock":
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.partition(".")[0] == "rotolock":
                    names.update(alias.name for alias in node.names)
    return names


def spans_called(monkeypatch, out: Path) -> set[str]:
    """Function names of the layers.json spans that default simulate,
    modwave and refsignal runs call at least once.  Every rotolock module
    binding of a span's function is rebound to a counter, as perfbench's
    tracer does, and restored when the test ends."""
    calls = {}
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and key.partition(".")[0] == "rotolock"]
    for span in json.loads(LAYERS.read_text())["spans"]:
        module, _, function = span.rpartition(".")
        fn = getattr(importlib.import_module("rotolock." + module), function, None)
        if not inspect.isfunction(fn):
            continue
        calls[span] = 0

        def counted(*args, _fn=fn, _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    for subcommand in ("simulate", "modwave", "refsignal"):
        assert rotolock.cli.main([subcommand, "--out", str(out / subcommand)]) == 0
    return {span.rpartition(".")[2] for span, n in calls.items() if n}


def test_every_export_is_used_or_kept_for_a_reason(monkeypatch, tmp_path):
    imported = set()  # names another module of the package imports
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    imported.update(alias.name for alias in node.names)
    used = imported | bench_references() | spans_called(monkeypatch, tmp_path)
    assert [name for name in rotolock.__all__ if name not in used and name not in KEEP] == []
    # a kept name is an export that needs the reason
    assert [name for name in KEEP if name in used or name not in rotolock.__all__] == []
