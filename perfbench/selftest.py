"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a failing operation is counted and does not end the run, that
the tracer leaves the program's outputs and bindings exactly as they were,
that a span whose function is gone reports zero calls, that BENCHMARK.json
names every metric the benchmark computes, and that the benchmark refuses
to run without the program's sources.  Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.load_program()

import numpy as np  # noqa: E402

import rotolock.sim  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Broken(workloads.SimulateDefault):
    """simulate-default whose second operation raises and whose third
    writes a corrupted restored.csv."""

    def __init__(self):
        self.calls = 0

    def run(self, inp, out):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("injected failure")
        handle = super().run(inp, out)
        if self.calls == 3:
            path = out / "restored.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[: len(lines) // 2]))
        return handle


def test_failures_are_counted_and_the_run_goes_on(work):
    r = run.Run(Broken(), work, seed=1)
    ops = [r.attempt() for _ in range(4)]
    assert [op is not None for op in ops] == [True, False, False, True], ops
    assert r.attempted == 4 and len(r.failures) == 2, r.failures
    assert "injected failure" in r.failures[0], r.failures
    assert "RuntimeError" not in r.failures[1], r.failures


def test_rerun_mismatch_is_a_failure(work):
    class Flaky(workloads.SimulateDefault):
        seeds = iter((1, 2))

        def run(self, inp, out):
            return super().run(["simulate", "--seed", str(next(self.seeds))], out)

    r = run.Run(Flaky(), work, seed=1)
    r.warm_up()
    assert r.attempted == 2 and len(r.failures) == 1, r.failures
    assert "rerun" in r.failures[0], r.failures


def _files(out: Path) -> dict:
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    manifest.pop("out_dir")
    return dict(files, manifest=manifest)


def test_traced_outputs_are_byte_identical(work):
    for w in (workloads.SimulateDefault(), workloads.Refsignal()):
        inp = w.make_input(7)
        w.run(inp, work / "plain")
        with Tracer() as tracer:
            w.run(inp, work / "traced")
        assert tracer.take()["cli.main"]["calls"] == 1
        assert _files(work / "plain") == _files(work / "traced"), w.name
        shutil.rmtree(work / "plain")
        shutil.rmtree(work / "traced")

    cfg = rotolock.sim.SimConfig(duration=0.06, noise=rotolock.sim.NoiseSpec(seed=7))
    plain = rotolock.sim.run_simulation(cfg)
    with Tracer():
        traced = rotolock.sim.run_simulation(cfg)
    for field in ("noise", "modulated_noisy", "restored_full", "restored_downsampled"):
        a, b = getattr(plain, field).values, getattr(traced, field).values
        assert a.tobytes() == b.tobytes(), field
    assert json.dumps(plain.metrics) == json.dumps(traced.metrics)


def _bindings() -> dict:
    return {
        (key, attr): value
        for key, mod in list(sys.modules.items())
        if key == "rotolock" or key.startswith("rotolock.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_patches_and_restores_every_binding(work):
    before = _bindings()
    with Tracer() as tracer:
        during = _bindings()
        # bound by name in other modules and in the package namespace
        for key in (("rotolock.sim", "synth"), ("rotolock.lockin", "synth"),
                    ("rotolock.cli", "write_csv"), ("rotolock", "transmitted_fraction"),
                    ("rotolock.reference", "transmitted_fraction")):
            assert during[key] is not before[key], key
        workloads.Refsignal().run(["refsignal"], work / "ref")
    figures = tracer.take()
    assert figures["reference.transmitted_fraction"]["calls"] == 2000, figures
    assert 0.0 < figures["reference.transmitted_fraction"]["transition_ratio"] < 0.2
    assert figures["signals.write_csv"]["bytes"] == (work / "ref" / "refsignal.csv").stat().st_size
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a binding was not restored"


def test_absent_span_reports_zero_calls(work):
    names = ["signals.no_such_function", "no_such_module.f", "signals.synth"]
    with Tracer(names) as tracer:
        rotolock.sim.run_simulation(rotolock.sim.SimConfig())
    figures = tracer.take()
    assert tracer.absent == names[:2], tracer.absent
    assert figures["signals.no_such_function"] == {"self_s": 0.0, "calls": 0}
    assert figures["signals.synth"]["calls"] >= 1, figures
    assert figures["signals.synth"]["samples"] >= 15_000, figures


def test_benchmark_json_names_every_metric(work):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layer_names = {"trace.overhead_frac"}
    with Tracer() as tracer:
        pass
    for span, rec in tracer.take().items():
        layer_names.update(f"{span}.{key}" for key in rec)
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert set(LAYERS["spans"]) == set(tracer.spans)


def test_max_offstep_dev_matches_the_program_mask(work):
    cfg = rotolock.sim.SimConfig(noise=rotolock.sim.NoiseSpec(seed=3))
    res = rotolock.sim.run_simulation(cfg)
    spp = cfg.samples_per_period
    mask = rotolock.sim.step_contamination_mask(res.noise, spp)
    t = res.restored_full.times()
    dev = np.abs(res.restored_full.values - np.sin(2 * np.pi * cfg.signal_freq * t))
    keep = ~mask & (np.arange(len(t)) >= res.warmup)
    expected = float(np.max(dev[keep]))
    got = workloads.max_offstep_dev(t, res.restored_full.values, res.noise.values, spp, 1.0, 50.0)
    assert got == expected, (got, expected)


def test_calibration_cancels_host_speed(work):
    import calibrate

    for w in workloads.WORKLOADS.values():
        kernel = calibrate.measure(w.kernel)
        assert 0.0 < kernel < 1.0, (w.name, kernel)
    # an operation and its kernels twice as slow read the same; the
    # operation alone twice as slow reads twice as long
    ref = calibrate.REFERENCE_S["python"]
    base = calibrate.normalise(0.4, 0.02, 0.03, ref)
    assert math.isclose(calibrate.normalise(0.8, 0.04, 0.06, ref), base)
    assert math.isclose(calibrate.normalise(0.8, 0.02, 0.03, ref), 2 * base)
    assert "rotolock" not in sys.modules.get("calibrate").__dict__


def test_refuses_to_run_without_the_program(work):
    bare = work / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refsignal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    base = run.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    failed = 0
    for name, fn in tests:
        work = Path(tempfile.mkdtemp(dir=base))
        try:
            fn(work)
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report every test
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        base.rmdir()
    except OSError:
        pass
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
