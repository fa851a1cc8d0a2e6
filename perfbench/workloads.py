"""The benchmark's workloads: inputs made from a seed, the operation that is
timed, and the checks on its outputs.

The checks read the written files (or the returned arrays) with plain NumPy
and recompute what they compare against, so that they do not depend on the
code path under test.  A check that fails raises CheckError.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import rotolock.cli
import rotolock.sim

HERE = Path(__file__).resolve().parent

RMS_LIMIT = 1e-2  # acceptance criterion 5c
SNAPSHOT_TOL = 1e-10  # quadrature agreement gate for the reference waveform
SIM_FILES = (
    "noise.csv",
    "modulated.csv",
    "modulated_noisy.csv",
    "restored.csv",
    "restored_downsampled.csv",
    "metrics.json",
    "manifest.json",
)
REF_FILES = ("refsignal.csv", "trapezoid_fit.json", "manifest.json")


class CheckError(Exception):
    """An operation's output failed a check."""


def op_seeds(seed: int):
    """Endless stream of per-operation noise seeds derived from the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _finite_numbers(obj) -> bool:
    """True when every number in a JSON value is finite."""
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return math.isfinite(obj)
    return True


def _read_json(path: Path):
    with open(path) as fh:
        data = json.load(fh)
    _require(_finite_numbers(data), f"{path.name}: non-finite number")
    return data


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The t and value columns of a `t,value` CSV."""
    with open(path) as fh:
        _require(fh.readline() == "t,value\n", f"{path.name}: bad header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == 2 and np.all(np.isfinite(data)), f"{path.name}: bad rows")
    return data[:, 0], data[:, 1]


def max_offstep_dev(t, restored, noise, spp: int, amp: float, freq: float) -> float:
    """Largest |restored - signal| past the one-period warm-up, outside every
    window whose trailing period contains a noise step (criterion 5b).

    A level change at input sample i contaminates outputs i..i+spp-1.
    """
    n = len(restored)
    steps = np.flatnonzero(np.diff(noise) != 0.0) + 1
    edges = np.zeros(n + spp + 1, dtype=np.int64)
    np.add.at(edges, steps, 1)
    np.add.at(edges, steps + spp, -1)
    keep = np.cumsum(edges)[:n] == 0
    keep[:spp] = False
    _require(bool(np.any(keep)), "no off-step samples")
    dev = np.abs(restored - amp * np.sin(2.0 * np.pi * freq * t))
    return float(np.max(dev[keep]))


def _check_sim_metrics(metrics: dict, n_down: int) -> float:
    rms = metrics.get("rms_error_downsampled")
    _require(isinstance(rms, float), "metrics: rms_error_downsampled missing")
    _require(rms <= RMS_LIMIT, f"rms_error_downsampled {rms:.3g} > {RMS_LIMIT}")
    _require(
        metrics.get("n_downsampled") == n_down,
        f"n_downsampled {metrics.get('n_downsampled')} != {n_down}",
    )
    return rms


def check_sim_result(res, cfg, n_samples: int, n_down: int) -> dict:
    """Checks on an in-process SimResult; returns the quality metrics."""
    _require(_finite_numbers(res.metrics), "metrics: non-finite number")
    rms = _check_sim_metrics(res.metrics, n_down)
    restored, noise = res.restored_full.values, res.noise.values
    _require(len(restored) == n_samples == len(noise), "wrong sample count")
    _require(
        bool(np.all(np.isfinite(restored)) and np.all(np.isfinite(noise))),
        "non-finite samples",
    )
    g = res.restored_full.grid
    t = g.t0 + np.arange(g.n) * g.dt
    spp = int(round(1.0 / (cfg.f_m * cfg.dt)))
    dev = max_offstep_dev(t, restored, noise, spp, cfg.signal_amp, cfg.signal_freq)
    return {"rms_error_downsampled": rms, "max_offstep_dev": dev}


class Workload:
    """One benchmark workload.

    make_input(seed) builds the program's input (untimed); run(input, out)
    is the timed operation and returns a handle; check(handle) verifies the
    outputs and returns the operation's quality metrics (possibly none).
    """

    name = ""
    samples_per_op = 0
    # every workload reports these; ops of a workload without them get them
    # from quality_probe()
    quality_from_ops = True
    # re-run one input per run and require byte-identical outputs
    rerun_identical = False
    # the calibration kernel its timings are normalised with (calibrate.KERNELS)
    kernel = "python"

    def setup_code(self, seed: int) -> str:
        """Python source, run after `import rotolock.cli`, that builds one input."""
        raise NotImplementedError

    def make_input(self, seed: int):
        raise NotImplementedError

    def run(self, inp, out: Path):
        raise NotImplementedError

    def check(self, handle) -> dict:
        raise NotImplementedError


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rotolock.cli.main(argv)


class SimulateDefault(Workload):
    name = "simulate-default"
    samples_per_op = 15_000
    rerun_identical = True

    def setup_code(self, seed):
        return f"argv = ['simulate', '--out', 'out', '--seed', '{seed}']"

    def make_input(self, seed):
        return ["simulate", "--seed", str(seed)]

    def run(self, inp, out):
        return _cli([*inp, "--out", str(out)]), out

    def check(self, handle):
        rc, out = handle
        _require(rc == 0, f"exit code {rc}")
        missing = [f for f in SIM_FILES if not (out / f).is_file()]
        _require(not missing, f"missing outputs {missing}")
        metrics = _read_json(out / "metrics.json")
        cfg = _read_json(out / "manifest.json")["config"]
        rms = _check_sim_metrics(metrics, 75)
        t, restored = read_csv(out / "restored.csv")
        _, noise = read_csv(out / "noise.csv")
        t_down, down = read_csv(out / "restored_downsampled.csv")
        _require(len(restored) == self.samples_per_op == len(noise), "wrong sample count")
        # the down-sampled channel is the full-rate output, one sample per period
        spp = int(round(1.0 / (cfg["f_m"] * cfg["dt"])))
        k0 = int(np.argmin(np.abs(t - t_down[0])))
        _require(
            np.array_equal(restored[k0::spp], down),
            "restored_downsampled.csv does not match restored.csv",
        )
        dev = max_offstep_dev(t, restored, noise, spp, cfg["signal_amp"], cfg["signal_freq"])
        return {"rms_error_downsampled": rms, "max_offstep_dev": dev}

    @staticmethod
    def identical(a, b) -> None:
        """Criterion 8: the same seed writes byte-identical stacks and metrics."""
        for name in SIM_FILES:
            if name == "manifest.json":  # records its own output directory
                continue
            _require(
                (a[1] / name).read_bytes() == (b[1] / name).read_bytes(),
                f"rerun differs in {name}",
            )


class SimulateLong(Workload):
    name = "simulate-long"
    samples_per_op = 1_500_000
    kernel = "array"

    def setup_code(self, seed):
        return (
            "import rotolock.sim as sim; "
            f"sim.SimConfig(duration=3.0, noise=sim.NoiseSpec(seed={seed}))"
        )

    def make_input(self, seed):
        return rotolock.sim.SimConfig(duration=3.0, noise=rotolock.sim.NoiseSpec(seed=seed))

    def run(self, inp, out):
        return inp, rotolock.sim.run_simulation(inp)

    def check(self, handle):
        cfg, res = handle
        return check_sim_result(res, cfg, self.samples_per_op, 7500)


class Refsignal(Workload):
    name = "refsignal"
    samples_per_op = 2000
    quality_from_ops = False

    def __init__(self):
        self.snapshot = np.loadtxt(HERE / "refsignal_seed.txt")

    def setup_code(self, seed):
        return "argv = ['refsignal', '--out', 'out']"

    def make_input(self, seed):
        return ["refsignal"]  # fixed geometry: the seed does not apply

    def run(self, inp, out):
        return _cli([*inp, "--out", str(out)]), out

    def check(self, handle):
        rc, out = handle
        _require(rc == 0, f"exit code {rc}")
        missing = [f for f in REF_FILES if not (out / f).is_file()]
        _require(not missing, f"missing outputs {missing}")
        _read_json(out / "trapezoid_fit.json")
        _, v = read_csv(out / "refsignal.csv")
        _require(len(v) == self.samples_per_op, "wrong sample count")
        _require(bool(np.all((v >= 0.0) & (v <= 1.0))), "values outside [0, 1]")
        _require(bool(np.any(v == 0.0) and np.any(v == 1.0)), "no exact 0 and 1 plateaus")
        err = float(np.max(np.abs(v - self.snapshot)))
        _require(err <= SNAPSHOT_TOL, f"differs from refsignal_seed.txt by {err:.3g}")
        return {}


def quality_probe(seed: int, n: int = 16) -> list[dict]:
    """Quality metrics of n untimed default-config simulations, for a
    workload whose own operations do not produce them."""
    seeds = op_seeds(seed ^ 0x5EED)
    out = []
    for _ in range(n):
        cfg = rotolock.sim.SimConfig(noise=rotolock.sim.NoiseSpec(seed=next(seeds)))
        out.append(check_sim_result(rotolock.sim.run_simulation(cfg), cfg, 15_000, 75))
    return out


WORKLOADS = {w.name: w for w in (SimulateDefault, SimulateLong, Refsignal)}
