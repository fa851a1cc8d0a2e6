"""rotolock benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload simulate-default --seed 1 --seconds 20 --trace 0

Drives rotolock's public entry points in-process: one process, one client,
a closed loop (the next operation starts when the previous one and its
output checks are done), a fresh output directory per operation.  Run from
a checkout: the program is imported from its src/ directory.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced operations alternately and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it holds the run's details (tail percentile, raw timings, failures,
versions, thread cap, filesystem).

Every timing in the end-to-end metrics is normalised to the reference
host's speed with the calibration kernel timed on either side of it (see
calibrate.py); the raw timings are in the details line.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before NumPy loads: the load is the program's,
# not the scheduler's (synth's matmul would otherwise use every core)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


def load_program() -> None:
    """Import rotolock from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rotolock

    if not Path(rotolock.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rotolock imported from {rotolock.__file__}, not {SRC}")


@dataclass
class Op:
    seconds: float
    quality: dict
    handle: object
    out: Path
    peak_bytes: int = 0


class Run:
    """Attempts operations and records the ones that fail.

    An operation fails when it raises or when its outputs fail a check;
    either way the run goes on.
    """

    def __init__(self, workload, work: Path, seed: int):
        from workloads import op_seeds

        self.workload = workload
        self.work = work
        self.seeds = op_seeds(seed)
        self.attempted = 0
        self.failures = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"operation failed: {what}", file=sys.stderr)

    def attempt(self, inp=None, around=None, alloc=False, keep=False):
        """One operation on a fresh output directory, then its checks.

        Only the call into the program is timed; `around` (a tracer) is
        entered outside the timer.  Returns an Op, or None on failure.
        """
        if inp is None:
            inp = self.workload.make_input(next(self.seeds))
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        gc.collect()
        peak = 0
        try:
            with around or contextlib.nullcontext():
                if alloc:
                    tracemalloc.start()
                start = perf_counter()
                try:
                    handle = self.workload.run(inp, out)
                finally:
                    seconds = perf_counter() - start
                    if alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            quality = self.workload.check(handle)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed op must not end the run
            traceback.print_exc(file=sys.stderr)
            self.fail(f"op{self.attempted - 1}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return Op(seconds, quality, handle if keep else None, out, peak)

    def warm_up(self) -> None:
        """First operation, untimed; for a workload that requires it, the same
        input run again must give byte-identical outputs."""
        inp = self.workload.make_input(next(self.seeds))
        keep = self.workload.rerun_identical
        first = self.attempt(inp, keep=keep)
        if not keep:
            return
        again = self.attempt(inp, keep=True)
        if first and again:
            try:
                self.workload.identical(first.handle, again.handle)
            except Exception as exc:  # noqa: BLE001
                self.fail(f"rerun of op{self.attempted - 2}: {exc}")
        for op in (first, again):
            if op:
                shutil.rmtree(op.out, ignore_errors=True)


def spawn_seconds(code: str, cwd: Path) -> float:
    """Wall time of a fresh interpreter that runs code."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=cwd, stdout=subprocess.DEVNULL)
    # a blocking wait returns at exit; wait(timeout) polls in steps of up to 50 ms
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    seconds = perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"interpreter running {code!r} exited with code {rc}")
    return seconds


def measure_setup(workload, seed: int, work: Path) -> tuple[float, list[float], list[float]]:
    """Wall time of fresh interpreters that import rotolock.cli and build
    one input of the workload: (normalised median, raw times, calibration
    spawn times).

    Start-up swings with the host more than the compute kernel does, so
    each one is normalised by calibration interpreters (calibrate.SPAWN_CODE)
    spawned just before and after it, and set-up time is the median."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import rotolock.cli; "
        + workload.setup_code(seed)
    )
    raw, spawns, setup = [], [spawn_seconds(calibrate.SPAWN_CODE, work)], []
    for _ in range(SETUP_SPAWNS):
        raw.append(spawn_seconds(code, work))
        spawns.append(spawn_seconds(calibrate.SPAWN_CODE, work))
        setup.append(calibrate.normalise(raw[-1], spawns[-2], spawns[-1],
                                         calibrate.SPAWN_REFERENCE_S))
    return statistics.median(setup), raw, spawns


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it, or with the
    upper half beyond it when a run has fewer than 2*TAIL_BEYOND + 1
    samples: (value, percentile, samples beyond)."""
    s = sorted(times)
    n = len(s)
    k = min(TAIL_BEYOND, (n - 1) // 2)
    return s[n - k - 1], 100.0 * (n - k) / n, k


def timed_loop(seconds: float, step) -> None:
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        step(i)
        i += 1


def end_to_end(run: Run, seed: int, seconds: float, details: dict) -> dict:
    from workloads import quality_probe

    workload = run.workload
    setup, setup_raw, setup_spawns = measure_setup(workload, seed, run.work)
    run.warm_up()
    ref = calibrate.REFERENCE_S[workload.kernel]
    ops, times, kernel = [], [], [calibrate.measure(workload.kernel)]

    def step(i):
        op = run.attempt()
        kernel.append(calibrate.measure(workload.kernel))
        if op:
            ops.append(op)
            times.append(calibrate.normalise(op.seconds, kernel[-2], kernel[-1], ref))

    timed_loop(seconds, step)
    peak = run.attempt(alloc=True)
    if not ops or peak is None:
        raise RuntimeError("no operation succeeded")
    raw = [op.seconds for op in ops]
    quality = [op.quality for op in ops] if workload.quality_from_ops else quality_probe(seed)
    tail_s, tail_pct, beyond = tail(times)
    details.update(
        ops_timed=len(times),
        tail_percentile=tail_pct,
        tail_samples_beyond=beyond,
        raw=dict(
            setup_s=statistics.median(setup_raw),
            setup_runs_s=setup_raw,
            op_p50_s=statistics.median(raw),
            op_tail_s=tail(raw)[0],
            samples_per_s=workload.samples_per_op * len(raw) / sum(raw),
        ),
        calibration=dict(kernel=workload.kernel, reference_s=ref, runs=len(kernel),
                         median_s=statistics.median(kernel),
                         spawn_reference_s=calibrate.SPAWN_REFERENCE_S,
                         spawn_median_s=statistics.median(setup_spawns)),
        quality_source="operations" if workload.quality_from_ops else "16 default-config simulations",
    )
    return {
        "setup_s": setup,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "samples_per_s": workload.samples_per_op * len(times) / sum(times),
        "peak_alloc_mb": peak.peak_bytes / 2**20,
        "rms_error_downsampled": statistics.median(q["rms_error_downsampled"] for q in quality),
        "max_offstep_dev": statistics.median(q["max_offstep_dev"] for q in quality),
    }


def per_layer(run: Run, seconds: float, details: dict) -> dict:
    tracer = Tracer()
    plain, traced, layers = [], [], []
    run.warm_up()

    def step(i):
        use = i % 2 == 1
        op = run.attempt(around=tracer if use else None)
        figures = tracer.take()
        if op:
            (traced if use else plain).append(op.seconds)
            if use:
                layers.append(figures)

    timed_loop(seconds, step)
    if not traced:  # a run shorter than two operations still traces one
        step(1)
    if not plain or not traced:
        raise RuntimeError("no operation succeeded")
    details.update(
        ops_untraced=len(plain),
        ops_traced=len(traced),
        absent_spans=tracer.absent,
        counter_errors=tracer.counter_errors[:10],
    )
    metrics = {
        f"{span}.{key}": statistics.median(fig[span][key] for fig in layers)
        for span, rec in layers[0].items()
        for key in rec
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def filesystem(path: Path) -> str:
    """Type of the filesystem that holds path, from the mount table."""
    best, fstype = "", "unknown"
    path = str(path.resolve())
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mnt = fields[1].replace("\\040", " ")
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def environment(work: Path) -> dict:
    import numpy
    import scipy

    return {
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "filesystem": filesystem(work),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import rotolock from {SRC}: {exc}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    try:
        details["environment"] = environment(work)
        run = Run(workload, work, args.seed)
        if args.trace:
            values = per_layer(run, args.seconds, details)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(run, args.seed, args.seconds, details)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = len(run.failures)
    values["fail_frac"] = failed / run.attempted
    details.update(attempted=run.attempted, failed=failed, failures=run.failures[:10])
    units = dict({m["name"]: m["unit"] for m in wanted}, fail_frac="ratio")
    for name, value in values.items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{details['tail_percentile']:.1f}: {details['tail_samples_beyond']}"
                    f" of {details['ops_timed']} ops beyond it)")
        print(f"{args.workload:18s} {name:48s} {value:.6g} {units[name]}{note}")
    print(json.dumps({"details": details}))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
