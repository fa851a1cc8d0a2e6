"""Command-line interface: config ingestion and subcommand dispatch.

One table, `_SUBCOMMANDS`, gives each subcommand its config type, its runner
and its help line; the parser and `main` both read it.  A runner computes its
outputs and writes them under --out with `signals.write_outputs`, which makes
the directory just before the first write, and `main` writes the manifest
with the same call, so a refused run leaves no directory behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import Config, check_size
from .errors import ConfigError, PreconditionError
from .modulation import ModulationFit, modulation_series
from .reference import SpotGeometry, fit_trapezoid_cosine, reference_waveform
from .signals import TimeGrid, synth, write_outputs
from .sim import _NOISE_KINDS, _REF_KINDS, SimConfig, report, run_simulation


@dataclass(frozen=True)
class ModwaveConfig(Config):
    f_m: float = 2500.0
    samples_per_period: int = 720
    modulation: ModulationFit = field(default_factory=ModulationFit)

    def __post_init__(self):
        _check_rate("f_m", self.f_m, self.samples_per_period)
        # two periods written, and synth's one-period table of spp x harmonics
        check_size(
            "2 * samples_per_period * harmonics",
            2 * self.samples_per_period * self.modulation.n_harmonics,
        )


@dataclass(frozen=True)
class RefsignalConfig(Config):
    f_rot: float = 2500.0
    samples_per_period: int = 2000
    geometry: SpotGeometry = field(default_factory=SpotGeometry)

    def __post_init__(self):
        _check_rate("f_rot", self.f_rot, self.samples_per_period)
        check_size("samples_per_period", self.samples_per_period)


def _check_rate(name: str, freq: float, samples_per_period: int) -> None:
    if not 0.0 < 2.0 * math.pi * freq < math.inf:  # synth's angular frequency
        raise ConfigError(f"{name} must be positive with 2*pi*{name} finite, got {freq}")
    if samples_per_period < 1:
        raise ConfigError(f"samples_per_period must be >= 1, got {samples_per_period}")
    dt = 1.0 / (freq * samples_per_period)
    if not 0.0 < dt < math.inf:
        raise ConfigError(
            f"the step 1/({name}*samples_per_period) must be positive and finite, got {dt}"
        )


def _load_config(path, subcommand: str) -> dict:
    """Load a JSON config file; a previously emitted manifest is accepted too."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # bytes that are not UTF-8, an integer past Python's digit limit, nesting
    # deeper than the parser's recursion
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict) and "subcommand" in data and "config" in data:
        if data["subcommand"] != subcommand:
            raise ConfigError(
                f"{path} is a manifest for {data['subcommand']!r}, not {subcommand!r}"
            )
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def cmd_modwave(cfg: ModwaveConfig, out: Path) -> dict:
    """Emit the modulation waveform over two rotation periods plus its series."""
    series = modulation_series(cfg.modulation, cfg.f_m)
    grid = TimeGrid(dt=1.0 / (cfg.f_m * cfg.samples_per_period), n=2 * cfg.samples_per_period)
    files = {"modwave.csv": synth(series, grid), "modwave_series.json": series.to_dict()}
    return {"files": write_outputs(files, out)}


def cmd_refsignal(cfg: RefsignalConfig, out: Path) -> dict:
    """Emit one period of the optical-switch reference plus its transition fit."""
    grid = TimeGrid(dt=1.0 / (cfg.f_rot * cfg.samples_per_period), n=cfg.samples_per_period)
    wave = reference_waveform(cfg.geometry, grid, cfg.f_rot)
    # fitted before anything is written, so that a failed fit leaves no directory
    fit, resid = fit_trapezoid_cosine(wave, cfg.f_rot)
    files = {
        "refsignal.csv": wave,
        "trapezoid_fit.json": dict(fit.to_dict(), residual_rms=resid, period=1.0 / cfg.f_rot),
    }
    return {"files": write_outputs(files, out)}


# each subcommand's config type, its runner and its help line; a runner writes
# its outputs under --out through `write_outputs` and returns their paths,
# with the metrics of a simulate run
_SUBCOMMANDS = {
    "modwave": (ModwaveConfig, cmd_modwave, "emit the electrode modulation waveform"),
    "refsignal": (RefsignalConfig, cmd_refsignal, "emit the optical-switch reference waveform"),
    "simulate": (
        SimConfig,
        lambda cfg, out: report(run_simulation(cfg), out),
        "run the end-to-end lock-in simulation",
    ),
}


@functools.cache  # built on the first call of main, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotolock",
        description="Rotating-electrode optical voltage sensor simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"rotolock {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, helptext) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=int, help="override noise seed")
            p.add_argument("--noise", choices=_NOISE_KINDS, help="override noise kind")
            p.add_argument("--ref", choices=_REF_KINDS, help="override reference kind")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_type, runner, _ = _SUBCOMMANDS[args.subcommand]
    try:
        raw = _load_config(args.config, args.subcommand)
        if args.subcommand == "simulate":
            # flag overrides beat file values
            noise = raw.setdefault("noise", {})
            if isinstance(noise, dict):  # anything else SimConfig.from_dict rejects
                if args.noise is not None:
                    noise["kind"] = args.noise
                if args.seed is not None:
                    noise["seed"] = args.seed
            if args.ref is not None:
                raw["ref_kind"] = args.ref
        cfg = config_type.from_dict(raw)
        summary = runner(cfg, args.out)
        manifest = {
            "subcommand": args.subcommand,
            "config": cfg.to_dict(),
            "out_dir": str(args.out),
            "version": __version__,
        }
        for f in summary["files"] + write_outputs({"manifest.json": manifest}, args.out):
            print(f"wrote {f}")
        if "metrics" in summary:
            for key in ("rms_error_full", "rms_error_downsampled", "bandwidth_hz"):
                print(f"{key} = {summary['metrics'][key]:.6g}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
