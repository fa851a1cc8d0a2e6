"""Command-line interface: config ingestion, subcommand dispatch, CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import Config
from .errors import ConfigError, PreconditionError
from .modulation import ModulationFit, modulation_series
from .reference import SpotGeometry, fit_trapezoid_cosine, reference_waveform
from .signals import TimeGrid, synth, write_csv
from .sim import SimConfig, report, run_simulation


@dataclass(frozen=True)
class ModwaveConfig(Config):
    f_m: float = 2500.0
    samples_per_period: int = 720
    modulation: ModulationFit = field(default_factory=ModulationFit)

    def __post_init__(self):
        _check_rate("f_m", self.f_m, self.samples_per_period)


@dataclass(frozen=True)
class RefsignalConfig(Config):
    f_rot: float = 2500.0
    samples_per_period: int = 2000
    geometry: SpotGeometry = field(default_factory=SpotGeometry)

    def __post_init__(self):
        _check_rate("f_rot", self.f_rot, self.samples_per_period)


def _check_rate(name: str, freq: float, samples_per_period: int) -> None:
    if not freq > 0.0:
        raise ConfigError(f"{name} must be positive, got {freq}")
    if samples_per_period < 1:
        raise ConfigError(f"samples_per_period must be >= 1, got {samples_per_period}")


def _load_config(path, subcommand: str) -> dict:
    """Load a JSON config file; a previously emitted manifest is accepted too."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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


def _write_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(subcommand: str, config_dict: dict, out: Path) -> None:
    _write_json(
        {
            "subcommand": subcommand,
            "config": config_dict,
            "out_dir": str(out),
            "version": __version__,
        },
        out / "manifest.json",
    )


def cmd_modwave(cfg: ModwaveConfig, out: Path) -> dict:
    """Emit the modulation waveform over two rotation periods plus its series."""
    series = modulation_series(cfg.modulation, cfg.f_m)
    n = 2 * cfg.samples_per_period
    grid = TimeGrid(dt=1.0 / (cfg.f_m * cfg.samples_per_period), n=n, t0=0.0)
    wave = synth(series, grid)
    write_csv(wave, out / "modwave.csv")
    _write_json(series.to_dict(), out / "modwave_series.json")
    return {"files": [str(out / "modwave.csv"), str(out / "modwave_series.json")]}


def cmd_refsignal(cfg: RefsignalConfig, out: Path) -> dict:
    """Emit one period of the optical-switch reference plus its transition fit."""
    grid = TimeGrid(dt=1.0 / (cfg.f_rot * cfg.samples_per_period), n=cfg.samples_per_period, t0=0.0)
    wave = reference_waveform(cfg.geometry, grid, cfg.f_rot)
    write_csv(wave, out / "refsignal.csv")
    fit, resid = fit_trapezoid_cosine(wave, cfg.f_rot)
    _write_json(
        dict(fit.to_dict(), residual_rms=resid, period=1.0 / cfg.f_rot),
        out / "trapezoid_fit.json",
    )
    return {"files": [str(out / "refsignal.csv"), str(out / "trapezoid_fit.json")]}


def cmd_simulate(cfg: SimConfig, out: Path) -> dict:
    """Run the end-to-end scenario and write the signal stacks and metrics."""
    result = run_simulation(cfg)
    summary = report(result, out)
    write_csv(result.restored_downsampled, out / "restored_downsampled.csv")
    summary["files"].append(str(out / "restored_downsampled.csv"))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotolock",
        description="Rotating-electrode optical voltage sensor simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"rotolock {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("modwave", "emit the electrode modulation waveform"),
        ("refsignal", "emit the optical-switch reference waveform"),
        ("simulate", "run the end-to-end lock-in simulation"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override noise seed")
            p.add_argument(
                "--noise", choices=["step", "sine", "none"], default=None,
                help="override noise kind",
            )
            p.add_argument(
                "--ref", choices=["square", "sine"], default=None,
                help="override reference kind",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
            cfg = SimConfig.from_dict(raw)
            runner = cmd_simulate
        elif args.subcommand == "modwave":
            cfg = ModwaveConfig.from_dict(raw)
            runner = cmd_modwave
        else:
            cfg = RefsignalConfig.from_dict(raw)
            runner = cmd_refsignal

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = runner(cfg, out)
        _write_manifest(args.subcommand, cfg.to_dict(), out)
        for f in summary["files"]:
            print(f"wrote {f}")
        print(f"wrote {out / 'manifest.json'}")
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
