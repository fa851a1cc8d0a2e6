import json
import typing
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotolock import config
from rotolock.cli import ModwaveConfig, RefsignalConfig
from rotolock.config import MAX_ELEMENTS, Config, write_json
from rotolock.errors import ConfigError
from rotolock.reference import SpotGeometry, TrapezoidFit
from rotolock.signals import HarmonicSeries
from rotolock.sim import SimConfig

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def mostly(usual, rare):
    """`usual` seven draws in eight, else `rare`."""
    return st.integers(0, 7).flatmap(lambda i: usual if i < 7 else rare)


def like(default):
    """Any JSON value, mostly of the shape of a config's default value:
    objects draw a subset of the real keys, sometimes with a junk key, and
    numbers include NaN and +-inf."""
    if isinstance(default, dict):
        known = st.fixed_dictionaries({}, optional={k: like(v) for k, v in default.items()})
        junk = st.dictionaries(st.text(max_size=4), json_values, min_size=1, max_size=1)
        typed = mostly(known, st.builds(lambda d, j: {**j, **d}, known, junk))
    elif isinstance(default, list):
        typed = st.lists(st.floats() | st.integers(), max_size=8)
    elif isinstance(default, str):
        typed = st.sampled_from(["step", "sine", "none", "square"]) | st.text(max_size=4)
    elif isinstance(default, int):
        typed = st.integers() | st.just(default)
    else:
        typed = st.floats() | st.floats(-1e4, 1e4) | st.just(default)
    return mostly(typed, json_values)


CONFIG_DICTS = {cls: like(cls().to_dict()) for cls in (SimConfig, ModwaveConfig, RefsignalConfig)}


@pytest.mark.parametrize("cls", list(CONFIG_DICTS))
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_from_dict_accepts_or_raises_config_error_and_round_trips(cls, data):
    # only parse: a fuzzed config's run length is unbounded
    raw = data.draw(CONFIG_DICTS[cls])
    try:
        cfg = cls.from_dict(raw)
    except ConfigError:
        return
    written = cfg.to_dict()
    again = cls.from_dict(json.loads(json.dumps(written, allow_nan=False)))
    assert again == cfg
    assert again.to_dict() == written


def test_field_types_are_resolved_once_per_class(monkeypatch):
    # config._hints resolves a class's field types on its first use and keeps
    # them, so reading and writing configs, nested ones included, runs
    # typing.get_type_hints once per Config class however often they are read
    def subclasses(cls):
        return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]

    resolved = Counter()
    get_type_hints = typing.get_type_hints

    def counted(cls):
        resolved[cls] += 1
        return get_type_hints(cls)

    monkeypatch.setattr(typing, "get_type_hints", counted)
    config._hints.cache_clear()
    examples = [SimConfig(), ModwaveConfig(), RefsignalConfig(),
                HarmonicSeries(50.0, 0.0, [1.0], [0.0]), TrapezoidFit(0.5, 3.0, 1.0, 0.5)]
    for _ in range(2):
        for cfg in examples:
            written = cfg.to_dict()
            assert type(cfg).from_dict(written).to_dict() == written
    assert resolved == Counter(subclasses(Config))


@pytest.mark.parametrize("deg", [3.0, 6.0, 12.0, 24.0, 30.0, 48.0, 57.0, 96.0, 105.0, 114.0])
def test_degree_key_round_trips_to_the_same_radians(deg):
    # r0 = 0.1 keeps the spot narrower than the 3 and 6 degree sectors
    geometry = SpotGeometry.from_dict({"theta_gnd_deg": deg, "r0": 0.1})
    assert SpotGeometry.from_dict(geometry.to_dict()) == geometry


def test_error_names_the_field_path():
    with pytest.raises(ConfigError, match=r"SimConfig\.noise\.rate_or_freq must be a finite number, got inf"):
        SimConfig.from_dict({"noise": {"rate_or_freq": float("inf")}})
    with pytest.raises(ConfigError, match=r"RefsignalConfig\.geometry: spot radius"):
        RefsignalConfig.from_dict({"geometry": {"r0": 7.0}})


def test_size_limit_refuses_before_allocating():
    # from_dict only validates, so the refused sizes are never allocated
    dt = 2e-6
    limit = SimConfig.from_dict({"duration": MAX_ELEMENTS * dt})
    assert limit.n_samples == MAX_ELEMENTS
    with pytest.raises(ConfigError, match=r"SimConfig: duration/dt = 33554433 exceeds the size limit"):
        SimConfig.from_dict({"duration": (MAX_ELEMENTS + 1) * dt})
    with pytest.raises(ConfigError, match=r"SimConfig: duration/dt = 5000000000 exceeds"):
        SimConfig.from_dict({"duration": 10000.0})
    with pytest.raises(ConfigError, match=r"SimConfig: min\(duration/dt, 1/\(f_m\*dt\)\) \* harmonics"):
        SimConfig.from_dict({"modulation": {"amplitudes": [0.1] * (MAX_ELEMENTS // 200 + 1)}})
    # a 4 M-sample period passes both bounds above (8 M samples, a 28 M-entry
    # table), but the lock-in's slope estimate would stack two 4 x 4 Gram
    # matrices per phase, of 64 M entries each
    long_period = {"f_m": 0.25, "dt": 1e-6, "duration": 8.0, "signal_freq": 0.1}
    with pytest.raises(ConfigError, match=r"SimConfig: 16 \* min\(duration/dt, 1/\(f_m\*dt\)\) = 64000000 exceeds the size limit"):
        SimConfig.from_dict(long_period)
    spp = MAX_ELEMENTS // 14  # default modulation: 7 harmonics over 2 periods
    assert ModwaveConfig.from_dict({"samples_per_period": spp}).samples_per_period == spp
    with pytest.raises(ConfigError, match=r"ModwaveConfig: 2 \* samples_per_period \* harmonics"):
        ModwaveConfig.from_dict({"samples_per_period": spp + 1})
    assert RefsignalConfig.from_dict({"samples_per_period": MAX_ELEMENTS}).samples_per_period == MAX_ELEMENTS
    with pytest.raises(ConfigError, match=r"RefsignalConfig: samples_per_period = 33554433"):
        RefsignalConfig.from_dict({"samples_per_period": MAX_ELEMENTS + 1})


def test_size_limit_keeps_the_benchmarked_runs():
    assert SimConfig.from_dict({"duration": 3.0}).n_samples == 1_500_000
    assert SimConfig.from_dict({"duration": 60.0}).n_samples == 30_000_000


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_format_and_no_nonfinite_numbers(tmp_path, bad):
    write_json({"b": [1.5], "a": 1}, tmp_path / "ok.json")
    assert (tmp_path / "ok.json").read_text() == '{\n  "a": 1,\n  "b": [\n    1.5\n  ]\n}\n'
    # JSON has no token for these: refused before the file is opened
    with pytest.raises(ValueError):
        write_json({"x": [0.0, bad]}, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()
