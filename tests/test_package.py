import rotolock
import rotolock.lockin


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
