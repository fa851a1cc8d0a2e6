import math

import numpy as np
import pytest

from rotolock.errors import PreconditionError
from rotolock.modulation import (
    DEFAULT_AMPLITUDES,
    DEFAULT_OFFSET,
    DEFAULT_PHASE,
    ModulationFit,
    modulation_series,
)
from rotolock.signals import TimeGrid, synth

from oracles import eval_modulation


def oracle_eval(fit, alpha):
    """Term-by-term scalar evaluation, independent of the vectorized path."""
    return fit.offset + sum(
        a * math.cos(i * alpha + fit.phase) for i, a in enumerate(fit.amplitudes, start=1)
    )


class TestModulationFit:
    def test_default_fit_values(self):
        fit = ModulationFit()
        assert tuple(fit.amplitudes) == DEFAULT_AMPLITUDES
        assert fit.phase == DEFAULT_PHASE == -2.4e-5
        assert fit.offset == DEFAULT_OFFSET == 0.471
        assert fit.n_harmonics == 7

    def test_dict_round_trip(self):
        fit = ModulationFit(amplitudes=[0.5, -0.25], phase=0.3, offset=1.0)
        assert ModulationFit.from_dict(fit.to_dict()) == fit

    def test_non_finite_rejected(self):
        for fields in ({"amplitudes": [np.inf]}, {"phase": np.nan}, {"offset": -np.inf}):
            with pytest.raises(PreconditionError, match="must be (a non-empty )?finite"):
                ModulationFit(**fields)


class TestEvalModulation:
    def test_value_at_zero_angle(self):
        fit = ModulationFit()
        assert eval_modulation(fit, 0.0) == pytest.approx(oracle_eval(fit, 0.0), abs=1e-15)
        assert eval_modulation(fit, 0.0) == pytest.approx(0.9999, abs=2e-4)

    def test_value_at_pi(self):
        fit = ModulationFit()
        assert eval_modulation(fit, math.pi) == pytest.approx(oracle_eval(fit, math.pi), abs=1e-15)
        assert eval_modulation(fit, math.pi) == pytest.approx(0.2017, abs=2e-4)

    @pytest.mark.parametrize("alpha", [-4.0, 0.0, 0.7, 2.0, 3.14])
    def test_two_pi_periodic(self, alpha):
        fit = ModulationFit()
        assert eval_modulation(fit, alpha + 2 * math.pi) == pytest.approx(
            eval_modulation(fit, alpha), abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        fit = ModulationFit()
        alphas = np.linspace(-np.pi, np.pi, 37)
        out = eval_modulation(fit, alphas)
        for a, v in zip(alphas, out):
            assert v == pytest.approx(oracle_eval(fit, a), abs=1e-14)

    def test_maximum_sits_at_zero_angle(self):
        fit = ModulationFit()
        alphas = np.linspace(-np.pi, np.pi, 200001)
        values = eval_modulation(fit, alphas)
        peak_alpha = alphas[np.argmax(values)]
        assert abs(peak_alpha) < 1e-3
        assert eval_modulation(fit, 0.0) >= np.max(values) - 1e-8

    def test_second_harmonic_is_prominent(self):
        # the waveform is far from a pure sinusoid
        fit = ModulationFit()
        assert abs(fit.amplitudes[1]) / abs(fit.amplitudes[0]) == pytest.approx(0.322, abs=2e-3)
        assert abs(fit.amplitudes[1]) / abs(fit.amplitudes[0]) > 0.25


class TestModulationSeries:
    def test_stock_coefficients_carry_over(self):
        series = modulation_series(ModulationFit(), 2500.0)
        assert series.f_fund == 2500.0
        assert series.dc == 0.471
        # phase is ~0 so cosine coefficients are essentially the amplitudes
        assert series.cos_coeffs[0] == pytest.approx(0.366, abs=1e-9)

    def test_quarter_turn_phase_moves_fundamental_to_sine(self):
        series = modulation_series(
            ModulationFit(amplitudes=[1.0], phase=math.pi / 2.0, offset=0.0), 100.0
        )
        assert series.cos_coeffs[0] == pytest.approx(0.0, abs=1e-15)
        assert series.sin_coeffs[0] == pytest.approx(-1.0, abs=1e-15)

    def test_time_synthesis_matches_angle_evaluation(self):
        fit = ModulationFit()
        f_m = 2500.0
        grid = TimeGrid(dt=2e-6, n=400, t0=0.0)
        wave = synth(modulation_series(fit, f_m), grid)
        alpha = 2.0 * np.pi * f_m * grid.times()
        assert np.max(np.abs(wave.values - eval_modulation(fit, alpha))) < 1e-12

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(PreconditionError):
            modulation_series(ModulationFit(), 0.0)
