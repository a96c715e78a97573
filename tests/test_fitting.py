import json

import numpy as np
import pytest

from dtqw.fitting import (
    FitError,
    fit_exponential_decay,
    fit_gaussian_semilog,
    fit_power_law,
)
from dtqw.observables import ObservableSeries


def exp_profile(xi, half_width=25):
    x = np.arange(-half_width, half_width + 1)
    p = np.exp(-np.abs(x) / xi)
    return p / p.sum(), x


def gauss_profile(sigma, half_width=30):
    x = np.arange(-half_width, half_width + 1)
    p = np.exp(-(x**2) / (2 * sigma**2))
    return p / p.sum(), x


def series(steps, values):
    steps = np.asarray(steps)
    values = np.asarray(values, dtype=float)
    return ObservableSeries(steps, values, np.zeros_like(values))


@pytest.mark.parametrize("xi", [3.0, 7.0])
def test_exponential_recovery_is_exact(xi):
    p, x = exp_profile(xi)
    fit = fit_exponential_decay(p, x)
    assert fit["params"]["localization_length"] == pytest.approx(xi, abs=0.01)
    assert fit["r_squared"] > 0.999
    assert fit["model"] == "exponential-wing"


def test_exponential_fit_ignores_parity_zeros():
    p, x = exp_profile(4.0)
    p = p.copy()
    p[x % 2 != 0] = 0.0  # knock out odd sites like an even-step walk
    p /= p.sum()
    fit = fit_exponential_decay(p, x)
    assert fit["params"]["localization_length"] == pytest.approx(4.0, abs=0.01)


def test_exponential_fit_window_excludes_center():
    p, x = exp_profile(3.0)
    fit = fit_exponential_decay(p, x)
    assert fit["window"][0] >= 2.0


def test_exponential_fit_requires_decay():
    x = np.arange(-10, 11)
    flat = np.full_like(x, 1.0 / x.size, dtype=float)
    with pytest.raises(FitError):
        fit_exponential_decay(flat, x)


def test_exponential_fit_requires_enough_points():
    x = np.arange(-3, 4)
    p = np.exp(-np.abs(x) / 2.0)
    with pytest.raises(FitError):
        fit_exponential_decay(p / p.sum(), x)


def test_exponential_fit_rescale_invariance():
    p, x = exp_profile(5.0)
    a = fit_exponential_decay(p, x)
    b = fit_exponential_decay(1000.0 * p, x)
    assert b["params"]["slope_left"] == pytest.approx(a["params"]["slope_left"], abs=1e-12)
    assert b["params"]["localization_length"] == pytest.approx(a["params"]["localization_length"], abs=1e-12)
    assert b["params"]["intercept_left"] != pytest.approx(a["params"]["intercept_left"])


def test_gaussian_recovery_is_exact():
    p, x = gauss_profile(5.0)
    fit = fit_gaussian_semilog(p, x)
    assert fit["params"]["sigma"] == pytest.approx(5.0, abs=0.05)
    assert fit["r_squared"] > 0.999
    assert fit["params"]["peak_position"] == pytest.approx(0.0, abs=1e-9)


def test_gaussian_fit_requires_negative_curvature():
    x = np.arange(-10, 11)
    p = np.exp(+(x / 10.0) ** 2)
    with pytest.raises(FitError):
        fit_gaussian_semilog(p / p.sum(), x)


def test_gaussian_fit_requires_enough_points():
    with pytest.raises(FitError):
        fit_gaussian_semilog(np.array([0.5, 0.5]), np.array([0, 1]))


def test_parabola_on_exponential_data_is_the_worse_model():
    p, x = exp_profile(3.0)
    wing = fit_exponential_decay(p, x)
    parabola = fit_gaussian_semilog(p, x)
    assert parabola["r_squared"] < wing["r_squared"]


def test_power_law_recovers_ballistic():
    t = np.arange(1, 101)
    fit = fit_power_law(series(t, 4.0 * t**2))
    assert fit["params"]["exponent"] == pytest.approx(2.0, abs=1e-3)
    assert fit["params"]["fractal_dimension"] == pytest.approx(1.0, abs=1e-3)
    assert fit["params"]["prefactor"] == pytest.approx(4.0, rel=1e-3)
    assert fit["r_squared"] > 0.999999


def test_power_law_recovers_diffusive():
    t = np.arange(1, 101)
    fit = fit_power_law(series(t, 3.0 * t))
    assert fit["params"]["exponent"] == pytest.approx(1.0, abs=1e-6)
    assert fit["params"]["fractal_dimension"] == pytest.approx(2.0, abs=1e-6)


def test_power_law_sqrt_transform_halves_exponent():
    t = np.arange(1, 101)
    values = 2.5 * t**1.6
    full = fit_power_law(series(t, values))
    rooted = fit_power_law(series(t, np.sqrt(values)))
    assert rooted["params"]["exponent"] == pytest.approx(0.5 * full["params"]["exponent"], abs=1e-9)


def test_power_law_rejects_nonpositive_values():
    t = np.arange(20, 120)  # the window [20, 100] starts at the negative values
    values = np.linspace(-1.0, 50.0, 100)
    with pytest.raises(FitError):
        fit_power_law(series(t, values))


def test_power_law_rejects_empty_window():
    t = np.arange(1, 10)
    with pytest.raises(FitError):
        fit_power_law(series(t, t.astype(float)))


def test_fit_result_serializes():
    # each fitter returns the document written to fits.json, keys in this order
    p, x = exp_profile(3.0)
    t = np.arange(1, 101)
    for doc in (fit_exponential_decay(p, x), fit_gaussian_semilog(*gauss_profile(5.0)),
                fit_power_law(series(t, 3.0 * t))):
        assert list(doc) == ["model", "params", "r_squared", "window"]
        assert isinstance(doc["window"], list) and len(doc["window"]) == 2
        assert json.loads(json.dumps(doc)) == doc
    assert doc["model"] == "power-law" and "localization_length" in fit_exponential_decay(p, x)["params"]
