"""Least-squares extraction of localization length, Gaussian width and
diffusion exponent from simulated curves.

All three fitters are ordinary least squares on a transformed axis
(semilog or log-log), so they recover their own model families exactly on
noiseless data and are invariant under positive rescaling of the input
up to the intercept.  Exact zeros (parity sites, unreached sites) and
entries at or below ``FLOOR`` are dropped before any semilog transform.
"""

from __future__ import annotations

import numpy as np

from .observables import ObservableSeries

FLOOR = 1e-9
#: Half-width of the flattened central cap that the wing fit skips.
EXCLUDE_RADIUS = 2.0
#: Fewest usable entries a semilog fit (or one wing) needs.
MIN_POINTS = 4
POWER_LAW_WINDOW = (20, 100)


class FitError(ValueError):
    """Raised when a fit is impossible or its model assumption fails."""


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -np.inf
    return 1.0 - ss_res / ss_tot


def fit_exponential_decay(marginal: np.ndarray, positions: np.ndarray) -> dict:
    """Fit exp(-|x| / xi) wings of a localized marginal, measured from x = 0, the start site.

    Each wing is fit separately as a line on (|x|, ln P) over the entries
    above ``FLOOR`` and outside the flattened central cap (|x| <
    EXCLUDE_RADIUS drops the central 3 sites); the localization length is
    the average of -1/slope over the two wings.  Raises FitError when a wing
    has fewer than ``MIN_POINTS`` usable entries or decays with a
    nonnegative slope.
    """
    marginal = np.asarray(marginal, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    params: dict[str, float] = {}
    slopes = []
    r2s = []
    used_lo, used_hi = np.inf, -np.inf
    for label, side in (("left", -1.0), ("right", 1.0)):
        rel = positions * side
        mask = (rel >= EXCLUDE_RADIUS) & (marginal > FLOOR)
        if int(mask.sum()) < MIN_POINTS:
            raise FitError(f"{label} wing has {int(mask.sum())} usable points, need {MIN_POINTS}")
        x = rel[mask]
        y = np.log(marginal[mask])
        slope, intercept = np.polyfit(x, y, 1)
        if slope >= 0.0:
            raise FitError(f"{label} wing does not decay (slope {slope:.4g} >= 0)")
        slopes.append(slope)
        r2s.append(_r_squared(y, slope * x + intercept))
        params[f"slope_{label}"] = float(slope)
        params[f"intercept_{label}"] = float(intercept)
        used_lo = min(used_lo, float(x.min()))
        used_hi = max(used_hi, float(x.max()))
    params["localization_length"] = float(np.mean([-1.0 / s for s in slopes]))
    return {"model": "exponential-wing", "params": params, "r_squared": float(np.mean(r2s)),
            "window": [used_lo, used_hi]}


def fit_gaussian_semilog(marginal: np.ndarray, positions: np.ndarray) -> dict:
    """Fit a parabola to (x, ln P) and report the Gaussian width.

    sigma = sqrt(-1 / (2 a)) with ``a`` the quadratic coefficient, which must
    come out negative.  Entries at or below ``FLOOR`` are dropped first.
    """
    marginal = np.asarray(marginal, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    mask = marginal > FLOOR
    if int(mask.sum()) < MIN_POINTS:
        raise FitError(f"only {int(mask.sum())} usable points, need {MIN_POINTS}")
    x = positions[mask]
    y = np.log(marginal[mask])
    a, b, c = np.polyfit(x, y, 2)
    if a >= 0.0:
        raise FitError(f"nonnegative curvature {a:.4g}, no Gaussian profile")
    pred = a * x * x + b * x + c
    return {
        "model": "semilog-parabola",
        "params": {
            "quadratic": float(a),
            "linear": float(b),
            "constant": float(c),
            "sigma": float(np.sqrt(-1.0 / (2.0 * a))),
            "peak_position": float(-b / (2.0 * a)),
        },
        "r_squared": _r_squared(y, pred),
        "window": [float(x.min()), float(x.max())],
    }


def fit_power_law(series: ObservableSeries) -> dict:
    """Fit mean(t) ~ prefactor * t^alpha on log-log axes over ``POWER_LAW_WINDOW``.

    Also reports the anomalous-diffusion dimension d = 2/alpha (1 ballistic,
    2 diffusive, larger subdiffusive).  All series means inside the window
    must be strictly positive.
    """
    lo, hi = POWER_LAW_WINDOW
    mask = (series.steps >= lo) & (series.steps <= hi) & (series.steps > 0)
    if int(mask.sum()) < 2:
        raise FitError(f"window {POWER_LAW_WINDOW} selects {int(mask.sum())} points, need 2")
    values = series.mean[mask]
    if np.any(values <= 0.0):
        raise FitError("series has nonpositive values inside the fit window")
    log_t = np.log(series.steps[mask].astype(np.float64))
    log_v = np.log(values)
    alpha, intercept = np.polyfit(log_t, log_v, 1)
    return {
        "model": "power-law",
        "params": {
            "exponent": float(alpha),
            "prefactor": float(np.exp(intercept)),
            "fractal_dimension": float(2.0 / alpha) if alpha != 0.0 else np.inf,
        },
        "r_squared": _r_squared(log_v, alpha * log_t + intercept),
        "window": [float(lo), float(hi)],
    }
