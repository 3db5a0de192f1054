"""Threshold estimation from accuracy observations and scaling-law fitting.

The threshold estimator scans (popularity, correct) observations from the
most popular down, tracking suffix accuracy with a fault-tolerance budget,
and returns the popularity at which accuracy stops clearing the target. The
fitters are ordinary least squares on log-transformed coordinates for the
three curve families that show up around phase transitions:

    exponential  T(r) = A * exp(B / r)      via  ln T = ln A + B * (1/r)
    power law    T(r) = C * r**(-D)         via  ln T = ln C - D * ln r
    log-log      y    = exp(b) * x**m       via  ln y = b + m * ln x

All regressions use natural logarithms so recovered parameters are
base-unambiguous. Confidence intervals are standard t-based OLS intervals;
inversion of a fitted log-log law propagates uncertainty with the delta
method. Fitters are unit-agnostic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AccuracyObservation",
    "FitResult",
    "estimate_threshold_popularity",
    "fit_exponential",
    "fit_power_law",
    "fit_loglog",
    "loglog_predict",
    "invert_size",
    "r_squared",
    "read_observations_csv",
    "read_points_csv",
    "DEFAULT_ACCURACY_TARGET",
    "DEFAULT_MAX_FAILURES",
]

# Defaults for the threshold-popularity scan.
DEFAULT_ACCURACY_TARGET = 0.6
DEFAULT_MAX_FAILURES = 5


@dataclass(frozen=True)
class AccuracyObservation:
    """One (popularity, correct) data point."""

    popularity: float
    correct: bool

    def __post_init__(self):
        if not self.popularity > 0.0:
            raise ValueError(f"popularity must be > 0, got {self.popularity}")


@dataclass(frozen=True)
class FitResult:
    """Parameters and uncertainty of one least-squares fit.

    params/stderr/ci95 are keyed by parameter name: logA and B for the
    exponential model, logC and D for the power law, slope and intercept for
    a plain log-log line. Internal regression state (kept private) lets
    loglog_predict and invert_size propagate uncertainty.
    """

    model: str
    params: dict[str, float]
    r_squared: float
    stderr: dict[str, float]
    ci95: dict[str, tuple[float, float]]
    n: int
    _slope: float = field(repr=False, default=0.0)
    _intercept: float = field(repr=False, default=0.0)
    _u_mean: float = field(repr=False, default=0.0)
    _suu: float = field(repr=False, default=0.0)
    _resid_var: float = field(repr=False, default=0.0)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "stderr": dict(self.stderr),
            "ci95": {k: list(v) for k, v in self.ci95.items()},
            "r2": self.r_squared,
            "n": self.n,
        }


def estimate_threshold_popularity(
    obs: Sequence[AccuracyObservation],
    accuracy_target: float = DEFAULT_ACCURACY_TARGET,
    max_failures: int = DEFAULT_MAX_FAILURES,
) -> float:
    """Popularity below which accuracy no longer clears the target.

    Observations are sorted by popularity ascending, then scanned group by
    group from the highest popularity down (tied popularities form a single
    group). After absorbing each group the running suffix accuracy is
    compared with the target; each shortfall spends one unit of the failure
    budget, and the popularity of the group that exhausts it is returned.
    If the budget survives the whole scan, the smallest popularity is
    returned. The result is always a member of the input popularity multiset.
    """
    if len(obs) == 0:
        raise ValueError("observations must be non-empty")
    if not 0.0 < accuracy_target < 1.0:
        raise ValueError(f"accuracy_target must be in (0, 1), got {accuracy_target}")
    if max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    x = [o.popularity for o in obs]
    y = [1 if o.correct else 0 for o in obs]
    index = sorted(range(len(x)), key=lambda i: x[i])
    sum_correct = 0
    failures = 0
    j = len(x) - 1
    while j >= 0:
        k = j
        while k >= 0 and x[index[k]] == x[index[j]]:
            k -= 1
        for l in range(k + 1, j + 1):
            sum_correct += y[index[l]]
        if sum_correct / (len(x) - k - 1) < accuracy_target:
            failures += 1
        if failures == max_failures:
            return x[index[j]]
        j = k
    return x[index[0]]


def _check_points(points, model: str) -> tuple[np.ndarray, np.ndarray]:
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError(f"{model} fit needs at least 3 points, got {len(pts)}")
    for i, pt in enumerate(pts):
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ValueError(f"{model} fit needs finite points; point {i} is {pt}")
    a = np.array([p[0] for p in pts])
    b = np.array([p[1] for p in pts])
    return a, b


def _t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t with dof degrees of freedom.

    scipy is imported here, not at module level, so that importing mixcap
    (and every command that never computes a t-interval) does not load it.
    """
    from scipy import stats

    return float(stats.t.ppf(0.975, dof))


def _fit_line(
    model: str, u: np.ndarray, v: np.ndarray, names: dict[str, str], slope_sign: float = 1.0
) -> FitResult:
    """Least squares v = intercept + slope * u with standard OLS uncertainty.

    names maps "intercept" and "slope" to the reported parameter names, in
    reporting order; the slope is reported times slope_sign (the power
    law's D = -slope). A constant response is fitted exactly with slope 0.
    """
    n = len(u)
    if np.all(v == v[0]):
        est = {"intercept": float(v[0]), "slope": 0.0}
        return FitResult(
            model=model,
            params={name: est[role] for role, name in names.items()},
            r_squared=1.0,
            stderr={name: 0.0 for name in names.values()},
            ci95={name: (est[role], est[role]) for role, name in names.items()},
            n=n,
            _intercept=est["intercept"],
        )
    u_mean = float(u.mean())
    v_mean = float(v.mean())
    du = u - u_mean
    suu = float(np.dot(du, du))
    if suu == 0.0:
        raise ValueError(f"{model} fit needs varying regressor values")
    slope = float(np.dot(du, v - v_mean) / suu)
    intercept = v_mean - slope * u_mean
    fitted = intercept + slope * u
    resid = v - fitted
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(v - v_mean, v - v_mean))
    dof = n - 2
    resid_var = ss_res / dof if dof > 0 else 0.0
    tq = _t_quantile_975(dof) if dof > 0 else 0.0
    est = {"intercept": intercept, "slope": slope_sign * slope}
    se = {
        "intercept": math.sqrt(resid_var * (1.0 / n + u_mean**2 / suu)),
        "slope": math.sqrt(resid_var / suu),
    }
    return FitResult(
        model=model,
        params={name: est[role] for role, name in names.items()},
        r_squared=1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot,
        stderr={name: se[role] for role, name in names.items()},
        ci95={
            name: (est[role] - tq * se[role], est[role] + tq * se[role])
            for role, name in names.items()
        },
        n=n,
        _slope=slope,
        _intercept=intercept,
        _u_mean=u_mean,
        _suu=suu,
        _resid_var=resid_var,
    )


def fit_exponential(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit T(r) = A * exp(B / r) by regressing ln T on 1/r.

    Returns params logA (natural log of A) and B. R-squared is computed on
    the transformed coordinates.
    """
    r, t = _check_points(points, "exponential")
    if np.any(t <= 0.0):
        raise ValueError("T values must be > 0")
    if np.any((r <= 0.0) | (r >= 1.0)):
        raise ValueError("r values must be in (0, 1)")
    return _fit_line("exponential", 1.0 / r, np.log(t), {"intercept": "logA", "slope": "B"})


def fit_power_law(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit T(r) = C * r**(-D) by regressing ln T on ln r.

    D is reported with the sign convention that D > 0 means T decreases
    as r grows; params are logC (natural log of C) and D.
    """
    r, t = _check_points(points, "power_law")
    if np.any(t <= 0.0):
        raise ValueError("T values must be > 0")
    if np.any((r <= 0.0) | (r >= 1.0)):
        raise ValueError("r values must be in (0, 1)")
    return _fit_line(
        "power_law", np.log(r), np.log(t), {"intercept": "logC", "slope": "D"}, -1.0
    )


def fit_loglog(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit ln y = intercept + slope * ln x with a 95% t-interval on the slope."""
    x, y = _check_points(points, "loglog")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("loglog fit needs strictly positive data")
    return _fit_line(
        "loglog", np.log(x), np.log(y), {"slope": "slope", "intercept": "intercept"}
    )


def loglog_predict(fit: FitResult, x: float) -> tuple[float, tuple[float, float]]:
    """Point prediction and 95% prediction interval for y at a new x."""
    if fit.model != "loglog":
        raise ValueError(f"prediction needs a loglog fit, got {fit.model}")
    if x <= 0.0:
        raise ValueError(f"x must be > 0, got {x}")
    lx = math.log(x)
    mean = fit._intercept + fit._slope * lx
    what = f"the prediction at x = {x!r}"
    if fit._suu == 0.0:
        (est,) = _exp_in_range(fit, what, mean)
        return est, (est, est)
    var = fit._resid_var * (
        1.0 + 1.0 / fit.n + (lx - fit._u_mean) ** 2 / fit._suu
    )
    tq = _t_quantile_975(fit.n - 2)
    half = tq * math.sqrt(var)
    est, lo, hi = _exp_in_range(fit, what, mean, mean - half, mean + half)
    return est, (lo, hi)


def invert_size(fit: FitResult, threshold_popularity: float) -> tuple[float, tuple[float, float]]:
    """Solve a fitted log-log law for x at a given y.

    ln x = (ln y - intercept) / slope; the 95% interval propagates the
    slope/intercept covariance through that expression with the delta method.
    """
    if fit.model != "loglog":
        raise ValueError(f"inversion needs a loglog fit, got {fit.model}")
    if threshold_popularity <= 0.0:
        raise ValueError(
            f"threshold_popularity must be > 0, got {threshold_popularity}"
        )
    m, b = fit._slope, fit._intercept
    if m == 0.0:
        raise ValueError("cannot invert a fit with zero slope")
    lx = (math.log(threshold_popularity) - b) / m
    what = f"the inverted size at y = {threshold_popularity!r}"
    if fit._suu == 0.0 or fit._resid_var == 0.0:
        (est,) = _exp_in_range(fit, what, lx)
        return est, (est, est)
    var_m = fit._resid_var / fit._suu
    var_b = fit._resid_var * (1.0 / fit.n + fit._u_mean**2 / fit._suu)
    cov_mb = -fit._resid_var * fit._u_mean / fit._suu
    # Gradient of (ln y - b)/m with respect to (m, b).
    gm = -lx / m
    gb = -1.0 / m
    var = gm * gm * var_m + gb * gb * var_b + 2.0 * gm * gb * cov_mb
    tq = _t_quantile_975(fit.n - 2)
    half = tq * math.sqrt(max(var, 0.0))
    est, lo, hi = _exp_in_range(fit, what, lx, lx - half, lx + half)
    return est, (lo, hi)


def _exp_in_range(fit: FitResult, what: str, *logs: float) -> list[float]:
    """math.exp of each log; a ValueError naming the fit if one overflows."""
    try:
        return [math.exp(v) for v in logs]
    except OverflowError:
        raise ValueError(
            f"{what} or its 95% interval leaves the float range under the "
            f"loglog fit with slope {fit._slope!r} and intercept {fit._intercept!r} "
            f"(exp({max(logs)!r}) overflows)"
        ) from None


def r_squared(observed: Sequence[float], fitted: Sequence[float]) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot.

    A perfect fit of constant data (both sums zero) returns 1; constant data
    with a non-matching fit returns 0.
    """
    if len(observed) != len(fitted):
        raise ValueError(
            f"length mismatch: {len(observed)} observed vs {len(fitted)} fitted"
        )
    if len(observed) < 2:
        raise ValueError("need at least 2 values")
    obs = np.asarray(observed, dtype=float)
    fit = np.asarray(fitted, dtype=float)
    ss_res = float(np.sum((obs - fit) ** 2))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _read_csv(path, columns: dict):
    """Yield one tuple per data row, from columns {name: (converter, what it expects)}.

    A cell its converter refuses raises a ValueError naming its line and column.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise ValueError(f"{path} needs a '{','.join(columns)}' header")
        for row in reader:
            cells = []
            for column, (convert, expected) in columns.items():
                try:
                    cells.append(convert(row[column]))
                except (TypeError, ValueError, KeyError):
                    raise ValueError(
                        f"{path} line {reader.line_num}, column '{column}': "
                        f"expected {expected}, got {row[column]!r}"
                    ) from None
            yield tuple(cells)


def read_observations_csv(path) -> list[AccuracyObservation]:
    """Read observations from a CSV with header ``popularity,correct``."""
    columns = {
        "popularity": (_finite, "a finite number"),
        "correct": (lambda text: {"0": False, "1": True}[(text or "").strip()], "0 or 1"),
    }
    return [AccuracyObservation(*cells) for cells in _read_csv(path, columns)]


def read_points_csv(path) -> list[tuple[float, float]]:
    """Read (x, y) points from a CSV with header ``x,y``."""
    number = (_finite, "a finite number")
    return list(_read_csv(path, {"x": number, "y": number}))
