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
Fits run on Python floats, as all of mixcap but its fact and record columns
does, so no SIMD dispatch reaches them: logarithms go through math.log, sums
and means through math.fsum and the t-quantile through scipy.special.stdtrit.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

__all__ = [
    "AccuracyObservation",
    "FitResult",
    "estimate_threshold_popularity",
    "fit_exponential",
    "fit_power_law",
    "fit_loglog",
    "loglog_predict",
    "invert_size",
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
        if not (math.isfinite(self.popularity) and self.popularity > 0.0):
            raise ValueError(f"popularity must be finite and > 0, got {self.popularity}")


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

    Observations are stably sorted by popularity, then scanned in reverse,
    group by group from the highest popularity down (tied popularities form
    a single group). After absorbing each group the running suffix accuracy
    is compared with the target; each shortfall spends one unit of the
    failure budget, and the popularity of the group that exhausts it is
    returned. If the budget survives the whole scan, the smallest popularity
    is returned. The result is always a member of the input popularity multiset.
    """
    if len(obs) == 0:
        raise ValueError("observations must be non-empty")
    if not 0.0 < accuracy_target < 1.0:
        raise ValueError(f"accuracy_target must be in (0, 1), got {accuracy_target}")
    if max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    popularity_of = attrgetter("popularity")
    ranked = sorted(obs, key=popularity_of)
    seen = correct = failures = 0
    for popularity, group in itertools.groupby(reversed(ranked), key=popularity_of):
        for o in group:
            seen, correct = seen + 1, correct + bool(o.correct)
        if correct / seen < accuracy_target:
            failures += 1
            if failures == max_failures:
                return popularity
    return ranked[0].popularity


# What a fit needs of its (x, y) columns: one (test, description) per column.
_FINITE = ((math.isfinite, "finite"),) * 2
_POSITIVE = ((lambda v: v > 0.0, "strictly positive"),) * 2
# A threshold-versus-ratio fit: x is the mixing ratio r in (0, 1), y is T > 0.
_RATIO = (
    (lambda r: 0.0 < r < 1.0, "(the mixing ratio r) in (0, 1)"),
    (lambda t: t > 0.0, "(the threshold T) > 0"),
)


def _check_points(points, model: str, needs) -> tuple[list[float], list[float]]:
    """The x and y columns of at least 3 finite points that meet needs.

    The first point that fails a check is named by its values, with the
    column that fails; every point is checked finite before needs.
    """
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError(f"{model} fit needs at least 3 points, got {len(pts)}")
    for checks in (_FINITE, needs):
        for pt in pts:
            for column, value, (ok, what) in zip("xy", pt, checks):
                if not ok(value):
                    raise ValueError(f"{model} fit needs column {column!r} {what}, "
                                     f"got point {pt}")
    return [a for a, _ in pts], [b for _, b in pts]


def _t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t with dof degrees of freedom.

    stdtrit, which scipy.stats.t.ppf calls, is imported here: only a t-interval
    loads scipy, and it loads scipy.special without scipy.stats.
    """
    from scipy.special import stdtrit

    return float(stdtrit(dof, 0.975))


def _fit_line(
    model: str, u: list[float], v: list[float], names: dict[str, str], slope_sign: float = 1.0
) -> FitResult:
    """Least squares v = intercept + slope * u with standard OLS uncertainty.

    names maps "intercept" and "slope" to the reported parameter names, in
    reporting order; the slope is reported times slope_sign (the power
    law's D = -slope). A constant response is fitted exactly with slope 0.
    """
    n = len(u)
    if all(y == v[0] for y in v):
        est = {"intercept": v[0], "slope": 0.0}
        return FitResult(
            model=model,
            params={name: est[role] for role, name in names.items()},
            r_squared=1.0,
            stderr={name: 0.0 for name in names.values()},
            ci95={name: (est[role], est[role]) for role, name in names.items()},
            n=n,
        )
    u_mean = math.fsum(u) / n
    v_mean = math.fsum(v) / n
    du = [x - u_mean for x in u]
    dv = [y - v_mean for y in v]
    suu = math.fsum(d * d for d in du)
    if suu == 0.0:
        raise ValueError(f"{model} fit needs varying regressor values")
    slope = math.fsum(a * b for a, b in zip(du, dv)) / suu
    intercept = v_mean - slope * u_mean
    resid = [y - (intercept + slope * x) for x, y in zip(u, v)]
    ss_res = math.fsum(e * e for e in resid)
    ss_tot = math.fsum(d * d for d in dv)
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
        _u_mean=u_mean,
        _suu=suu,
        _resid_var=resid_var,
    )


def fit_exponential(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit T(r) = A * exp(B / r) by regressing ln T on 1/r.

    Returns params logA (natural log of A) and B. R-squared is computed on
    the transformed coordinates.
    """
    r, t = _check_points(points, "exponential", _RATIO)
    u, v = [1.0 / x for x in r], [*map(math.log, t)]
    return _fit_line("exponential", u, v, {"intercept": "logA", "slope": "B"})


def fit_power_law(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit T(r) = C * r**(-D) by regressing ln T on ln r.

    D is reported with the sign convention that D > 0 means T decreases
    as r grows; params are logC (natural log of C) and D.
    """
    r, t = _check_points(points, "power_law", _RATIO)
    u, v = [*map(math.log, r)], [*map(math.log, t)]
    return _fit_line("power_law", u, v, {"intercept": "logC", "slope": "D"}, -1.0)


def fit_loglog(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit ln y = intercept + slope * ln x with a 95% t-interval on the slope."""
    x, y = _check_points(points, "loglog", _POSITIVE)
    u, v = [*map(math.log, x)], [*map(math.log, y)]
    return _fit_line("loglog", u, v, {"slope": "slope", "intercept": "intercept"})


def loglog_predict(fit: FitResult, x: float) -> tuple[float, tuple[float, float]]:
    """Point prediction and 95% prediction interval for y at a new x."""
    if fit.model != "loglog":
        raise ValueError(f"prediction needs a loglog fit, got {fit.model}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be finite and > 0, got {x}")
    lx = math.log(x)
    mean = fit.params["intercept"] + fit.params["slope"] * lx
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
    if not (math.isfinite(threshold_popularity) and threshold_popularity > 0.0):
        raise ValueError(
            f"threshold_popularity must be finite and > 0, got {threshold_popularity}"
        )
    m, b = fit.params["slope"], fit.params["intercept"]
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
            f"{what} or its 95% interval leaves the float range under the loglog fit "
            f"with slope {fit.params['slope']!r} and intercept {fit.params['intercept']!r} "
            f"(exp({max(logs)!r}) overflows)"
        ) from None


def _finite(text, positive: bool = False) -> float:
    value = float(text)
    if not math.isfinite(value) or (positive and value <= 0.0):
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
        "popularity": (lambda text: _finite(text, positive=True), "a finite number > 0"),
        "correct": (lambda text: {"0": False, "1": True}[(text or "").strip()], "0 or 1"),
    }
    return [AccuracyObservation(*cells) for cells in _read_csv(path, columns)]


def read_points_csv(path) -> list[tuple[float, float]]:
    """Read (x, y) points from a CSV with header ``x,y``."""
    number = (_finite, "a finite number")
    return list(_read_csv(path, {"x": number, "y": number}))
