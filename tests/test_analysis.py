"""Threshold-popularity estimation and the three scaling-law fitters."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mixcap.analysis import (
    AccuracyObservation,
    _t_quantile_975,
    estimate_threshold_popularity,
    fit_exponential,
    fit_loglog,
    fit_power_law,
    invert_size,
    loglog_predict,
)


def suffix_scan_oracle(xs, ys, target, max_failures):
    """Independent re-derivation of the threshold scan.

    Group observations by unique popularity; walk groups from the most to the
    least popular, tracking the accuracy over everything seen so far; each
    group whose running accuracy misses the target costs one failure, and the
    group that spends the last failure is the answer. Otherwise the smallest
    popularity wins.
    """
    groups = {}
    for x, y in zip(xs, ys):
        groups.setdefault(x, []).append(y)
    failures = 0
    seen = []
    for x in sorted(groups, reverse=True):
        seen.extend(groups[x])
        if sum(seen) / len(seen) < target:
            failures += 1
            if failures == max_failures:
                return x
    return min(xs)


def obs(xs, ys):
    return [AccuracyObservation(float(x), bool(y)) for x, y in zip(xs, ys)]


class TestEstimateThresholdPopularity:
    def test_all_correct_returns_smallest(self):
        assert estimate_threshold_popularity(obs([3, 1, 7], [1, 1, 1]), 0.6, 5) == 1.0

    def test_worked_example(self):
        assert (
            estimate_threshold_popularity(obs([1, 2, 3, 4, 5], [0, 0, 0, 1, 1]), 0.6, 1)
            == 2.0
        )

    def test_tied_group_consumed_at_once(self):
        assert estimate_threshold_popularity(obs([5, 5, 5], [1, 0, 0]), 0.6, 1) == 5.0

    def test_default_parameters(self):
        xs = list(range(1, 12))
        ys = [0] * 6 + [1] * 5
        got = estimate_threshold_popularity(obs(xs, ys))
        assert got == suffix_scan_oracle(xs, ys, 0.6, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            estimate_threshold_popularity([], 0.6, 5)

    @pytest.mark.parametrize("popularity", [math.inf, math.nan, 0.0, -1.0])
    def test_observation_needs_finite_positive_popularity(self, popularity):
        with pytest.raises(ValueError, match=f"^popularity must be finite and > 0, got {popularity}$"):
            AccuracyObservation(popularity, False)

    def test_validation(self):
        o = obs([1], [1])
        with pytest.raises(ValueError, match="accuracy_target"):
            estimate_threshold_popularity(o, 1.0, 5)
        with pytest.raises(ValueError, match="max_failures"):
            estimate_threshold_popularity(o, 0.5, 0)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(67)
        for trial in range(400):
            n = int(rng.integers(1, 60))
            if trial % 3 == 0:
                # Heavy ties: few distinct popularity values.
                xs = rng.integers(1, 6, size=n).astype(float).tolist()
            else:
                xs = rng.uniform(0.1, 100.0, size=n).tolist()
            ys = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int).tolist()
            target = float(rng.uniform(0.05, 0.95))
            max_failures = int(rng.integers(1, 8))
            got = estimate_threshold_popularity(obs(xs, ys), target, max_failures)
            assert got == suffix_scan_oracle(xs, ys, target, max_failures)
            assert got in xs

    def test_flipping_false_to_true_never_raises_threshold(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            xs = rng.integers(1, 10, size=n).astype(float).tolist()
            ys = (rng.uniform(size=n) < 0.5).astype(int).tolist()
            base = estimate_threshold_popularity(obs(xs, ys), 0.6, 2)
            zeros = [i for i, y in enumerate(ys) if y == 0]
            if not zeros:
                continue
            flip = int(rng.choice(zeros))
            ys2 = list(ys)
            ys2[flip] = 1
            improved = estimate_threshold_popularity(obs(xs, ys2), 0.6, 2)
            assert improved <= base


class TestFitExponential:
    def test_reference_round_trip(self):
        rs = [0.3 + 0.05 * i for i in range(11)]
        pts = [(r, math.exp(-0.25512 + 1.5137 / r)) for r in rs]
        fit = fit_exponential(pts)
        assert fit.params["logA"] == pytest.approx(-0.25512, abs=1e-9)
        assert fit.params["B"] == pytest.approx(1.5137, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_response(self):
        fit = fit_exponential([(0.3, 7.0), (0.4, 7.0), (0.5, 7.0)])
        assert fit.params["B"] == 0.0
        assert fit.params["logA"] == pytest.approx(math.log(7.0), abs=1e-12)
        assert fit.r_squared == 1.0

    def test_degenerate_design_rejected(self):
        with pytest.raises(ValueError, match="varying"):
            fit_exponential([(0.3, 1.0), (0.3, 2.0), (0.3, 3.0)])

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_exponential([(0.3, 1.0), (0.4, 2.0)])
        bad_y = r"column 'y' \(the threshold T\) > 0, got point \(0\.4, -2\.0\)"
        with pytest.raises(ValueError, match=bad_y):
            fit_exponential([(0.3, 1.0), (0.4, -2.0), (0.5, 3.0)])
        bad_x = r"column 'x' \(the mixing ratio r\) in \(0, 1\), got point \(1\.4, 2\.0\)"
        with pytest.raises(ValueError, match=bad_x):
            fit_exponential([(0.3, 1.0), (1.4, 2.0), (0.5, 3.0)])

    def test_order_invariance(self):
        pts = [(0.3, 5.0), (0.5, 3.0), (0.7, 2.5), (0.4, 4.0)]
        a = fit_exponential(pts)
        b = fit_exponential(list(reversed(pts)))
        assert a.params == pytest.approx(b.params)


class TestFitPowerLaw:
    def test_reference_round_trip(self):
        rs = [0.3, 0.4, 0.45, 0.5, 0.55]
        pts = [(r, 0.098158 * r ** (-3.83878)) for r in rs]
        fit = fit_power_law(pts)
        assert math.exp(fit.params["logC"]) == pytest.approx(0.098158, abs=1e-9)
        assert fit.params["D"] == pytest.approx(3.83878, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inverse_proportionality(self):
        pts = [(r, 3.0 / r) for r in (0.2, 0.3, 0.4, 0.6)]
        fit = fit_power_law(pts)
        assert fit.params["D"] == pytest.approx(1.0, abs=1e-12)


class TestFitLogLog:
    def test_exact_square_law(self):
        fit = fit_loglog([(x, x * x) for x in (1.0, 2.0, 3.0, 4.0)])
        assert fit.params["slope"] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        lo, hi = fit.ci95["slope"]
        assert lo == pytest.approx(2.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

    def test_ci_coverage(self):
        # 1% multiplicative noise around y = 7 x^(-1.283), n = 20 points.
        rng = np.random.default_rng(73)
        xs = np.geomspace(1.0, 1e3, 20)
        hits = 0
        trials = 1000
        for _ in range(trials):
            ys = 7.0 * xs ** (-1.283) * np.exp(rng.normal(0.0, 0.01, size=20))
            fit = fit_loglog(list(zip(xs, ys)))
            lo, hi = fit.ci95["slope"]
            hits += lo <= -1.283 <= hi
        assert hits / trials >= 0.93

    def test_slope_invariant_under_x_rescale(self):
        rng = np.random.default_rng(79)
        xs = np.geomspace(1.0, 100.0, 10)
        ys = 2.5 * xs**-1.7 * np.exp(rng.normal(0, 0.05, size=10))
        a = fit_loglog(list(zip(xs, ys)))
        b = fit_loglog(list(zip(xs * 37.0, ys)))
        assert a.params["slope"] == pytest.approx(b.params["slope"], rel=1e-9)

    def test_positive_data_required(self):
        message = "loglog fit needs column 'y' strictly positive, got point (2.0, -1.0)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            fit_loglog([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])

    def test_first_non_positive_x_is_named(self):
        message = "loglog fit needs column 'x' strictly positive, got point (0.0, 0.0)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            fit_loglog([(1.0, 1.0), (2.0, 4.0), (0.0, 0.0), (-1.0, 2.0)])

    @pytest.mark.parametrize("fitter", [fit_loglog, fit_exponential, fit_power_law])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, fitter, bad):
        for column, point in (("y", (0.5, bad)), ("x", (bad, 2.0))):
            message = f"needs column '{column}' finite, got point {point}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                fitter([(0.25, 4.0), point, (0.75, 1.0)])

    def test_prediction_interval_contains_point(self):
        rng = np.random.default_rng(83)
        xs = np.geomspace(1.0, 100.0, 15)
        ys = 4.0 * xs**0.7 * np.exp(rng.normal(0, 0.02, size=15))
        fit = fit_loglog(list(zip(xs, ys)))
        est, (lo, hi) = loglog_predict(fit, 12.0)
        assert lo < est < hi

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0])
    def test_x_must_be_finite_and_positive(self, x):
        fit = fit_loglog([(1.0, 2.0), (2.0, 8.0), (4.0, 30.0)])
        with pytest.raises(ValueError, match=f"^x must be finite and > 0, got {x}$"):
            loglog_predict(fit, x)

    def test_json_fields(self):
        fit = fit_loglog([(x, x * x) for x in (1.0, 2.0, 3.0)])
        doc = fit.to_dict()
        assert set(doc) == {"model", "params", "stderr", "ci95", "r2", "n"}
        assert doc["n"] == 3


class TestInvertSize:
    def test_exact_inverse(self):
        fit = fit_loglog([(x, 1.0 / x) for x in (1.0, 2.0, 5.0, 10.0)])
        est, _ = invert_size(fit, 0.01)
        assert est == pytest.approx(100.0, rel=1e-9)

    def test_round_trip(self):
        xs = (2.0, 4.0, 8.0, 16.0)
        fit = fit_loglog([(x, 5.0 * x**-2.2) for x in xs])
        y_at_8 = 5.0 * 8.0**-2.2
        est, _ = invert_size(fit, y_at_8)
        assert est == pytest.approx(8.0, rel=1e-9)

    def test_zero_slope_rejected(self):
        fit = fit_loglog([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
        with pytest.raises(ValueError, match="zero slope"):
            invert_size(fit, 1.0)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, 0.0])
    def test_threshold_popularity_must_be_finite_and_positive(self, y):
        fit = fit_loglog([(x, 1.0 / x) for x in (1.0, 2.0, 5.0, 10.0)])
        with pytest.raises(
            ValueError, match=f"^threshold_popularity must be finite and > 0, got {y}$"
        ):
            invert_size(fit, y)

    def test_interval_brackets_estimate_under_noise(self):
        rng = np.random.default_rng(89)
        xs = np.geomspace(1.0, 1e3, 12)
        ys = 100.0 * xs**-1.1 * np.exp(rng.normal(0, 0.05, size=12))
        fit = fit_loglog(list(zip(xs, ys)))
        est, (lo, hi) = invert_size(fit, 1.0)
        assert lo < est < hi


class TestFloatRange:
    # A near-flat fit: inverting it at y = 3 needs e**4017.
    FLAT = [(1.0, 2.0), (2.0, 2.1), (4.0, 1.9), (8.0, 2.05)]

    def test_invert_size_names_the_fit(self):
        fit = fit_loglog(self.FLAT)
        with pytest.raises(ValueError) as err:
            invert_size(fit, 3.0)
        message = str(err.value)
        assert "inverted size at y = 3.0" in message
        assert "leaves the float range" in message
        assert f"slope {fit.params['slope']!r}" in message
        assert f"intercept {fit.params['intercept']!r}" in message

    def test_loglog_predict_names_the_fit(self):
        fit = fit_loglog([(1.0, 1.0), (2.0, 10.0), (4.0, 100.0), (8.0, 1000.0)])
        with pytest.raises(ValueError, match=r"prediction at x = 1e\+300 .*float range"):
            loglog_predict(fit, 1e300)

    def test_values_in_range_are_unchanged(self):
        fit = fit_loglog(self.FLAT)
        est, (lo, hi) = loglog_predict(fit, 1e300)
        assert 0.0 < lo < est < hi < math.inf
        est, (lo, hi) = invert_size(fit, 2.0)
        assert 0.0 < lo <= est <= hi < math.inf


# P, the binary double 0.975, as an exact rational.
_P = Fraction(0.975)


def _cdf_exceeds_p_even(dof: int, t: Fraction) -> bool:
    """Whether F(t) > P exactly, for Student's t with even dof, at t > 0.

    For even dof, 2F(t) - 1 = sqrt(1 - c) * S(c) with c = dof / (dof + t**2) and
    S(c) = sum over k < dof/2 of ((2k-1)!!/(2k)!!) c**k (Abramowitz and Stegun
    26.7.3), so F(t) > P exactly when (1 - c) * S(c)**2 > (2P - 1)**2. With
    t**2 = A/B, c = X/Y for X = dof*B and Y = X + A, and (2k-1)!!/(2k)!! =
    C(2k, k) / 4**k, S(c) * (4Y)**(n-1) is the integer
    T = sum over k < n of C(2k, k) * X**k * (4Y)**(n-1-k), n = dof/2; the test is
    then A * T**2 * v**2 > u**2 * Y * (4Y)**(2n-2) for 2P - 1 = u/v.
    """
    assert dof % 2 == 0 and t > 0
    a, b = (t * t).as_integer_ratio()
    x, y = dof * b, dof * b + a
    n, four_y = dof // 2, 4 * y
    total, binom, x_k = 1, 1, 1  # Horner in 4Y: total = sum of C(2k, k) X**k (4Y)**(j-k)
    for k in range(1, n):
        binom = binom * 2 * (2 * k - 1) // k
        x_k *= x
        total = total * four_y + binom * x_k
    u, v = (2 * _P - 1).as_integer_ratio()
    return a * total**2 * v**2 > u**2 * y * four_y ** (2 * n - 2)


def _mpmath_cdf_exceeds_p(dof: int, t: Fraction) -> bool:
    """Whether F(t) > P for Student's t at t > 0, at 50 digits with mpmath."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t.numerator) / t.denominator
        y = t * t / (dof + t * t)
        excess = mpmath.betainc(0.5, mpmath.mpf(dof) / 2, 0, y, regularized=True) / 2 - (
            mpmath.mpf(0.975) - 0.5)
        assert abs(excess) > mpmath.mpf(10) ** -40, (dof, t)
        return excess > 0


def _half_ulp_neighbours(x: float) -> tuple[Fraction, Fraction]:
    """The exact midpoints between x and the floats below and above it."""
    return tuple((Fraction(x) + Fraction(math.nextafter(x, to))) / 2 for to in (0.0, math.inf))


class TestTQuantile:
    """_t_quantile_975 is the correctly rounded 0.975 quantile at the binary 0.975."""

    def test_even_dof_is_correctly_rounded(self):
        # The two half-ulp neighbours of the result bracket P exactly: every
        # even dof to 200, both sides of the table's end at 764, and 2000.
        for dof in [*range(2, 201, 2), 764, 766, 2000]:
            below, above = _half_ulp_neighbours(_t_quantile_975(dof))
            assert not _cdf_exceeds_p_even(dof, below), dof
            assert _cdf_exceeds_p_even(dof, above), dof

    def test_exact_oracle_agrees_with_mpmath(self):
        for dof in (2, 4, 10, 100):
            for t in map(Fraction, (0.5, 1.9, 2.1, 4.3, 4.4)):
                assert _cdf_exceeds_p_even(dof, t) == _mpmath_cdf_exceeds_p(dof, t), (dof, t)

    def test_matches_mpmath_at_every_dof_to_2000(self):
        # Every dof of the table (it ends at 764) and of the series past it
        # to 2000, and a few large ones.
        for dof in [*range(1, 2001), 10**4 + 1, 10**6 + 1, 10**9 + 1]:
            below, above = _half_ulp_neighbours(_t_quantile_975(dof))
            assert not _mpmath_cdf_exceeds_p(dof, below), dof
            assert _mpmath_cdf_exceeds_p(dof, above), dof

    def test_known_values(self):
        # Correctly rounded: scipy 1.17.1's stdtrit(6, 0.975) is 21 ulps above.
        assert _t_quantile_975(1) == 12.706204736174694
        assert _t_quantile_975(6) == 2.4469118511449692
        assert 1.959963984540054 < _t_quantile_975(10**12) < _t_quantile_975(10**6)

    def test_decreases_across_the_end_of_the_table(self):
        values = [_t_quantile_975(dof) for dof in range(1, 2001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dof", [0, -1])
    def test_refuses_dof_below_one(self, dof):
        with pytest.raises(ValueError, match="dof must be >= 1"):
            _t_quantile_975(dof)
