"""Loss curves, marginals, m0 maps, and the knowledge frontier."""

import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import mixcap.universe as universe

from helpers import (
    frontier_grid_oracle,
    frontier_vertex_oracle,
    make_hetero_knowledge,
    make_power_law,
    make_tabulated,
    make_uniform_knowledge,
)
from mixcap.allocator import optimal_allocation
from mixcap.simulator import SweepConfig, sweep
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    eval_web_loss,
    knowledge_frontier,
    m0_minus,
    mixture_from_dict,
    mixture_to_dict,
    warmup_loss,
    web_marginal,
)


class TestTypes:
    def test_frequency_mass_bound(self):
        with pytest.raises(ValueError, match="sum"):
            KnowledgeUniverse([0.7, 0.7], [1.0, 1.0])

    def test_power_law_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            PowerLawCurve(floor=1.0, amplitude=1.0, exponent=1.0)
        with pytest.raises(ValueError, match="amplitude"):
            PowerLawCurve(floor=1.0, amplitude=0.0, exponent=0.5)
        with pytest.raises(ValueError, match="floor"):
            PowerLawCurve(floor=-0.1, amplitude=1.0, exponent=0.5)

    def test_tabulated_rejects_nonconvex(self):
        # Slopes -0.1 then -0.3 steepen with capacity: not convex.
        with pytest.raises(ValueError, match="convex"):
            TabulatedCurve(points=((0, 10), (10, 9), (30, 3)))

    def test_tabulated_rejects_increasing_loss(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TabulatedCurve(points=((0, 10), (10, 11)))

    def test_tabulated_needs_zero_start(self):
        with pytest.raises(ValueError, match="first capacity"):
            TabulatedCurve(points=((1, 10), (10, 5)))

    def test_tabulated_needs_two_points(self):
        with pytest.raises(ValueError, match="2 points"):
            TabulatedCurve(points=((0, 10),))

    def test_tabulated_rejects_negative_loss(self):
        with pytest.raises(ValueError, match=">= 0"):
            TabulatedCurve(points=((0, 10), (10, -1)))

    @pytest.mark.parametrize("points", [((0, 1e10), (1e-300, 0), (1, 0)),
                                        ((0, 1e300), (1e-300, 0), (1, 0))])
    def test_tabulated_rejects_a_slope_that_overflows(self, points):
        with pytest.raises(ValueError, match=r"segment from \(0\.0, .*\) to \(1e-300, 0\.0\) "
                                             "overflows"):
            TabulatedCurve(points=points)

    def test_mixing_ratio_range(self):
        ku = KnowledgeUniverse([0.1], [1.0])
        web = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        with pytest.raises(ValueError, match="mixing_ratio"):
            MixtureUniverse(knowledge=ku, web=web, mixing_ratio=1.0)


class TestColumnarUniverse:
    def _columns(self, k=40, seed=3):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 1.0, size=k)
        return p / p.sum() * 0.9, rng.uniform(0.1, 10.0, size=k)

    def test_equality_compares_columns(self):
        p, h = self._columns()
        ku = KnowledgeUniverse(p, h, 1.25)
        same = KnowledgeUniverse(p.tolist(), h.tolist(), irreducible_loss=1.25)
        assert ku == same and hash(ku) == hash(same)
        assert np.array_equal(ku.p, p) and np.array_equal(ku.h, h)
        assert ku.h_tot == math.fsum(h.tolist())
        assert ku != KnowledgeUniverse(p, h, 1.0)
        assert ku != KnowledgeUniverse(p[::-1], h[::-1], 1.25)

    def test_columns_are_read_only_and_not_copied(self):
        p, h = self._columns()
        ku = KnowledgeUniverse(p, h)
        assert ku.p.dtype == np.float64 and ku.h.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            ku.p[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            ku.h[0] = 1.0
        with pytest.raises(AttributeError):
            ku.p = p
        with pytest.raises(AttributeError):
            ku.irreducible_loss = 2.0
        # The universe holds its own copy of the caller's arrays.
        p[0] = 0.5
        assert ku.p[0] != 0.5

    def test_pickle_round_trip_stays_read_only(self):
        p, h = self._columns()
        ku = KnowledgeUniverse(p, h, 0.5)
        knowledge_frontier(ku, 1.0)
        back = pickle.loads(pickle.dumps(ku))
        assert back == ku
        assert not back.p.flags.writeable and not back.h.flags.writeable

    @pytest.mark.parametrize(
        "p, h, c1, message",
        [
            (0.0, 1.0, 0.0, "exposure_frequency must be in (0, 1], got 0.0"),
            (1.5, 1.0, 0.0, "exposure_frequency must be in (0, 1], got 1.5"),
            (math.nan, 1.0, 0.0, "exposure_frequency must be in (0, 1], got nan"),
            (0.5, -1.0, 0.0, "target_entropy must be finite and >= 0, got -1.0"),
            (0.5, math.inf, 0.0, "target_entropy must be finite and >= 0, got inf"),
            (0.5, math.nan, 0.0, "target_entropy must be finite and >= 0, got nan"),
            (0.5, 1.0, -1.0, "irreducible_loss must be finite and >= 0, got -1.0"),
            (0.5, 1.0, math.nan, "irreducible_loss must be finite and >= 0, got nan"),
            (0.5, 1.0, math.inf, "irreducible_loss must be finite and >= 0, got inf"),
        ],
    )
    def test_invalid_values_give_exact_messages(self, p, h, c1, message):
        with pytest.raises(ValueError) as columns:
            KnowledgeUniverse([0.1, p], [1.0, h], c1)
        assert str(columns.value) == message

    @pytest.mark.parametrize("h", [[1e308, 1e308], [1.7e308, 1.7e308, 1.0]])
    def test_entropy_total_beyond_float_range_names_target_entropy(self, h):
        with pytest.raises(ValueError) as columns:
            KnowledgeUniverse([0.1] * len(h), h)
        assert str(columns.value) == "target_entropy values must sum to a finite total"
        doc = {"knowledge": {"facts": [{"p": 0.1, "h": v} for v in h]},
               "web": {"power_law": {"c": 1.0, "a": 2.0, "alpha": 0.3}}, "r": 0.1}
        with pytest.raises(ValueError, match="target_entropy values must sum to a finite total"):
            mixture_from_dict(doc)

    def test_mass_bound_and_shapes(self):
        with pytest.raises(ValueError, match="sum"):
            KnowledgeUniverse([0.7, 0.7], [1.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            KnowledgeUniverse([0.1, 0.2], [1.0])

    def test_frontier_sorted_once_across_sweeps(self, monkeypatch):
        built = []

        class CountingFrontier(universe._FrontierCurve):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(universe, "_FrontierCurve", CountingFrontier)
        p, h = self._columns(k=500)
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        sizes = tuple(np.geomspace(1.0, 5.0 * float(h.sum()), 200).tolist())
        sweep(SweepConfig(mixture=mix, sweep_axis="model_size", grid=sizes))
        ratios = tuple(np.geomspace(1e-3, 0.9, 50).tolist())
        sweep(
            SweepConfig(
                mixture=mix, sweep_axis="mixing_ratio", grid=ratios, total_capacity=sizes[100]
            )
        )
        knowledge_frontier(mix.knowledge, 1.0)
        assert len(built) == 1

    @staticmethod
    def _count_p_reads(monkeypatch, knowledge):
        """The values that solves read off knowledge's sorted p, in read order.

        A solve reads p at each bisection probe and at its boundary fact,
        where it evaluates m0, and at most once more in loss_at. The case
        check's read of the least frequent fact (index -1) is left out.
        """
        frontier, reads = knowledge._frontier, []
        view = frontier.p_view

        class CountingView:
            def __getitem__(self, k):
                if k != -1:
                    reads.append(view[k])
                return view[k]

        monkeypatch.setattr(frontier, "p_view", CountingView())
        return reads

    def test_mixing_ratio_sweep_probes_m0_logarithmically(self, monkeypatch):
        p, h = self._columns(k=100_000)
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        calls = self._count_p_reads(monkeypatch, mix.knowledge)
        ratios = tuple(np.geomspace(1e-3, 0.9, 20).tolist())
        capacity = 0.5 * float(h.sum())
        budget = 2 * math.ceil(math.log2(p.size)) + 2
        for r in ratios:
            calls.clear()
            sweep(SweepConfig(mixture=mix, sweep_axis="mixing_ratio", grid=(r,),
                              total_capacity=capacity))
            assert 0 < len(calls) <= budget
            assert all(type(t) is float for t in calls)

    @pytest.mark.parametrize("axis", ["model_size", "mixing_ratio"])
    def test_grid_sweep_probes_m0_within_half_the_independent_budget(self, monkeypatch, axis):
        p, h = self._columns(k=100_000)
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        calls = self._count_p_reads(monkeypatch, mix.knowledge)
        if axis == "model_size":
            grid = tuple(np.geomspace(1.0, 5.0 * float(h.sum()), 200).tolist())
            config = SweepConfig(mixture=mix, sweep_axis=axis, grid=grid)
        else:
            grid = tuple(np.geomspace(1e-3, 0.9, 200).tolist())
            config = SweepConfig(mixture=mix, sweep_axis=axis, grid=grid,
                                 total_capacity=0.5 * float(h.sum()))
        rows = sweep(config)
        # Solved apart, each point costs up to ceil(log2 K) + 1 m0 calls.
        assert 0 < len(calls) <= len(grid) * (math.ceil(math.log2(p.size)) + 1) // 2
        assert any(0.0 < row.accuracy < 1.0 for row in rows)

    def test_solved_mixture_holds_and_pickles_no_fact_length_array(self):
        p, h = self._columns()
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        fresh = pickle.dumps(mix)
        sizes = tuple(np.geomspace(1.0, 5.0 * float(h.sum()), 20).tolist())
        sweep(SweepConfig(mixture=mix, sweep_axis="model_size", grid=sizes))
        assert not any(isinstance(v, np.ndarray) for v in vars(mix).values())
        assert pickle.dumps(mix) == fresh
        # The universe's own p and h are the only fact-length columns pickled.
        assert len(fresh) < len(pickle.dumps(mix.knowledge)) + 1000
        back = pickle.loads(fresh)
        assert back == mix and hash(back) == hash(mix)


class TestEvalWebLoss:
    def test_power_law_point(self):
        curve = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        assert eval_web_loss(curve, 100.0) == pytest.approx(11.0, abs=1e-12)

    def test_power_law_limit_is_floor(self):
        curve = PowerLawCurve(floor=2.0, amplitude=5.0, exponent=0.3)
        assert eval_web_loss(curve, 1e18) == pytest.approx(2.0, abs=1e-4)

    def test_power_law_zero_is_inf_sentinel(self):
        curve = PowerLawCurve(floor=2.0, amplitude=5.0, exponent=0.3)
        assert eval_web_loss(curve, 0.0) == math.inf

    def test_power_law_overflow_is_the_inf_sentinel(self):
        # 1e-320 ** -0.99 passes the float range; the finite neighbour keeps **.
        curve = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.99)
        assert eval_web_loss(curve, 1e-320) == math.inf
        assert eval_web_loss(curve, 1e-300) == 1.0 + 100.0 * 1e-300 ** -0.99

    def test_tabulated_interpolation(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert eval_web_loss(curve, 20.0) == pytest.approx(4.0, abs=1e-12)

    def test_tabulated_clamps_past_end(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert eval_web_loss(curve, 1000.0) == 3.0

    def test_negative_capacity_rejected(self):
        curve = PowerLawCurve(floor=1.0, amplitude=1.0, exponent=0.5)
        with pytest.raises(ValueError, match="capacity"):
            eval_web_loss(curve, -1.0)

    def test_nan_capacity_rejected(self):
        for curve in (
            PowerLawCurve(floor=1.0, amplitude=1.0, exponent=0.5),
            TabulatedCurve(points=((0, 10), (10, 5), (30, 3))),
        ):
            with pytest.raises(ValueError, match="capacity must be >= 0, got nan"):
                eval_web_loss(curve, math.nan)
            for side in ("left", "right"):
                with pytest.raises(ValueError, match="capacity must be >= 0, got nan"):
                    web_marginal(curve, math.nan, side)

    def test_power_law_matches_dense_tabulation(self):
        # Cross-check the formula against a fine tabulated version of itself.
        curve = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        caps = np.linspace(1.0, 500.0, 20000)
        pts = [(0.0, eval_web_loss(curve, 1.0) + 1000.0)] + [
            (float(m), float(eval_web_loss(curve, float(m)))) for m in caps
        ]
        tab = TabulatedCurve(points=tuple(pts))
        for m in (50.0, 100.0, 333.3):
            assert eval_web_loss(tab, m) == pytest.approx(
                eval_web_loss(curve, m), rel=1e-6
            )

    def test_convexity_and_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            curve = make_power_law(rng) if rng.uniform() < 0.5 else make_tabulated(rng)
            m1, m2 = np.sort(rng.uniform(0.1, 200.0, size=2))
            if m1 == m2:
                continue
            lam = float(rng.uniform(0.01, 0.99))
            mid = lam * m1 + (1 - lam) * m2
            f1, f2 = eval_web_loss(curve, m1), eval_web_loss(curve, m2)
            assert eval_web_loss(curve, mid) <= lam * f1 + (1 - lam) * f2 + 1e-9
            assert f2 <= f1 + 1e-12


class TestWebMarginal:
    def test_power_law_unit_point(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        assert web_marginal(curve, 1.0, "left") == pytest.approx(0.5, abs=1e-15)
        assert web_marginal(curve, 1.0, "right") == pytest.approx(0.5, abs=1e-15)

    def test_power_law_formula(self):
        curve = PowerLawCurve(floor=0.0, amplitude=100.0, exponent=0.283)
        expected = 100.0 * 0.283 * 1000.0 ** (-1.283)
        assert web_marginal(curve, 1000.0, "left") == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.0067e-3, rel=1e-4)

    def test_power_law_overflow_is_inf(self):
        curve = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        for side in ("left", "right"):
            assert web_marginal(curve, 1e-250, side) == math.inf
            assert web_marginal(curve, 1e-200, side) == 100.0 * 0.5 * 1e-200 ** -1.5
        assert web_marginal(curve, 0.0, "right") == math.inf

    def test_tabulated_breakpoint_sides(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert web_marginal(curve, 10.0, "left") == pytest.approx(0.5)
        assert web_marginal(curve, 10.0, "right") == pytest.approx(0.1)

    def test_tabulated_tail_is_flat(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert web_marginal(curve, 31.0, "left") == 0.0
        assert web_marginal(curve, 30.0, "right") == 0.0
        assert web_marginal(curve, 30.0, "left") == pytest.approx(0.1)

    def test_left_at_zero_rejected(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        with pytest.raises(ValueError, match="left"):
            web_marginal(curve, 0.0, "left")

    def test_right_at_zero_power_law_is_inf(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        assert web_marginal(curve, 0.0, "right") == math.inf

    def test_non_increasing_and_left_ge_right(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            curve = make_power_law(rng) if rng.uniform() < 0.5 else make_tabulated(rng)
            ms = np.sort(rng.uniform(0.1, 150.0, size=5))
            vals = [web_marginal(curve, float(m), "right") for m in ms]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for m in ms:
                assert web_marginal(curve, float(m), "left") >= web_marginal(
                    curve, float(m), "right"
                ) - 1e-12


class TestM0:
    def test_power_law_unit(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        assert m0_minus(curve, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_power_law_closed_form_vs_bisection(self):
        curve = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        t = 3.3333e-4
        m0 = m0_minus(curve, t)
        assert m0 == pytest.approx((50.0 / t) ** (2.0 / 3.0), rel=1e-12)
        assert m0 == pytest.approx(2823.1, abs=0.1)
        # Independent bisection on -F'(M) = t.
        lo, hi = 1e-9, 1e12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if web_marginal(curve, mid, "left") > t:
                lo = mid
            else:
                hi = mid
        assert m0 == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_tabulated_breakpoint_crossing(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert m0_minus(curve, 0.3) == 10.0

    def test_tabulated_flat_tie_band(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        # t equal to a segment's marginal opens a flat band [0, 10]; the map
        # returns its low end, so the tie goes to the knowledge domain.
        assert m0_minus(curve, 0.5) == 0.0

    def test_tabulated_extremes(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert m0_minus(curve, 99.0) == 0.0  # nothing exceeds a huge t
        assert m0_minus(curve, 0.001) == 30.0  # everything exceeds a tiny t

    def test_rejects_nonpositive_t(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        with pytest.raises(ValueError, match="t must be > 0"):
            m0_minus(curve, 0.0)

    def test_tabulated_matches_marginal_scan(self):
        # Brute-force oracle: scan a fine capacity grid and read the sup
        # definition straight off the one-sided marginals.
        rng = np.random.default_rng(19)
        for _ in range(30):
            curve = make_tabulated(rng)
            last = curve.points[-1][0]
            ms = np.linspace(1e-6, last * 1.3, 4001)
            for t in rng.uniform(0.005, 2.5, size=3):
                t = float(t)
                above = [m for m in ms if web_marginal(curve, float(m), "right") > t]
                scan_minus = max(above) if above else 0.0
                step = ms[1] - ms[0]
                assert abs(m0_minus(curve, t) - scan_minus) <= step + 1e-9

    def test_order_and_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            curve = make_power_law(rng) if rng.uniform() < 0.5 else make_tabulated(rng)
            ts = np.sort(rng.uniform(0.001, 3.0, size=4))
            lows = [m0_minus(curve, float(t)) for t in ts]
            assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))


class TestTabulatedNumpyOracle:
    """A tabulated curve's tuples and bisect against the numpy calls that
    once evaluated it (np.interp, np.searchsorted), bit for bit."""

    @staticmethod
    def _curve(rng) -> TabulatedCurve | None:
        n_seg = int(rng.integers(1, 8))
        gaps = (10.0 ** rng.uniform(-3.0, 6.0, size=n_seg)).tolist()
        slopes = sorted((-(10.0 ** rng.uniform(-4.0, 2.0, size=n_seg))).tolist())
        for i in range(n_seg - 1):
            if rng.uniform() < 0.2:  # collinear breakpoints: a repeated slope
                slopes[i + 1] = slopes[i]
        if rng.uniform() < 0.3:  # a flat last segment
            slopes[-1] = 0.0
        caps, losses = [0.0], [float(rng.uniform(0.0, 5.0))]
        for gap in gaps:
            caps.append(caps[-1] + gap)
        for slope, gap in zip(reversed(slopes), reversed(gaps)):
            losses.insert(0, losses[0] - slope * gap)
        try:
            return TabulatedCurve(points=tuple(zip(caps, losses)))
        except ValueError:  # rounding can break convexity; such points are refused
            return None

    @staticmethod
    def _neighbours(values):
        out = set()
        for v in values:
            out.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
        out.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
        return sorted(out)

    def _curves(self, count):
        rng = np.random.default_rng(23)
        while count:
            curve = self._curve(rng)
            if curve is not None:
                count -= 1
                yield curve

    def test_matches_interp_and_searchsorted(self):
        checked, mismatches = 0, []
        for curve in self._curves(300):
            caps = np.array([m for m, _ in curve.points])
            losses = np.array([f for _, f in curve.points])
            slopes = np.diff(losses) / np.diff(caps)
            capacities = self._neighbours([*caps.tolist(), 2.0 * caps[-1] + 1.0])
            for c in (c for c in capacities if c >= 0.0):
                want = float(losses[-1]) if c >= caps[-1] else float(np.interp(c, caps, losses))
                got = [(eval_web_loss(curve, c), want)]
                for side in ("left", "right") if c > 0.0 else ("right",):
                    i = int(np.searchsorted(caps, c, side=side)) - 1
                    want = 0.0 if i >= slopes.size else float(-slopes[i])
                    got.append((web_marginal(curve, c, side), want))
                for value, want in got:
                    checked += 1
                    if value.hex() != want.hex():
                        mismatches.append((curve.points, c, value, want))
            thresholds = self._neighbours(sorted({-s for s in slopes.tolist() if s < 0.0}))
            for t in (t for t in [*thresholds, 1e-300, 1e300] if t > 0.0):
                k = int(np.searchsorted(slopes, -t, side="left"))
                want = float(caps[min(k, slopes.size)])
                checked += 1
                if m0_minus(curve, t).hex() != want.hex():
                    mismatches.append((curve.points, t))
        assert mismatches == []
        assert checked > 20_000


class TestWarmupLoss:
    def _universe(self):
        # 50 facts x 1 bit at p = 0.01, floor 2.
        return KnowledgeUniverse(np.full(50, 0.01), np.ones(50), irreducible_loss=2.0)

    def test_zero_capacity(self):
        assert warmup_loss(self._universe(), 0.0) == pytest.approx(2.5, abs=1e-12)

    def test_midpoint(self):
        assert warmup_loss(self._universe(), 25.0) == pytest.approx(2.25, abs=1e-12)

    def test_saturated(self):
        assert warmup_loss(self._universe(), 200.0) == pytest.approx(2.0, abs=1e-12)

    def test_linear_slope_is_minus_p(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ku = make_uniform_knowledge(rng)
            p = float(ku.p[0])
            h_tot = ku.h_tot
            m1, m2 = np.sort(rng.uniform(0.0, h_tot, size=2))
            if m2 - m1 < 1e-9:
                continue
            slope = (warmup_loss(ku, float(m2)) - warmup_loss(ku, float(m1))) / (m2 - m1)
            assert slope == pytest.approx(-p, rel=1e-9)
            drop = warmup_loss(ku, 0.0) - warmup_loss(ku, h_tot)
            assert drop == pytest.approx(p * h_tot, rel=1e-12)

    def test_heterogeneous_rejected_with_pointer(self):
        ku = KnowledgeUniverse([0.5, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError, match="knowledge_frontier"):
            warmup_loss(ku, 1.0)

    def test_overflow_names_irreducible_loss(self):
        # As knowledge_frontier refuses it: the loss with nothing learned is inf.
        ku = KnowledgeUniverse([1.0], [1e308], irreducible_loss=1e308)
        for capacity in (0.0, 1e308):
            with pytest.raises(ValueError, match=r"^irreducible_loss 1e\+308 plus p \* H_tot "
                                                 r"1e\+308 overflows"):
                warmup_loss(ku, capacity)

    def test_near_equal_frequencies_tolerated(self):
        p = 0.123
        ku = KnowledgeUniverse([p, p * (1 + 1e-13)], [1.0, 1.0])
        warmup_loss(ku, 0.5)  # must not raise

    @pytest.mark.parametrize("facts", [0, 1, 50])
    def test_nan_capacity_rejected(self, facts):
        ku = KnowledgeUniverse(np.full(facts, 0.01), np.ones(facts), irreducible_loss=2.0)
        with pytest.raises(ValueError, match="capacity must be >= 0, got nan"):
            warmup_loss(ku, math.nan)


class TestKnowledgeFrontier:
    def test_two_fact_example(self):
        ku = KnowledgeUniverse([0.5, 0.1], [2.0, 4.0])
        loss, learned = knowledge_frontier(ku, 2.0)
        assert loss == pytest.approx(0.4, abs=1e-9)
        assert learned.tolist() == [1.0, 0.0]
        assert loss == pytest.approx(frontier_grid_oracle(ku, 2.0, 1e-3), abs=1e-3)

    def test_two_fact_fractional(self):
        ku = KnowledgeUniverse([0.5, 0.1], [2.0, 4.0])
        loss, learned = knowledge_frontier(ku, 4.0)
        assert loss == pytest.approx(0.2, abs=1e-9)
        assert learned.tolist() == [1.0, 0.5]
        assert loss == pytest.approx(frontier_grid_oracle(ku, 4.0, 1e-3), abs=1e-3)

    def test_zero_capacity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ku = make_hetero_knowledge(rng)
            loss, learned = knowledge_frontier(ku, 0.0)
            expected = ku.irreducible_loss + float(np.dot(ku.p, ku.h))
            assert loss == pytest.approx(expected, rel=1e-12)
            assert all(f == 0.0 for f in learned)

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ku = make_hetero_knowledge(rng, max_facts=6)
            m = float(rng.uniform(0.0, ku.h_tot * 1.2))
            loss, _ = knowledge_frontier(ku, m)
            assert loss == pytest.approx(frontier_vertex_oracle(ku, m), abs=1e-6)

    def test_degrades_to_warmup_on_uniform(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ku = make_uniform_knowledge(rng)
            m = float(rng.uniform(0.0, ku.h_tot * 1.5))
            loss, _ = knowledge_frontier(ku, m)
            assert loss == pytest.approx(warmup_loss(ku, m), abs=1e-12 * max(1.0, loss))

    def test_tie_break_by_index(self):
        ku = KnowledgeUniverse([0.2, 0.2], [2.0, 2.0])
        _, learned = knowledge_frontier(ku, 2.0)
        assert learned.tolist() == [1.0, 0.0]

    def test_fractions_are_the_read_only_array_of_a_solve(self):
        mix = MixtureUniverse(
            KnowledgeUniverse([0.5, 0.1, 0.2], [2.0, 4.0, 1.0]), PowerLawCurve(1.0, 1.0, 0.5), 0.5
        )
        alloc = optimal_allocation(mix, 5.0)
        loss, learned = knowledge_frontier(mix.knowledge, alloc.knowledge_capacity)
        assert type(learned) is np.ndarray and learned.dtype == np.float64
        assert not learned.flags.writeable
        assert learned.tobytes() == alloc.learned.tobytes()
        assert loss == alloc.knowledge_loss

    def test_full_capacity_learns_everything_exactly(self):
        rng = np.random.default_rng(37)
        ku = make_hetero_knowledge(rng)
        loss, learned = knowledge_frontier(ku, ku.h_tot)
        assert learned.tolist() == [1.0] * ku.fact_count
        assert loss == pytest.approx(ku.irreducible_loss, abs=1e-12)

    @pytest.mark.parametrize(
        "p, h", [([], []), ([0.5, 0.1], [2.0, 4.0]), ([0.2, 0.2], [0.0, 2.0])],
        ids=["empty", "heterogeneous", "uniform"],
    )
    def test_nan_capacity_rejected(self, p, h):
        # NaN fails every comparison, so it would otherwise read as no capacity.
        with pytest.raises(ValueError, match="capacity must be >= 0, got nan"):
            knowledge_frontier(KnowledgeUniverse(p, h, 1.0), math.nan)

    @pytest.mark.parametrize("call", ["knowledge_frontier", "optimal_allocation"])
    def test_loss_that_overflows_is_refused(self, call):
        # c1 + sum(p * h) = 2e308, the loss with no fact learned, is past the float range.
        ku = KnowledgeUniverse([1.0], [1e308], irreducible_loss=1e308)
        mix = MixtureUniverse(ku, PowerLawCurve(0.0, 1.0, 0.5), 0.5)
        with pytest.raises(ValueError, match=r"^irreducible_loss 1e\+308 plus sum\(p \* h\) "
                                             r"1e\+308 overflows"):
            if call == "knowledge_frontier":
                knowledge_frontier(ku, 1.0)
            else:
                optimal_allocation(mix, 1.0)

    def test_prefix_sum_that_overflows_stops_at_h_tot(self):
        # 100 times the entropy is finite, so fsum's h_tot is; the sum one
        # fact at a time rounds past the float range, and stops at h_tot.
        ku = KnowledgeUniverse(np.full(100, 0.01), np.full(100, 1.7976931348623156e306))
        assert math.isfinite(ku.h_tot)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frontier = ku._frontier
            loss, learned = knowledge_frontier(ku, ku.h_tot)
        assert np.all(np.diff(frontier.cum_h) >= 0.0) and frontier.cum_h[-1] == ku.h_tot
        assert loss == 0.0 and learned.tolist() == [1.0] * 100

    def test_loss_from_h_tot_on_is_c1_plus_zero(self):
        # An irreducible_loss of -0.0 gives +0.0 at H_tot and past it, as the
        # empty remainder total_ph - cum_ph[K] is +0.0.
        ku = KnowledgeUniverse([0.5, 0.25], [1.0, 2.0], irreducible_loss=-0.0)
        for capacity in (ku.h_tot, 2.0 * ku.h_tot):
            assert knowledge_frontier(ku, capacity)[0].hex() == "0x0.0p+0"

    def test_zero_led_prefix_sums(self):
        ku = KnowledgeUniverse([0.125, 0.5, 0.25], [4.0, 2.0, 1.0])
        frontier = ku._frontier
        assert frontier.cum_h.tolist() == [0.0, 2.0, 3.0, 7.0]
        assert frontier.cum_ph.tolist() == [0.0, 1.0, 1.25, 1.75]
        assert not hasattr(frontier, "h_sorted")
        assert KnowledgeUniverse([], [])._frontier.cum_h.tolist() == [0.0]

    def test_frontier_holds_32_bytes_per_fact(self):
        n = 100_000
        rng = np.random.default_rng(41)
        raw = rng.pareto(1.5, n) + 1.0
        ku = KnowledgeUniverse(raw / raw.sum() * (1 - 1e-9), rng.uniform(1.0, 60.0, n))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frontier = ku._frontier
            held, peak = (b - before for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert frontier.count == n
        # order, p_sorted, cum_h and cum_ph; the slack covers the views and small arrays.
        assert held <= 32 * n + 16_384
        # The build's peak, with its temporaries (-p, sorted h, p * h), is 48.
        assert peak <= 48 * n + 16_384


class TestSerialization:
    def test_round_trip_power_law(self):
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.01, 0.02], [2.0, 3.0], irreducible_loss=1.5),
            web=PowerLawCurve(floor=1.0, amplitude=10.0, exponent=0.4),
            mixing_ratio=0.2,
        )
        doc = mixture_to_dict(mix)
        assert doc["knowledge"]["facts"][0] == {"p": 0.01, "h": 2.0}
        assert doc["knowledge"]["c1"] == 1.5
        assert doc["web"]["power_law"] == {"c": 1.0, "a": 10.0, "alpha": 0.4}
        assert doc["r"] == 0.2
        assert mixture_from_dict(doc) == mix
        assert mixture_from_dict(json.loads(json.dumps(doc))) == mix

    def test_round_trip_tabulated(self):
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.1], [1.0]),
            web=TabulatedCurve(points=((0, 10), (10, 5), (30, 3))),
            mixing_ratio=0.5,
        )
        doc = json.loads(json.dumps(mixture_to_dict(mix)))
        assert doc["web"]["tabulated"] == [[0, 10], [10, 5], [30, 3]]
        assert mixture_from_dict(doc) == mix

    @pytest.mark.parametrize("c1", [0, 2])
    def test_integer_c1_is_stored_and_returned_as_a_float(self, c1):
        doc = {"knowledge": {"facts": [{"p": 0.1, "h": 1.0}], "c1": c1},
               "web": {"power_law": {"c": 1.0, "a": 10.0, "alpha": 0.4}}, "r": 0.2}
        knowledge = mixture_from_dict(doc).knowledge
        assert type(knowledge.irreducible_loss) is float and knowledge.irreducible_loss == c1
        assert repr(mixture_to_dict(mixture_from_dict(doc))["knowledge"]["c1"]) == f"{c1}.0"
        for ku, capacity in ((knowledge, 1.0), (KnowledgeUniverse([], [], c1), 0.0)):
            loss, _ = knowledge_frontier(ku, capacity)
            assert type(loss) is float and loss == c1

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="missing field"):
            mixture_from_dict({"knowledge": {"facts": []}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "mixture must be a JSON object"),
            ({"knowledge": [], "web": {}, "r": 0.5}, "mixture.knowledge must be a JSON object"),
            ({"knowledge": {"facts": {}}}, "mixture.knowledge.facts must be a JSON array"),
            ({"knowledge": {"facts": [[0.1, 1.0]]}}, r"mixture.knowledge.facts\[0\] must be"),
            ({"knowledge": {"facts": [{"p": 0.1, "h": 1.0}, {"p": "x", "h": 1.0}]}},
             r"mixture.knowledge.facts\[1\].p must be a number"),
            ({"knowledge": {"facts": [{"p": 0.1, "h": "5"}]}},
             r"mixture.knowledge.facts\[0\].h must be a number, got '5'"),
            ({"knowledge": {"facts": [{"p": True, "h": 1.0}]}},
             r"mixture.knowledge.facts\[0\].p must be a number"),
            ({"knowledge": {"facts": [], "c1": "1"}}, "mixture.knowledge.c1 must be a number"),
            # Integers beyond the float range.
            ({"knowledge": {"facts": [{"p": 0.1, "h": 1.0}, {"p": 10**400, "h": 1.0}]}},
             r"mixture.knowledge.facts\[1\].p must be finite, got 10{400}"),
            ({"knowledge": {"facts": [{"p": 0.1, "h": -10**400}]}},
             r"mixture.knowledge.facts\[0\].h must be finite"),
            ({"knowledge": {"facts": [], "c1": 10**400}}, "mixture.knowledge.c1 must be finite"),
            ({"knowledge": {"facts": []}, "web": {"power_law": {"c": 10**400, "a": 1, "alpha": 0.5}},
              "r": 0.5}, "mixture.web.power_law.c must be finite"),
            ({"knowledge": {"facts": []}, "web": {"tabulated": [[0, 1], [10**400, 0]]}, "r": 0.5},
             r"mixture.web.tabulated\[1\]\[0\] must be finite"),
            ({"knowledge": {"facts": []}, "web": {"tabulated": [[0, 1], [1, 0]]}, "r": "0.5"},
             "mixture.r must be a number"),
            ({"knowledge": {"facts": []}, "web": [], "r": 0.5}, "mixture.web must be a JSON object"),
            ({"knowledge": {"facts": []}, "web": {"power_law": {"c": 1.0, "a": "100", "alpha": 0.5}},
              "r": 0.5}, "mixture.web.power_law.a must be a number, got '100'"),
            ({"knowledge": {"facts": []}, "web": {"tabulated": [0, 1]}, "r": 0.5},
             r"mixture.web.tabulated must be a JSON array of \[capacity, loss\] pairs"),
            ({"knowledge": {"facts": []}, "web": {"tabulated": [[0, 1], [1, "0"]]}, "r": 0.5},
             r"mixture.web.tabulated\[1\]\[1\] must be a number, got '0'"),
        ],
    )
    def test_wrong_types_name_the_field(self, doc, message):
        with pytest.raises(ValueError, match=message):
            mixture_from_dict(doc)

    def test_integer_values_are_numbers(self):
        doc = {"knowledge": {"facts": [{"p": 1, "h": 5}], "c1": 1}, "web": {"tabulated": [[0, 1], [1, 0]]}, "r": 0.5}
        knowledge = mixture_from_dict(doc).knowledge
        assert knowledge.p.tolist() == [1.0] and knowledge.h.tolist() == [5.0]
        assert knowledge.irreducible_loss == 1
