"""Loss curves, marginals, m0 maps, and the knowledge frontier."""

import json
import math
import pickle

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
from mixcap.simulator import SweepConfig, sweep
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    eval_web_loss,
    knowledge_frontier,
    m0_minus,
    m0_plus,
    mixture_from_dict,
    mixture_from_json,
    mixture_to_dict,
    mixture_to_json,
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

    def test_frontier_m0_computed_once_per_mixture(self, monkeypatch):
        over_frontier = []
        m0_minus_of = universe.m0_minus

        def counting_m0_minus(curve, t):
            if np.ndim(t):
                over_frontier.append(1)
            return m0_minus_of(curve, t)

        monkeypatch.setattr(universe, "m0_minus", counting_m0_minus)
        p, h = self._columns(k=500)
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        sizes = tuple(np.geomspace(1.0, 5.0 * float(h.sum()), 200).tolist())
        sweep(SweepConfig(mixture=mix, sweep_axis="model_size", grid=sizes))
        assert len(over_frontier) == 1
        ratios = tuple(np.geomspace(1e-3, 0.9, 50).tolist())
        sweep(
            SweepConfig(
                mixture=mix, sweep_axis="mixing_ratio", grid=ratios, total_capacity=sizes[100]
            )
        )
        assert len(over_frontier) == 1 + len(ratios)

    def test_frontier_m0_is_read_only_and_not_pickled(self):
        p, h = self._columns()
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(p, h, 0.5),
            web=PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.4),
            mixing_ratio=0.1,
        )
        m0 = mix._frontier_m0
        frontier = mix.knowledge._frontier
        assert np.array_equal(m0, m0_minus(mix.web, 0.1 * frontier.p_sorted / 0.9))
        with pytest.raises(ValueError, match="read-only"):
            m0[0] = 1.0
        back = pickle.loads(pickle.dumps(mix))
        assert back == mix and hash(back) == hash(mix)
        assert "_frontier_m0" not in vars(back)
        assert np.array_equal(back._frontier_m0, m0)


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
        assert m0_plus(curve, 0.5) == pytest.approx(1.0, abs=1e-12)

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
        assert m0_plus(curve, 0.3) == 10.0

    def test_tabulated_flat_tie_band(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        # t equal to a segment slope opens a band between the two maps.
        assert m0_minus(curve, 0.5) == 0.0
        assert m0_plus(curve, 0.5) == 10.0

    def test_tabulated_extremes(self):
        curve = TabulatedCurve(points=((0, 10), (10, 5), (30, 3)))
        assert m0_minus(curve, 99.0) == 0.0  # nothing exceeds a huge t
        assert m0_plus(curve, 99.0) == 0.0
        assert m0_minus(curve, 0.001) == 30.0  # everything exceeds a tiny t
        assert m0_plus(curve, 0.001) == 30.0

    def test_rejects_nonpositive_t(self):
        curve = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        with pytest.raises(ValueError, match="t must be > 0"):
            m0_minus(curve, 0.0)

    def test_tabulated_matches_marginal_scan(self):
        # Brute-force oracle: scan a fine capacity grid and read the sup/inf
        # definitions straight off the one-sided marginals.
        rng = np.random.default_rng(19)
        for _ in range(30):
            curve = make_tabulated(rng)
            last = curve.points[-1][0]
            ms = np.linspace(1e-6, last * 1.3, 4001)
            for t in rng.uniform(0.005, 2.5, size=3):
                t = float(t)
                above = [m for m in ms if web_marginal(curve, float(m), "right") > t]
                below = [m for m in ms if web_marginal(curve, float(m), "right") < t]
                scan_minus = max(above) if above else 0.0
                scan_plus = min(below) if below else 0.0
                step = ms[1] - ms[0]
                assert abs(m0_minus(curve, t) - scan_minus) <= step + 1e-9
                assert abs(m0_plus(curve, t) - scan_plus) <= step + 1e-9

    def test_order_and_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            curve = make_power_law(rng) if rng.uniform() < 0.5 else make_tabulated(rng)
            ts = np.sort(rng.uniform(0.001, 3.0, size=4))
            lows = [m0_minus(curve, float(t)) for t in ts]
            highs = [m0_plus(curve, float(t)) for t in ts]
            for lo, hi in zip(lows, highs):
                assert lo <= hi + 1e-12
            assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(highs, highs[1:]))
            if isinstance(curve, PowerLawCurve):
                for lo, hi in zip(lows, highs):
                    assert lo == pytest.approx(hi, rel=1e-12)


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

    def test_near_equal_frequencies_tolerated(self):
        p = 0.123
        ku = KnowledgeUniverse([p, p * (1 + 1e-13)], [1.0, 1.0])
        warmup_loss(ku, 0.5)  # must not raise


class TestKnowledgeFrontier:
    def test_two_fact_example(self):
        ku = KnowledgeUniverse([0.5, 0.1], [2.0, 4.0])
        loss, learned = knowledge_frontier(ku, 2.0)
        assert loss == pytest.approx(0.4, abs=1e-9)
        assert learned == [1.0, 0.0]
        assert loss == pytest.approx(frontier_grid_oracle(ku, 2.0, 1e-3), abs=1e-3)

    def test_two_fact_fractional(self):
        ku = KnowledgeUniverse([0.5, 0.1], [2.0, 4.0])
        loss, learned = knowledge_frontier(ku, 4.0)
        assert loss == pytest.approx(0.2, abs=1e-9)
        assert learned == [1.0, 0.5]
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
        assert learned == [1.0, 0.0]

    def test_full_capacity_learns_everything_exactly(self):
        rng = np.random.default_rng(37)
        ku = make_hetero_knowledge(rng)
        loss, learned = knowledge_frontier(ku, ku.h_tot)
        assert learned == [1.0] * ku.fact_count
        assert loss == pytest.approx(ku.irreducible_loss, abs=1e-12)


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
        assert mixture_from_json(mixture_to_json(mix)) == mix

    def test_round_trip_tabulated(self):
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.1], [1.0]),
            web=TabulatedCurve(points=((0, 10), (10, 5), (30, 3))),
            mixing_ratio=0.5,
        )
        doc = json.loads(mixture_to_json(mix))
        assert doc["web"]["tabulated"] == [[0, 10], [10, 5], [30, 3]]
        assert mixture_from_dict(doc) == mix

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
