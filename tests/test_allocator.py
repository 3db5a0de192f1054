"""Optimal allocation, phase-transition thresholds, and mitigation strategies."""

import json
import math
import pickle
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import allocation_grid_oracle, make_mixture
from test_allocator_properties import PROPERTY_SETTINGS, log_uniform, mixtures, no_hang
from mixcap.allocator import (
    Allocation,
    apply_ckm,
    apply_subsampling,
    full_threshold_report,
    optimal_allocation,
)
from mixcap.simulator import SweepConfig, sweep
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    m0_minus,
    web_marginal,
)


def _uniform_mixture(p=1e-3, k=1000, h=5.0, c1=1.0, r=0.25, amplitude=100.0, alpha=0.5):
    return MixtureUniverse(
        knowledge=KnowledgeUniverse(np.full(k, p), np.full(k, h), irreducible_loss=c1),
        web=PowerLawCurve(floor=1.0, amplitude=amplitude, exponent=alpha),
        mixing_ratio=r,
    )


class TestOptimalAllocation:
    def test_power_law_closed_form_example(self):
        mix = _uniform_mixture()  # H_tot = 5000, t = rp/(1-r) = 1/3000
        alloc = optimal_allocation(mix, 4000.0)
        t = 0.25 * 1e-3 / 0.75
        expected = 4000.0 - (50.0 / t) ** (2.0 / 3.0)
        assert alloc.knowledge_capacity == pytest.approx(expected, rel=1e-12)
        assert alloc.knowledge_capacity == pytest.approx(1176.9, abs=0.1)
        grid_best = allocation_grid_oracle(mix, 4000.0)
        assert alloc.mixture_loss <= grid_best + 1e-6

    def test_zero_capacity(self):
        mix = _uniform_mixture()
        alloc = optimal_allocation(mix, 0.0)
        assert alloc.knowledge_capacity == 0.0
        expected = 1.0 + float(np.dot(mix.knowledge.p, mix.knowledge.h))
        assert alloc.knowledge_loss == pytest.approx(expected, rel=1e-12)
        assert math.isinf(alloc.web_loss)  # power law at zero capacity

    def test_single_fact_marginal_comparison(self):
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.1], [1.0]),
            web=PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5),
            mixing_ratio=0.9,
        )
        alloc = optimal_allocation(mix, 10.0)
        assert alloc.knowledge_capacity == pytest.approx(1.0, abs=1e-9)
        assert alloc.learned.tolist() == [1.0]
        # Knowledge marginal r*p beats the web marginal at the leftover budget.
        assert 0.9 * 0.1 > 0.1 * web_marginal(mix.web, 9.0, "left")
        grid_best = allocation_grid_oracle(mix, 10.0)
        assert alloc.mixture_loss <= grid_best + 1e-6

    def test_beats_grid_on_random_mixtures(self):
        rng = np.random.default_rng(41)
        for i in range(60):
            mix = make_mixture(rng, uniform=i % 2 == 0, tabulated=i % 3 == 0)
            m = float(rng.uniform(0.5, 3.0 * mix.knowledge.h_tot))
            alloc = optimal_allocation(mix, m)
            assert alloc.mixture_loss <= allocation_grid_oracle(mix, m) + 1e-6

    def test_allocation_invariants(self):
        rng = np.random.default_rng(43)
        for i in range(50):
            mix = make_mixture(rng, uniform=i % 2 == 0, tabulated=i % 3 == 0)
            m = float(rng.uniform(0.5, 2.0 * mix.knowledge.h_tot))
            alloc = optimal_allocation(mix, m)
            assert alloc.knowledge_capacity >= 0.0
            assert alloc.web_capacity >= 0.0
            assert alloc.knowledge_capacity + alloc.web_capacity == m
            assert alloc.knowledge_capacity <= mix.knowledge.h_tot + 1e-9
            learned = np.array(alloc.learned)
            assert np.count_nonzero((learned > 0.0) & (learned < 1.0)) <= 1
            expected = (
                mix.mixing_ratio * alloc.knowledge_loss
                + (1 - mix.mixing_ratio) * alloc.web_loss
            )
            assert alloc.mixture_loss == pytest.approx(expected, abs=1e-12)

    def test_m1_monotone_in_capacity_ratio_and_frequency(self):
        base = dict(p=1e-3, k=500, h=4.0, r=0.3)
        for ms in (np.linspace(100, 6000, 12),):
            vals = [
                optimal_allocation(_uniform_mixture(**base), float(m)).knowledge_capacity
                for m in ms
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        for rs in (np.linspace(0.05, 0.95, 10),):
            vals = [
                optimal_allocation(
                    _uniform_mixture(p=1e-3, k=500, h=4.0, r=float(r)), 1500.0
                ).knowledge_capacity
                for r in rs
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        for ps in (np.geomspace(1e-5, 1e-3, 10),):
            vals = [
                optimal_allocation(
                    _uniform_mixture(p=float(p), k=500, h=4.0, r=0.3), 1500.0
                ).knowledge_capacity
                for p in ps
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_mixture_best_loss_convex_nonincreasing(self):
        rng = np.random.default_rng(47)
        for i in range(40):
            mix = make_mixture(rng, uniform=True, tabulated=i % 2 == 0)
            h_tot = mix.knowledge.h_tot
            m1, m2 = np.sort(rng.uniform(0.5, 2.5 * h_tot, size=2))
            if m2 - m1 < 1e-6:
                continue
            lam = float(rng.uniform(0.01, 0.99))
            mid = lam * m1 + (1 - lam) * m2
            f = lambda m: optimal_allocation(mix, float(m)).mixture_loss
            assert f(mid) <= lam * f(m1) + (1 - lam) * f(m2) + 1e-9
            assert f(m2) <= f(m1) + 1e-9

    def test_tabulated_flat_tie_prefers_knowledge(self):
        # Web segment slope exactly equals the knowledge marginal ratio:
        # any split inside the band is optimal; we take the largest m1.
        web = TabulatedCurve(points=((0.0, 10.0), (10.0, 5.0), (30.0, 1.0)))
        # slope of second segment = -0.2; with r = 0.5, p = 0.2: t = 0.2.
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(np.full(3, 0.2), np.full(3, 2.0)),
            web=web,
            mixing_ratio=0.5,
        )
        alloc = optimal_allocation(mix, 16.0)
        # m0_minus(0.2) = 10, so knowledge takes everything above 10 bits.
        assert alloc.knowledge_capacity == pytest.approx(6.0, abs=1e-9)
        # Heterogeneous facts follow the same rule: the first fact's t = 0.3
        # equals the second segment's marginal, so every m1 in [20, 50] is
        # optimal and the whole fact is learned.
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.3, 0.2], [50.0, 50.0]),
            web=TabulatedCurve(points=((0.0, 100.0), (100.0, 70.0), (200.0, 65.0))),
            mixing_ratio=0.5,
        )
        alloc = optimal_allocation(mix, 120.0)
        assert alloc.knowledge_capacity == 50.0
        assert alloc.learned.tolist() == [1.0, 0.0]

    def test_heterogeneous_exact_at_large_magnitudes(self):
        # m1 of 1.6e7 and 1e12 bits, where one ulp of m1 exceeds a 1e-9
        # absolute search tolerance; the alarm turns a hang into a failure.
        web = PowerLawCurve(floor=1.0, amplitude=1e6, exponent=0.283)
        t_low = 0.01 * 0.3 / 0.99
        m0_low = (1e6 * 0.283 / t_low) ** (1.0 / 1.283)
        cases = (
            (8e6, 1e10, 1.6e7, (1.0, 1.0)),
            (6e11, m0_low + 1e12, 1e12, (1.0, 2.0 / 3.0)),
        )

        def timeout(signum, frame):
            raise TimeoutError("optimal_allocation did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            for h, m, m1, learned in cases:
                mix = MixtureUniverse(
                    knowledge=KnowledgeUniverse([0.6, 0.3], [h, h]),
                    web=web,
                    mixing_ratio=0.01,
                )
                alloc = optimal_allocation(mix, m)
                assert alloc.knowledge_capacity == pytest.approx(m1, rel=1e-12)
                assert alloc.learned == pytest.approx(learned, rel=1e-9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_json_field_names(self):
        alloc = optimal_allocation(_uniform_mixture(), 100.0)
        doc = alloc.to_dict()
        assert set(doc) == {"m1", "m2", "loss1", "loss2", "loss", "learned"}


class TestAllocationValue:
    def _alloc(self):
        return optimal_allocation(_uniform_mixture(k=10), 4025.0)

    def test_learned_is_a_read_only_float64_array(self):
        alloc = self._alloc()
        assert isinstance(alloc.learned, np.ndarray)
        assert alloc.learned.dtype == np.float64 and alloc.learned.shape == (10,)
        with pytest.raises(ValueError, match="read-only"):
            alloc.learned[0] = 0.5
        with pytest.raises(AttributeError):
            alloc.learned = np.zeros(10)

    def test_pickle_round_trip_stays_read_only(self):
        alloc = self._alloc()
        alloc.learned  # built before pickling, and still not carried by it
        back = pickle.loads(pickle.dumps(alloc))
        assert back == alloc and hash(back) == hash(alloc)
        assert "learned" not in vars(back)
        assert not back.learned.flags.writeable
        assert back.learned.tobytes() == alloc.learned.tobytes()

    def test_pickled_solves_share_one_universe(self):
        mix = _uniform_mixture(p=4e-4, k=2000)
        allocs = [optimal_allocation(mix, m) for m in np.linspace(0.0, 2e4, 20).tolist()]
        data = pickle.dumps(allocs)
        assert len(data) < 1.5 * len(pickle.dumps(mix.knowledge))
        back = pickle.loads(data)
        assert back == allocs
        assert all(a.knowledge is back[0].knowledge for a in back)
        assert back[0].knowledge is not mix.knowledge
        for before, after in zip(allocs, back):
            assert not after.learned.flags.writeable
            assert after.learned.tobytes() == before.learned.tobytes()

    def test_equality_and_hash(self):
        alloc = self._alloc()
        rebuilt = _uniform_mixture(k=10)
        assert rebuilt.knowledge is not alloc.knowledge
        same = optimal_allocation(rebuilt, 4025.0)
        assert same == alloc and hash(same) == hash(alloc)
        assert same.learned.tobytes() == alloc.learned.tobytes()
        p, h = alloc.knowledge.p.copy(), alloc.knowledge.h.copy()
        p[3] = math.nextafter(p[3], 0.0)
        h[7] = 6.0
        for changed in (
            KnowledgeUniverse(p, alloc.knowledge.h, 1.0),
            KnowledgeUniverse(alloc.knowledge.p, h, 1.0),
            KnowledgeUniverse(alloc.knowledge.p, alloc.knowledge.h, 1.5),
        ):
            assert replace(alloc, knowledge=changed) != alloc
        for name in ("knowledge_capacity", "web_capacity", "knowledge_loss", "web_loss",
                     "mixture_loss"):
            moved = math.nextafter(getattr(alloc, name), math.inf)
            assert replace(alloc, **{name: moved}) != alloc
        assert alloc != alloc.to_dict()

    def test_repr_shows_the_scalars_only(self):
        alloc = Allocation(1.25, 2.0, 3.0, 4.0, 3.5, KnowledgeUniverse([0.5], [2.0]))
        assert repr(alloc) == (
            "Allocation(knowledge_capacity=1.25, web_capacity=2.0, knowledge_loss=3.0, "
            "web_loss=4.0, mixture_loss=3.5)"
        )
        assert alloc.learned.tolist() == [0.625]

    def test_to_dict_holds_python_floats(self):
        doc = self._alloc().to_dict()
        assert all(type(x) is float for x in doc["learned"])
        assert json.loads(json.dumps(doc)) == doc


class TestDomainLosses:
    def test_phase_extremes(self):
        mix = _uniform_mixture()
        report = full_threshold_report(mix)
        f1_zero = 1.0 + float(np.dot(mix.knowledge.p, mix.knowledge.h))
        for m in (report.model_size_lower * 0.2, report.model_size_lower):
            loss1 = optimal_allocation(mix, m).knowledge_loss
            assert loss1 == pytest.approx(f1_zero, rel=1e-12)
        for m in (report.model_size_upper, report.model_size_upper * 3):
            loss1 = optimal_allocation(mix, m).knowledge_loss
            assert loss1 == pytest.approx(1.0, abs=1e-12)

    def test_interior_value(self):
        mix = _uniform_mixture()
        alloc = optimal_allocation(mix, 4000.0)
        loss1, m1 = alloc.knowledge_loss, alloc.knowledge_capacity
        assert loss1 == pytest.approx(1.0 + 1e-3 * (5000.0 - m1), rel=1e-12)


def _near_uniform_cases():
    """(p, h, c1, web, r) of two facts a relative 5e-13 apart, either order,
    under a power law and a tabulated curve with a segment whose marginal
    lies strictly between their r*p/(1-r); and three uniform facts."""
    r, p_low, p_high = 0.25, 1e-3, 1e-3 * (1 + 5e-13)
    t_low, t_high = (r * p / (1.0 - r) for p in (p_low, p_high))
    mid = 0.5 * (t_low + t_high)
    points = ((0.0, 2000.0), (1e3, 1000.0), (1e3 + 1e6, 1000.0 - mid * 1e6),
              (1e3 + 2e6, 1000.0 - mid * 1e6 - 1.0))
    webs = PowerLawCurve(1.0, 100.0, 0.5), TabulatedCurve(points=points)
    for tabulated in (False, True):
        for most_frequent_first in (False, True):
            p = [p_high, p_low] if most_frequent_first else [p_low, p_high]
            yield pytest.param(p, [5.0, 5.0], 0.0, webs[tabulated], r,
                               id=f"{most_frequent_first}-{tabulated}")
    # fl(m0_minus + H_tot) = 5882.201461753292 left the third fact at
    # 0.99999999999989; the solve learns every bit from the next float up.
    yield pytest.param([1e-3] * 3, [3.3] * 3, 1.0, PowerLawCurve(1.0, 100.0, 0.5), 0.1,
                       id="three-uniform")


class TestThresholdModelSize:
    def test_power_law_band(self):
        mix = _uniform_mixture()
        report = full_threshold_report(mix)
        t = 0.25 * 1e-3 / 0.75
        m0 = (50.0 / t) ** (2.0 / 3.0)
        assert report.model_size_lower == pytest.approx(m0, rel=1e-12)
        assert report.model_size_upper == pytest.approx(m0 + 5000.0, rel=1e-12)
        assert report.model_size_asymptotic == pytest.approx(m0, rel=1e-12)

    def test_asymptotic_is_the_lower_bound_float(self):
        # m_asymptotic is m0_minus itself, so it cannot drift an ulp from m_lower.
        report = full_threshold_report(_uniform_mixture(k=10, amplitude=1000.0, alpha=0.3))
        assert report.model_size_lower == 38035.27369632808
        assert report.model_size_asymptotic == 38035.27369632808
        rng = np.random.default_rng(3)
        for _ in range(200):
            mix = _uniform_mixture(p=float(10 ** rng.uniform(-6, -2)), k=10,
                                   r=float(rng.uniform(0.01, 0.99)),
                                   amplitude=float(10 ** rng.uniform(0, 4)),
                                   alpha=float(rng.uniform(0.05, 0.95)))
            report = full_threshold_report(mix)
            assert report.model_size_asymptotic == report.model_size_lower

    def test_exponent_is_alpha_plus_one(self):
        mix = _uniform_mixture(alpha=0.283)
        assert full_threshold_report(mix).exponent == pytest.approx(1.283, abs=1e-12)

    def test_huge_marginal_ratio_collapses_to_h_tot(self):
        mix = _uniform_mixture(p=1e-3, k=1000, h=5.0, r=1 - 1e-12)
        report = full_threshold_report(mix)
        assert report.model_size_lower < 1e-2
        assert report.model_size_upper == pytest.approx(5000.0, abs=1e-2)

    def test_heterogeneous_band_brackets_the_solve(self):
        # t = r*p/(1-r) is p itself at r = 0.5: m_lower reads p_max = 0.5,
        # m_upper reads p_min = 0.1 and adds both facts' bits.
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([0.1, 0.5], [1.0, 1.0]),
            web=PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5),
            mixing_ratio=0.5,
        )
        report = full_threshold_report(mix, 10.0)
        assert report.model_size_lower == pytest.approx(1.0, rel=1e-15)
        assert report.model_size_upper == pytest.approx(5.0 ** (2.0 / 3.0) + 2.0, rel=1e-15)
        lower = optimal_allocation(mix, report.model_size_lower)
        assert lower.knowledge_capacity == 0.0 and lower.learned.tolist() == [0.0, 0.0]
        assert optimal_allocation(mix, report.model_size_lower * 1.01).learned.tolist()[1] > 0.0
        upper = optimal_allocation(mix, report.model_size_upper)
        assert upper.knowledge_capacity == 2.0 and upper.learned.tolist() == [1.0, 1.0]
        assert optimal_allocation(mix, report.model_size_upper * 0.99).learned.tolist()[0] < 1.0
        # The frequency band reads each bound's deciding fact, so it crosses.
        assert report.single_fact_frequency_lower == report.mixing_ratio_lower * 0.5
        assert report.single_fact_frequency_upper == report.mixing_ratio_upper * 0.1
        assert report.mixing_ratio_asymptotic == web_marginal(mix.web, 10.0, "left") / 0.5

    def test_extremes_read_the_facts_with_entropy(self):
        # The most frequent fact has no entropy and costs nothing, so m1 stays 0
        # up to the m0 of the second fact (131.04), not of the first (44.81).
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        mix = MixtureUniverse(KnowledgeUniverse([0.5, 0.1], [0.0, 1.0]), web, 0.25)
        report = full_threshold_report(mix, 200.0)
        m_lower = report.model_size_lower
        assert m_lower == m0_minus(web, 0.25 * 0.1 / 0.75) == pytest.approx(131.037, abs=1e-3)
        assert report.model_size_asymptotic == m_lower
        assert optimal_allocation(mix, m_lower).knowledge_capacity == 0.0
        assert optimal_allocation(mix, math.nextafter(m_lower, math.inf)).knowledge_capacity > 0.0
        assert report.single_fact_frequency_lower == report.mixing_ratio_lower * 0.1
        assert report.single_fact_frequency_upper == report.mixing_ratio_upper * 0.1
        assert report.mixing_ratio_asymptotic == web_marginal(web, 200.0, "left") / 0.1
        # The least frequent fact has no entropy: f_upper reads the least one with entropy.
        mix = MixtureUniverse(KnowledgeUniverse([0.5, 0.1], [1.0, 0.0]), web, 0.25)
        report = full_threshold_report(mix, 200.0)
        assert report.model_size_lower == m0_minus(web, 0.25 * 0.5 / 0.75)
        assert report.single_fact_frequency_upper == report.mixing_ratio_upper * 0.5

    def test_negative_zero_entropy_gives_positive_zero_m1(self):
        # A -0.0 entropy is a zero-entropy fact; the frontier's zero prefix sums
        # to +0.0, so m1 and the sweep's accuracy read +0.0 until fact 1 is learned.
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        mix = MixtureUniverse(KnowledgeUniverse([0.5, 0.1], [-0.0, 1.0]), web, 0.25)
        grid = (10.0, 60.0, 131.0, 132.0, 200.0)
        assert [optimal_allocation(mix, m).knowledge_capacity.hex() for m in grid] == [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ed0532ebef500p-1", "0x1.0000000000000p+0"]
        rows = sweep(SweepConfig(mix, "model_size", grid))
        assert [row.accuracy.hex() for row in rows[:3]] == ["0x0.0p+0"] * 3

    def test_empty_domain_rejected_as_empty(self):
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse([], []),
            web=PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5),
            mixing_ratio=0.5,
        )
        for capacity in (None, 10.0):
            with pytest.raises(ValueError, match="the knowledge domain has no facts"):
                full_threshold_report(mix, capacity)

    def test_domain_of_zero_entropy_facts_rejected(self):
        # m1 == H_tot == 0 at every capacity and ratio: there is no transition.
        knowledge = KnowledgeUniverse([0.5, 0.1], [0.0, 0.0])
        mix = MixtureUniverse(knowledge, PowerLawCurve(1.0, 100.0, 0.5), 0.3)
        for capacity in (None, 100.0):
            with pytest.raises(ValueError, match="need a fact with target_entropy > 0"):
                full_threshold_report(mix, capacity)

    def test_band_exact_for_tabulated_curves(self):
        # The all-or-nothing cases are not power-law-specific: below the
        # lower bound nothing is learned, above the upper bound everything.
        rng = np.random.default_rng(151)
        from helpers import make_tabulated, make_uniform_knowledge

        for _ in range(50):
            mix = MixtureUniverse(
                knowledge=make_uniform_knowledge(rng),
                web=make_tabulated(rng),
                mixing_ratio=float(rng.uniform(0.05, 0.95)),
            )
            report = full_threshold_report(mix)
            h_tot = mix.knowledge.h_tot
            for m in (report.model_size_lower * 0.5, report.model_size_lower):
                assert optimal_allocation(mix, m).knowledge_capacity == 0.0
            for m in (report.model_size_upper, report.model_size_upper * 2.0):
                alloc = optimal_allocation(mix, m)
                assert alloc.knowledge_capacity == h_tot and (alloc.learned == 1.0).all()

    @pytest.mark.parametrize("p, h, c1, web, r", _near_uniform_cases())
    def test_near_uniform_band_brackets_the_solve(self, p, h, c1, web, r):
        # Nothing is learned at m_lower, everything at m_upper.
        mix = MixtureUniverse(KnowledgeUniverse(p, h, c1), web, r)
        report = full_threshold_report(mix)
        lower = optimal_allocation(mix, report.model_size_lower)
        assert lower.knowledge_capacity == 0.0
        assert lower.learned.tolist() == [0.0] * len(p)
        upper = optimal_allocation(mix, report.model_size_upper)
        assert upper.knowledge_capacity == mix.knowledge.h_tot
        assert upper.learned.tolist() == [1.0] * len(p)

    def test_bound_that_overflows_names_the_frequency(self):
        # A*alpha/t overflows for this subnormal p, so no finite model size
        # learns the fact; the solve leaves it unlearned, the report refuses.
        mix = _uniform_mixture(p=1e-318, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = optimal_allocation(mix, 100.0)
        assert alloc.knowledge_capacity == 0.0
        with pytest.raises(ValueError, match="exposure_frequency 1e-318 is too small"):
            full_threshold_report(mix)

    def test_power_law_lower_bound_learns_nothing(self):
        # Threshold reports and the allocator evaluate m0 alike, so not even
        # one ulp of knowledge is learned at the lower bound itself.
        rng = np.random.default_rng(157)
        from helpers import make_power_law, make_uniform_knowledge

        for _ in range(200):
            mix = MixtureUniverse(
                knowledge=make_uniform_knowledge(rng),
                web=make_power_law(rng),
                mixing_ratio=float(rng.uniform(0.05, 0.95)),
            )
            lower = full_threshold_report(mix).model_size_lower
            assert optimal_allocation(mix, lower).knowledge_capacity == 0.0

    def test_scale_invariance_of_transition(self):
        # Multiplying A by c multiplies the power-law m0 by c**(1/(alpha+1)).
        rng = np.random.default_rng(53)
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 0.9))
            a = float(rng.uniform(1.0, 100.0))
            c = float(rng.uniform(0.1, 50.0))
            t = float(rng.uniform(1e-5, 1.0))
            base = m0_minus(PowerLawCurve(floor=0.0, amplitude=a, exponent=alpha), t)
            scaled = m0_minus(
                PowerLawCurve(floor=0.0, amplitude=c * a, exponent=alpha), t
            )
            assert scaled == pytest.approx(base * c ** (1.0 / (alpha + 1.0)), rel=1e-12)


class TestThresholdMixingRatio:
    def test_balanced_point(self):
        knowledge = KnowledgeUniverse([0.5], [1.0])
        web = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        report = full_threshold_report(MixtureUniverse(knowledge, web, 0.5), 1.0)
        assert report.mixing_ratio_lower == pytest.approx(0.5, abs=1e-12)

    def test_worked_example(self):
        knowledge = KnowledgeUniverse(np.full(100, 1e-3), np.ones(100))
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        report = full_threshold_report(MixtureUniverse(knowledge, web, 0.5), 5000.0)
        r_lower, r_upper = report.mixing_ratio_lower, report.mixing_ratio_upper
        g = 50.0 * 5000.0 ** (-1.5)
        assert r_lower == pytest.approx(g / (1e-3 + g), rel=1e-12)
        assert r_lower == pytest.approx(0.1239, abs=1e-4)
        assert r_upper >= r_lower

    def test_lower_bound_matches_allocator_sweep(self):
        knowledge = KnowledgeUniverse(np.full(100, 1e-3), np.ones(100))
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        m = 5000.0
        r_lower = full_threshold_report(MixtureUniverse(knowledge, web, 0.5), m).mixing_ratio_lower
        eps = 1e-6
        below = optimal_allocation(
            MixtureUniverse(knowledge=knowledge, web=web, mixing_ratio=r_lower - eps), m
        )
        above = optimal_allocation(
            MixtureUniverse(knowledge=knowledge, web=web, mixing_ratio=r_lower + eps), m
        )
        assert below.knowledge_capacity == 0.0
        assert above.knowledge_capacity > 0.0

    def test_order_on_random_configs(self):
        rng = np.random.default_rng(59)
        from helpers import make_power_law, make_tabulated, make_uniform_knowledge

        for i in range(100):
            ku = make_uniform_knowledge(rng)
            web = make_power_law(rng) if i % 2 == 0 else make_tabulated(rng)
            m = float(rng.uniform(ku.h_tot * 1.01, ku.h_tot * 20 + 10))
            report = full_threshold_report(MixtureUniverse(ku, web, 0.5), m)
            assert 0.0 <= report.mixing_ratio_lower <= report.mixing_ratio_upper <= 1.0

    def test_upper_is_one_when_capacity_below_h_tot(self):
        knowledge = KnowledgeUniverse([0.5], [10.0])
        web = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        report = full_threshold_report(MixtureUniverse(knowledge, web, 0.5), 5.0)
        assert report.mixing_ratio_upper == 1.0

    def test_band_ends_at_zero_below_the_least_accepted_ratio(self):
        # The web is flat past 96 bits, so any r > 0 leaves it at most 96: at
        # every ratio the solve accepts, 126 = 96 + H_tot learns both facts and
        # 100 gives the first fact at least 4 bits. Below the least such ratio
        # r*p/(1-r) underflows and the solve refuses it, so the band reaches 0.
        web = TabulatedCurve(((0, 64), (32, 40), (96, 24)))
        mix = MixtureUniverse(KnowledgeUniverse([0.5, 0.25], [10.0, 20.0]), web, 0.5)
        report = full_threshold_report(mix, 126.0)
        assert (report.mixing_ratio_lower, report.mixing_ratio_upper) == (0.0, 0.0)
        report = full_threshold_report(mix, 100.0)
        assert (report.mixing_ratio_lower, report.mixing_ratio_upper) == (0.0, 0.5)
        assert report.single_fact_frequency_upper == 0.125
        # At p = 0.75 the least float ratio is accepted, so the probe below it is r = 0.
        mix = MixtureUniverse(KnowledgeUniverse([0.75], [10.0]), web, 0.5)
        report = full_threshold_report(mix, 126.0)
        assert (report.mixing_ratio_lower, report.mixing_ratio_upper) == (0.0, 0.0)

    def test_capacity_whose_marginal_overflows_is_refused(self):
        # g(1e-250) = 50 * 1e375 passes the float range; no inf/inf band is built.
        with pytest.raises(ValueError, match="capacity 1e-250 bits leaves the web marginal inf"):
            full_threshold_report(_uniform_mixture(), 1e-250)


def _frequency_band(web, m, p, h_tot) -> tuple[float, float, float]:
    """(f_lower, f_upper, f_asymptotic) of one fact of frequency p and entropy h_tot."""
    mix = MixtureUniverse(KnowledgeUniverse([p], [h_tot]), web, 0.5)
    report = full_threshold_report(mix, m)
    return (
        report.single_fact_frequency_lower,
        report.single_fact_frequency_upper,
        report.single_fact_frequency_asymptotic,
    )


class TestThresholdFrequency:
    def test_asymptotic_at_unit_capacity(self):
        web = PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5)
        _, _, asym = _frequency_band(web, 1.0, 0.5, 1.0)
        assert asym == pytest.approx(0.5, abs=1e-15)

    def test_loglog_slope_of_asymptotic(self):
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.283)
        ms = np.geomspace(10.0, 1e6, 12)
        asyms = [_frequency_band(web, float(m), 0.01, 10.0)[2] for m in ms]
        slopes = np.diff(np.log(asyms)) / np.diff(np.log(ms))
        assert np.allclose(slopes, -1.283, atol=1e-12)

    def test_exact_approaches_asymptotic(self):
        web = PowerLawCurve(floor=1.0, amplitude=100.0, exponent=0.5)
        m = 2000.0
        g = web_marginal(web, m, "left")
        for p in (1e3 * g, 1e4 * g):
            if p > 1.0:
                continue
            f_lower, _, asym = _frequency_band(web, m, float(p), 1.0)
            assert f_lower == pytest.approx(asym, rel=1e-3)


class TestThresholdBandProperties:
    """Each band is the solve's own exact bound, on uniform and heterogeneous
    facts and entropies (the drawn mixtures) under either web curve kind: the
    solve passes each test at its bound and fails it one float below."""

    @PROPERTY_SETTINGS
    @given(mixtures())
    # The web's middle segment has the marginal t_min = 0.1 itself, so every
    # bit is learned from m0_minus(t_min) + H_tot = 105, not from the flat
    # band's high end, 200 + H_tot.
    @example(
        MixtureUniverse(
            KnowledgeUniverse([0.1], [5.0]),
            TabulatedCurve(points=((0.0, 130.0), (100.0, 30.0), (200.0, 20.0), (300.0, 19.0))),
            0.5,
        )
    )
    def test_model_size_band(self, mix):
        h_tot = mix.knowledge.h_tot
        report = full_threshold_report(mix)
        with no_hang():
            lower = optimal_allocation(mix, report.model_size_lower)
            upper = optimal_allocation(mix, report.model_size_upper)
            below = optimal_allocation(mix, math.nextafter(report.model_size_upper, 0.0))
        assert lower.knowledge_capacity == 0.0 and not lower.learned.any()
        assert upper.knowledge_capacity == h_tot and (upper.learned == 1.0).all()
        assert below.knowledge_capacity < h_tot

    @PROPERTY_SETTINGS
    @given(mixtures(), st.data())
    def test_model_size_lower_is_tight_with_zero_entropy_facts(self, mix, data):
        # Some facts lose their entropy, often the most frequent one; one keeps it.
        knowledge = mix.knowledge
        count = knowledge.fact_count
        picks = data.draw(st.lists(st.integers(0, count - 1), max_size=count - 1, unique=True))
        if count > 1 and data.draw(st.booleans()):
            top = int(np.argmax(knowledge.p))
            picks = [top] + [i for i in picks if i != top][:count - 2]
        h = knowledge.h.copy()
        h[picks] = 0.0
        mix = replace(mix, knowledge=KnowledgeUniverse(knowledge.p, h, knowledge.irreducible_loss))
        m_lower = full_threshold_report(mix).model_size_lower
        with no_hang():
            at = optimal_allocation(mix, m_lower)
            above = optimal_allocation(mix, math.nextafter(m_lower, math.inf))
        assert at.knowledge_capacity == 0.0 < above.knowledge_capacity

    @PROPERTY_SETTINGS
    @given(mixtures(), log_uniform(0.3, 3))
    # Here g/(p_max + g) rounds to 50/51, where the solve learns nothing; the
    # least ratio at which it learns is one ulp above.
    @example(
        MixtureUniverse(
            KnowledgeUniverse([1e-3, 5e-4], [5.0, 5.0], 0.5), PowerLawCurve(1.0, 100.0, 0.5), 0.1
        ),
        10.0,
    )
    def test_mixing_ratio_band(self, mix, excess):
        h_tot = mix.knowledge.h_tot
        capacity = h_tot * excess
        report = full_threshold_report(mix, capacity)
        lower, upper = report.mixing_ratio_lower, report.mixing_ratio_upper

        def solve(r):
            return optimal_allocation(replace(mix, mixing_ratio=r), capacity)

        with no_hang():
            if lower > 0.0:
                alloc = solve(math.nextafter(lower, 0.0))
                assert alloc.knowledge_capacity == 0.0 and not alloc.learned.any()
            if 0.0 < lower < 1.0:
                alloc = solve(lower)
                assert alloc.knowledge_capacity > 0.0 and alloc.learned.any()
            if upper > 0.0:
                assert solve(math.nextafter(upper, 0.0)).knowledge_capacity < h_tot
            if 0.0 < upper < 1.0:
                alloc = solve(upper)
                assert alloc.knowledge_capacity == h_tot and (alloc.learned == 1.0).all()


def _hetero_mixture(rng, k=60):
    p = rng.uniform(0.05, 1.0, size=k)
    return MixtureUniverse(
        knowledge=KnowledgeUniverse(
            p / p.sum() * 0.3, rng.uniform(0.1, 10.0, size=k), float(rng.uniform(0.0, 2.0))
        ),
        web=PowerLawCurve(floor=1.0, amplitude=50.0, exponent=0.4),
        mixing_ratio=0.1,
    )


class TestApplySubsampling:
    def _mixture(self, k=100, p=1e-4):
        return MixtureUniverse(
            knowledge=KnowledgeUniverse(np.full(k, p), np.full(k, 2.0)),
            web=PowerLawCurve(floor=1.0, amplitude=50.0, exponent=0.4),
            mixing_ratio=0.1,
        )

    def test_identity(self):
        mix = self._mixture()
        assert apply_subsampling(mix, 1.0) is mix

    def test_quarter(self):
        mix = apply_subsampling(self._mixture(), 0.25)
        assert mix.knowledge.fact_count == 25
        assert mix.knowledge.p.tolist() == pytest.approx([4e-4] * 25, rel=1e-12)

    def test_mass_conserved(self):
        # Uniform case with keep * K integral: total mass identical.
        mix = self._mixture()
        sub = apply_subsampling(mix, 0.25)
        assert math.fsum(sub.knowledge.p.tolist()) == (
            pytest.approx(math.fsum(mix.knowledge.p.tolist()), rel=1e-12)
        )

    def test_halving_facts_halves_asymptotic_r_threshold(self):
        mix = self._mixture(k=100, p=1e-4)
        m = 5000.0
        before = full_threshold_report(mix, m).mixing_ratio_asymptotic
        half = apply_subsampling(mix, 0.5)
        after = full_threshold_report(half, m).mixing_ratio_asymptotic
        assert after == pytest.approx(before / 2.0, abs=1e-9)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="keep_ratio"):
            apply_subsampling(self._mixture(), 0.0)

    def test_matches_per_fact_formula_exactly(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            mix = _hetero_mixture(rng)
            keep = float(rng.uniform(0.3, 1.0))
            kept = math.ceil(keep * mix.knowledge.fact_count)
            sub = apply_subsampling(mix, keep)
            expected = [p / keep for p in mix.knowledge.p[:kept].tolist()]
            assert np.array_equal(sub.knowledge.p, expected)
            assert np.array_equal(sub.knowledge.h, mix.knowledge.h[:kept])
            assert sub.knowledge.irreducible_loss == mix.knowledge.irreducible_loss


class TestApplyCkm:
    def _mixture(self):
        return MixtureUniverse(
            knowledge=KnowledgeUniverse(np.full(50, 1e-4), np.full(50, 2.0)),
            web=PowerLawCurve(floor=1.0, amplitude=50.0, exponent=0.4),
            mixing_ratio=0.1,
        )

    def test_identity(self):
        mix = self._mixture()
        assert apply_ckm(mix, 0.0, 200.0, 20.0) is mix

    def test_multiplier_formula(self):
        mix = apply_ckm(self._mixture(), 0.3, 200.0, 20.0)
        expected = (1.0 + 0.3 * 10.0) / 1.3
        assert expected == pytest.approx(3.0769, abs=1e-4)
        assert mix.knowledge.p.tolist() == pytest.approx([1e-4 * expected] * 50, rel=1e-12)

    def test_multiplier_exceeds_one_iff_compact_cheaper(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            tau = float(rng.uniform(0.01, 5.0))
            t_o = float(rng.uniform(10.0, 500.0))
            t_c = float(rng.uniform(1.0, 500.0))
            mult = (1.0 + tau * t_o / t_c) / (1.0 + tau)
            if t_c < t_o:
                assert mult > 1.0
            elif t_c > t_o:
                assert mult < 1.0

    def test_all_compact_limit(self):
        mix = apply_ckm(self._mixture(), 1e9, 200.0, 20.0)
        assert float(mix.knowledge.p[0]) == pytest.approx(
            1e-4 * 10.0, rel=1e-6
        )

    def test_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="token counts"):
            apply_ckm(self._mixture(), 0.5, 0.0, 10.0)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 200.0, 20.0), "ckm_ratio"),
        ((math.inf, 200.0, 20.0), "ckm_ratio"),
        ((0.5, math.nan, 20.0), "original_tokens_per_fact"),
        ((0.5, math.inf, 20.0), "original_tokens_per_fact"),
        ((0.5, 200.0, math.nan), "compact_tokens_per_fact"),
        ((0.5, 200.0, math.inf), "compact_tokens_per_fact"),
    ])
    def test_non_finite_argument_is_refused_by_name(self, args, name):
        with pytest.raises(ValueError) as refused:
            apply_ckm(self._mixture(), *args)
        message = str(refused.value)
        assert "must be finite" in message and name in message
        assert "exposure_frequency" not in message

    def test_matches_per_fact_formula_exactly(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            mix = _hetero_mixture(rng)
            tau, t_o = float(rng.uniform(0.01, 2.0)), float(rng.uniform(10.0, 100.0))
            t_c = float(rng.uniform(t_o, 500.0))
            multiplier = (1.0 + tau * t_o / t_c) / (1.0 + tau)
            out = apply_ckm(mix, tau, t_o, t_c)
            assert np.array_equal(
                out.knowledge.p, [p * multiplier for p in mix.knowledge.p.tolist()]
            )
            assert np.array_equal(out.knowledge.h, mix.knowledge.h)
            assert out.knowledge.irreducible_loss == mix.knowledge.irreducible_loss


class TestThresholdReportSerialization:
    def test_field_names(self):
        mix = _uniform_mixture()
        doc = full_threshold_report(mix, 4000.0).to_dict()
        assert set(doc) == {
            "m_lower",
            "m_upper",
            "r_lower",
            "r_upper",
            "f_lower",
            "f_upper",
            "f_asymptotic",
            "r_asymptotic",
            "m_asymptotic",
            "exponent",
        }
        assert doc["r_lower"] is not None

    def test_capacityless_report_leaves_ratio_fields_empty(self):
        doc = full_threshold_report(_uniform_mixture()).to_dict()
        assert doc["r_lower"] is None and doc["f_lower"] is None
