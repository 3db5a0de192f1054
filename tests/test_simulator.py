"""Sweeps, the subset experiment, and the threshold-frequency law."""

import math

import numpy as np
import pytest

from helpers import allocation_grid_oracle
from mixcap import corpus
from mixcap.corpus import RECORD_ENTROPY_BITS, power_law_partition
from mixcap.allocator import full_threshold_report, optimal_allocation
from mixcap.analysis import fit_loglog
from mixcap.simulator import (
    SubsetExperiment,
    SweepConfig,
    THRESHOLD_LAW_REFERENCE,
    accuracy,
    build_subset_universe,
    count_accuracy,
    run_subset_experiment,
    subset_long_csv,
    subset_thresholds_csv,
    sweep,
    sweep_csv,
)
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    m0_minus,
)


def uniform_mixture(p=1e-3, k=1000, h=5.0, r=0.25, amplitude=100.0, alpha=0.5, c1=1.0):
    return MixtureUniverse(
        knowledge=KnowledgeUniverse(np.full(k, p), np.full(k, h), irreducible_loss=c1),
        web=PowerLawCurve(floor=1.0, amplitude=amplitude, exponent=alpha),
        mixing_ratio=r,
    )


class TestAccuracy:
    def test_extremes(self):
        mix = uniform_mixture()
        report = full_threshold_report(mix)
        low = optimal_allocation(mix, report.model_size_lower * 0.5)
        assert accuracy(low, mix.knowledge) == 0.0
        assert count_accuracy(low) == 0.0
        high = optimal_allocation(mix, report.model_size_upper * 2.0)
        assert accuracy(high, mix.knowledge) == 1.0
        assert count_accuracy(high) == 1.0

    def test_quarter_point(self):
        mix = uniform_mixture()
        report = full_threshold_report(mix)
        h_tot = mix.knowledge.h_tot
        m = report.model_size_lower + h_tot / 4.0
        alloc = optimal_allocation(mix, m)
        assert alloc.knowledge_capacity == pytest.approx(h_tot / 4.0, rel=1e-9)
        assert accuracy(alloc, mix.knowledge) == pytest.approx(0.25, rel=1e-9)

    def test_vacuous_universe(self):
        ku = KnowledgeUniverse([], [])
        mix = MixtureUniverse(
            knowledge=ku,
            web=PowerLawCurve(floor=0.0, amplitude=1.0, exponent=0.5),
            mixing_ratio=0.5,
        )
        alloc = optimal_allocation(mix, 10.0)
        assert accuracy(alloc, ku) == 1.0

    def test_bookkeeping_conservation(self):
        mix = uniform_mixture()
        h_tot = mix.knowledge.h_tot
        for m in (100.0, 3000.0, 6000.0, 9000.0):
            alloc = optimal_allocation(mix, m)
            acc = accuracy(alloc, mix.knowledge)
            assert acc * h_tot + (h_tot - alloc.knowledge_capacity) == pytest.approx(
                h_tot, rel=1e-12
            )


class TestSweep:
    def test_model_size_transition_shape(self):
        mix = uniform_mixture()
        report = full_threshold_report(mix)
        lo, hi = report.model_size_lower, report.model_size_upper
        grid = np.concatenate(
            [
                np.linspace(lo * 0.2, lo, 4),
                np.linspace(lo * 1.02, hi * 0.98, 6),
                np.linspace(hi, hi * 2, 4),
            ]
        )
        config = SweepConfig(mixture=mix, sweep_axis="model_size", grid=tuple(grid))
        rows = sweep(config)
        accs = [r.accuracy for r in rows]
        assert all(a == 0.0 for a in accs[:4])
        assert all(a == 1.0 for a in accs[-4:])
        assert all(b >= a for a, b in zip(accs, accs[1:]))
        # The rise spans at most m_upper - m_lower.
        window = (hi - mix.knowledge.h_tot) - lo + mix.knowledge.h_tot
        rising = [r.axis_value for r in rows if 0.0 < r.accuracy < 1.0]
        if rising:
            assert max(rising) - min(rising) <= window + 1e-9

    def test_mixing_ratio_all_zero_below_band(self):
        mix = uniform_mixture()
        grid = (0.01, 0.02, 0.05)
        m = 100.0  # far below m0 at the largest grid ratio
        lower_at_max = full_threshold_report(
            MixtureUniverse(knowledge=mix.knowledge, web=mix.web, mixing_ratio=max(grid))
        ).model_size_lower
        assert m < lower_at_max
        config = SweepConfig(
            mixture=mix, sweep_axis="mixing_ratio", grid=grid, total_capacity=m
        )
        rows = sweep(config)
        assert all(r.accuracy == 0.0 for r in rows)

    def test_mixing_ratio_transition_matches_band(self):
        mix = uniform_mixture(p=1e-3, k=100, h=2.0)
        m = 2000.0
        report = full_threshold_report(mix, m)
        r_lower, r_upper = report.mixing_ratio_lower, report.mixing_ratio_upper
        grid = sorted(
            {r_lower * 0.3, r_lower * 0.9, min(r_upper * 1.1, 0.99), 0.995}
        )
        config = SweepConfig(
            mixture=mix, sweep_axis="mixing_ratio", grid=tuple(grid), total_capacity=m
        )
        rows = sweep(config)
        assert rows[0].accuracy == 0.0
        assert rows[1].accuracy == 0.0
        assert rows[-2].accuracy == 1.0
        assert rows[-1].accuracy == 1.0

    def test_accuracy_monotone_both_axes(self):
        mix = uniform_mixture()
        ms = tuple(np.linspace(100.0, 9000.0, 15))
        rows = sweep(SweepConfig(mixture=mix, sweep_axis="model_size", grid=ms))
        accs = [r.accuracy for r in rows]
        assert all(b >= a for a, b in zip(accs, accs[1:]))
        rs = tuple(np.linspace(0.02, 0.98, 15))
        rows = sweep(
            SweepConfig(
                mixture=mix, sweep_axis="mixing_ratio", grid=rs, total_capacity=4000.0
            )
        )
        accs = [r.accuracy for r in rows]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_config_validation(self):
        mix = uniform_mixture()
        with pytest.raises(ValueError, match="sweep_axis"):
            SweepConfig(mixture=mix, sweep_axis="nope", grid=(1.0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepConfig(mixture=mix, sweep_axis="model_size", grid=(2.0, 1.0))
        with pytest.raises(ValueError, match="total_capacity"):
            SweepConfig(mixture=mix, sweep_axis="mixing_ratio", grid=(0.1, 0.2))
        for grid in ((-5.0, 1e3), (1e3, math.inf), (math.nan,)):
            with pytest.raises(ValueError, match=r"grid entries must be finite and >= 0"):
                SweepConfig(mixture=mix, sweep_axis="model_size", grid=grid)
        for grid in ((0.1, 2.0), (0.0, 0.5), (0.5, 1.0), (math.nan,)):
            with pytest.raises(ValueError, match=r"grid entries must be in \(0, 1\)"):
                SweepConfig(mixture=mix, sweep_axis="mixing_ratio", grid=grid, total_capacity=1e3)
        # Each axis checks its own range: a capacity grid may start at 0 and pass 1.
        SweepConfig(mixture=mix, sweep_axis="model_size", grid=(0.0, 2.0))
        # A fixed capacity fails when the config is built, not at the first point.
        for axis, grid in (("mixing_ratio", (0.1, 0.2)), ("model_size", (1.0, 2.0))):
            for capacity in (-5.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="total_capacity must be finite and >= 0"):
                    SweepConfig(mixture=mix, sweep_axis=axis, grid=grid, total_capacity=capacity)

    def test_csv_shape(self):
        mix = uniform_mixture()
        rows = sweep(
            SweepConfig(mixture=mix, sweep_axis="model_size", grid=(100.0, 5000.0))
        )
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "axis,accuracy,accuracy_count,knowledge_loss,web_loss,mixture_loss"
        assert len(lines) == 3


def hetero_mixture(k=2000, seed=3):
    rng = np.random.default_rng(seed)
    raw = rng.pareto(1.5, k) + 1.0
    h = rng.uniform(20.0, 60.0, k)
    h[rng.choice(k, 20, replace=False)] = 0.0
    return MixtureUniverse(
        KnowledgeUniverse(raw / raw.sum(), h, 0.5), PowerLawCurve(1.0, 1e5, 0.3), 0.05
    )


class TestLazyLearned:
    def test_scoring_a_solve_builds_no_learned_array(self, monkeypatch):
        mix = hetero_mixture()
        frontier, r = mix.knowledge._frontier, mix.mixing_ratio
        first, last = (m0_minus(mix.web, r * float(frontier.p_sorted[i]) / (1.0 - r))
                       for i in (0, -1))
        capacities = tuple(np.geomspace(0.5 * first, 2.0 * (last + frontier.h_tot), 25).tolist())

        def refuse(self, capacity):
            raise AssertionError("fractions_at called")

        monkeypatch.setattr(type(frontier), "fractions_at", refuse)
        rows = sweep(SweepConfig(mixture=mix, sweep_axis="model_size", grid=capacities))
        assert any(0.0 < row.accuracy_count < 1.0 for row in rows)
        sweep(SweepConfig(mixture=mix, sweep_axis="mixing_ratio", grid=(0.01, 0.05, 0.5),
                          total_capacity=capacities[12]))
        alloc = optimal_allocation(mix, capacities[12])
        accuracy(alloc, mix.knowledge)
        count_accuracy(alloc)
        hash(alloc)

    def test_learned_is_built_once_on_first_read(self, monkeypatch):
        mix = hetero_mixture()
        frontier_type = type(mix.knowledge._frontier)
        build = frontier_type.fractions_at
        calls = []

        def counted(self, capacity):
            calls.append(capacity)
            return build(self, capacity)

        monkeypatch.setattr(frontier_type, "fractions_at", counted)
        alloc = optimal_allocation(mix, 0.5 * mix.knowledge.h_tot + 1e4)
        assert calls == []
        first = alloc.learned
        assert calls == [alloc.knowledge_capacity]
        assert alloc.learned is first
        assert len(calls) == 1


class TestSubsetExperiment:
    @pytest.mark.parametrize(
        "grid, match",
        [
            ((-5.0, 1e9), "finite and >= 0"),
            ((1e9, math.inf), "finite and >= 0"),
            ((math.nan,), "finite and >= 0"),
            ((1e10, 1e9), "strictly increasing"),
        ],
    )
    def test_capacity_grid_validation(self, grid, match):
        with pytest.raises(ValueError, match=f"capacity_grid.*{match}"):
            SubsetExperiment(capacity_grid=grid)

    @pytest.mark.parametrize("exponent", [math.inf, 2000.0, 160.0])
    def test_exponent_whose_frequencies_underflow_is_refused(self, exponent):
        with pytest.raises(ValueError, match=f"^powerlaw_exponent {exponent} is out of range"):
            SubsetExperiment(powerlaw_exponent=exponent)

    def test_saturated_capacity_gives_sentinel(self):
        exp = SubsetExperiment(
            group_count=5,
            group_size=3,
            capacity_grid=(1e12,),
            web_curve=PowerLawCurve(floor=1.0, amplitude=1e6, exponent=0.283),
        )
        res = run_subset_experiment(exp)[0]
        assert all(a == 1.0 for a in res.group_accuracies)
        assert res.threshold_frequency is None

    def test_two_group_toy(self):
        # Group weights 1 and 2**-1.5 (normalized); capacity large enough for
        # group 1 only; the threshold lands on group 2's corpus frequency.
        # Group-1 facts are worth learning once the web keeps ~5.7 bits and
        # group-2 facts only once it keeps ~11.4, so capacity 10 learns
        # exactly group 1 (4 bits) and leaves group 2 untouched.
        exp = SubsetExperiment(
            group_count=2,
            group_size=2,
            powerlaw_exponent=1.5,
            mixing_ratio=0.5,
            entropy_per_fact=2.0,
            web_curve=PowerLawCurve(floor=0.0, amplitude=10.0, exponent=0.5),
            capacity_grid=(10.0,),
        )
        knowledge = build_subset_universe(exp)
        z = 1.0 + 2.0**-1.5
        expected_p = [1.0 / z / 2.0] * 2 + [2.0**-1.5 / z / 2.0] * 2
        assert knowledge.p.tolist() == pytest.approx(expected_p)
        mixture = MixtureUniverse(
            knowledge=knowledge, web=exp.web_curve, mixing_ratio=0.5
        )
        alloc = optimal_allocation(mixture, 10.0)
        assert alloc.mixture_loss <= allocation_grid_oracle(mixture, 10.0) + 1e-6
        res = run_subset_experiment(exp)[0]
        assert res.group_accuracies[0] == 1.0
        assert res.group_accuracies[1] < exp.accuracy_target
        assert res.threshold_frequency == pytest.approx(0.5 * 2.0**-1.5 / z / 2.0)

    def test_group_accuracies_monotone(self):
        exp = SubsetExperiment(capacity_grid=tuple(np.geomspace(1e9, 1e10, 4)))
        for res in run_subset_experiment(exp):
            acc = np.array(res.group_accuracies)
            assert np.all(np.diff(acc) <= 1e-12)

    def test_default_slope_recovers_exponent(self):
        exp = SubsetExperiment()
        results = run_subset_experiment(exp)
        pts = [
            (r.capacity, r.threshold_frequency)
            for r in results
            if r.threshold_frequency is not None
        ]
        fit = fit_loglog(pts)
        target = -(exp.web_curve.exponent + 1.0)
        assert fit.params["slope"] == pytest.approx(target, rel=0.02)

    def test_doubling_ratio_leaves_threshold_frequency(self):
        # f_thres is a per-fact corpus frequency, asymptotically independent
        # of r; finer groups keep the staircase quantization below 1%.
        def f_at(r, cap):
            exp = SubsetExperiment(
                group_count=1000, group_size=10, mixing_ratio=r, capacity_grid=(cap,)
            )
            return run_subset_experiment(exp)[0].threshold_frequency

        for cap in (4e9, 8e9):
            f1, f2 = f_at(0.01, cap), f_at(0.02, cap)
            assert abs(math.log(f2 / f1)) <= 0.01

    def test_csv_outputs(self):
        exp = SubsetExperiment(group_count=3, group_size=2, capacity_grid=(1e9, 1e12))
        results = run_subset_experiment(exp)
        long = subset_long_csv(results, exp).strip().split("\n")
        assert long[0] == "capacity,group,weight,accuracy"
        assert len(long) == 1 + 2 * 3
        thr = subset_thresholds_csv(results).strip().split("\n")
        assert thr[0] == "capacity,f_thres"
        assert thr[-1].endswith("NA")  # saturated capacity carries the sentinel

    def test_universe_matches_per_fact_rows_exactly(self):
        exp = SubsetExperiment(group_count=7, group_size=5, powerlaw_exponent=1.2)
        p = [w / exp.group_size for w in power_law_partition(7, 1.2)
             for _ in range(exp.group_size)]
        knowledge = build_subset_universe(exp)
        assert np.array_equal(knowledge.p, p)
        assert np.array_equal(knowledge.h, [exp.entropy_per_fact] * 35)

    def test_partition_computed_once_per_experiment(self, monkeypatch):
        calls = []

        def counting_partition(*args):
            calls.append(args)
            return power_law_partition(*args)

        # SubsetExperiment.weights looks the function up in corpus when it runs.
        monkeypatch.setattr(corpus, "power_law_partition", counting_partition)
        exp = SubsetExperiment(group_count=4, group_size=3, capacity_grid=(1e9, 1e10))
        subset_long_csv(run_subset_experiment(exp), exp)
        assert calls == [(4, 1.5)]

    def test_entropy_per_fact_defaults_to_the_record_entropy(self):
        assert SubsetExperiment().entropy_per_fact == RECORD_ENTROPY_BITS
        assert SubsetExperiment(entropy_per_fact=2.0).entropy_per_fact == 2.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_entropy_per_fact_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=r"^entropy_per_fact must be finite and > 0"):
            SubsetExperiment(entropy_per_fact=value)


class TestThresholdLaw:
    def test_exact_power_law_round_trip(self):
        ms = np.geomspace(10.0, 1e5, 8)
        pts = [(float(m), 7.0 * float(m) ** (-1.283)) for m in ms]
        fit = fit_loglog(pts)
        assert fit.params["slope"] == pytest.approx(-1.283, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_frequency_slope_zero(self):
        fit = fit_loglog([(10.0, 0.5), (100.0, 0.5), (1000.0, 0.5)])
        assert fit.params["slope"] == 0.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_loglog([(1.0, 1.0), (2.0, 0.5)])

    def test_reference_pair_documented(self):
        assert THRESHOLD_LAW_REFERENCE == {
            "fitted_slope": 1.152,
            "predicted_exponent": 1.283,
        }
