"""Property tests of optimal_allocation and mixture JSON, entropies 1e-3 to 1e15 bits.

Each example runs under a hypothesis deadline and a SIGALRM guard, so a
solver that never returns fails the test instead of stalling the suite.
The oracle tests keep the linear-scan form of the solve (count every fact
whose bound reaches its cumulative entropy, then write every learned
fraction through the sort order) and require the bisection to match it bit
for bit. The oracles build their own greedy order from p and h, so they do
not depend on how the frontier lays out its facts.
"""

import contextlib
import json
import math
import pickle
import signal
from dataclasses import replace
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixcap.allocator import Allocation, _grid_solve, full_threshold_report, optimal_allocation
from mixcap.simulator import (
    SubsetCapacityResult,
    SubsetExperiment,
    SweepConfig,
    SweepRow,
    accuracy,
    build_subset_universe,
    count_accuracy,
    run_subset_experiment,
    sweep,
)
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    eval_web_loss,
    m0_minus,
    mixture_from_dict,
    mixture_to_dict,
)

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=timedelta(seconds=2), derandomize=True, database=None
)
HANG_SECONDS = 10


@contextlib.contextmanager
def no_hang():
    def timeout(signum, frame):
        raise TimeoutError(f"optimal_allocation did not return within {HANG_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(HANG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


entropies = log_uniform(-3, 15)
ratios = st.floats(0.001, 0.999)


@st.composite
def knowledge(draw):
    k = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    mass = draw(st.floats(0.05, 1.0))
    # Repeated frequencies exercise ties in the frontier order.
    if draw(st.booleans()):
        weights[:] = weights[0]
    h = np.array(draw(st.lists(entropies, min_size=k, max_size=k)))
    return KnowledgeUniverse(weights / weights.sum() * mass * (1 - 1e-12), h, 0.5)


@st.composite
def web_curves(draw):
    if draw(st.booleans()):
        return PowerLawCurve(
            floor=draw(st.floats(0.0, 3.0)),
            amplitude=draw(log_uniform(-2, 8)),
            exponent=draw(st.floats(0.05, 0.95)),
        )
    # Convex and non-increasing: slopes ascend toward 0 along the capacities.
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(log_uniform(-3, 15), min_size=n, max_size=n))
    slopes = sorted(draw(st.lists(log_uniform(-12, 1), min_size=n, max_size=n)), reverse=True)
    caps, losses = [0.0], [0.0]
    for gap, slope in zip(gaps, slopes):
        caps.append(caps[-1] + gap)
        losses.append(losses[-1] - slope * gap)
    losses = [loss - losses[-1] for loss in losses]
    try:
        return TabulatedCurve(points=tuple(zip(caps, losses)))
    except ValueError:  # rounding merged two capacities or broke convexity
        assume(False)


@st.composite
def mixtures(draw):
    return MixtureUniverse(
        knowledge=draw(knowledge()), web=draw(web_curves()), mixing_ratio=draw(ratios)
    )


def greedy_order(knowledge):
    """The facts with entropy, by descending p with ties by index, and their
    cumulative entropies led by 0.0; zero-entropy facts cost nothing and are left out."""
    p, h = knowledge.p, knowledge.h
    order = np.flatnonzero(h != 0.0)
    order = order[np.argsort(-p[order], kind="stable")]
    return order, np.concatenate(([0.0], np.cumsum(h[order])))


@st.composite
def capacities(draw, mixture):
    """0, a multiple of the total entropy, or a few ulps from a fact's phase transition.

    Fact k of the greedy order starts to be learned at m0_minus(r*p_k/(1-r))
    plus the entropy of the facts before it, and is whole h_k bits later.
    """
    kind = draw(st.sampled_from(["zero", "scale", "boundary"]))
    if kind == "zero":
        return 0.0
    if kind == "scale":
        return mixture.knowledge.h_tot * draw(log_uniform(-6, 3))
    order, cum_h = greedy_order(mixture.knowledge)
    if not order.size:
        return 0.0
    k = draw(st.integers(0, order.size - 1))
    r = mixture.mixing_ratio
    onset = m0_minus(mixture.web, r * float(mixture.knowledge.p[order[k]]) / (1.0 - r))
    before = float(cum_h[k])
    h_k = mixture.knowledge.h[order[k]]
    capacity = onset + before + draw(st.sampled_from([0.0, 1.0, 0.5])) * h_k
    for _ in range(draw(st.integers(-3, 3))):
        capacity = np.nextafter(capacity, math.inf)
    return max(float(capacity), 0.0)


@st.composite
def cases(draw):
    mixture = draw(mixtures())
    return mixture, draw(capacities(mixture))


def frontier_m0(mixture):
    """m0_minus(r*p_k/(1-r)) of every fact with entropy in greedy order, one scalar call each."""
    r, p = mixture.mixing_ratio, mixture.knowledge.p
    order, _ = greedy_order(mixture.knowledge)
    return np.array([m0_minus(mixture.web, r * pk / (1.0 - r)) for pk in p[order].tolist()])


def linear_scan_allocation(mixture, total):
    """(m1, m2, loss1, loss2, loss, learned, predicate) by the linear-scan solve.

    predicate[k] is the float test M - m0_k >= cum_h[k + 1] of fact k of the
    greedy order.
    """
    web, r, knowledge = mixture.web, mixture.mixing_ratio, mixture.knowledge
    _, cum_h = greedy_order(knowledge)
    bound = total - frontier_m0(mixture)
    predicate = bound >= cum_h[1:]
    j = int(np.count_nonzero(predicate))
    if j == len(bound):
        m1 = min(knowledge.h_tot, total)
    else:
        m1 = min(max(float(bound[j]), float(cum_h[j])), knowledge.h_tot)
    m2 = total - m1
    loss1, _, _, learned = greedy_frontier(knowledge, m1)
    loss2 = eval_web_loss(web, m2)
    return m1, m2, loss1, loss2, r * loss1 + (1.0 - r) * loss2, learned, predicate


def greedy_frontier(knowledge, capacity):
    """(loss, k, f, learned) at a capacity, over K-entry prefix sums that
    special-case the empty prefix.

    Zero-entropy facts are learned whole at any capacity > 0; the facts with
    entropy are learned in greedy order, with their sorted p and h as their
    own arrays. k counts the facts learned whole, f is the boundary fact's
    share, and learned holds every fact's fraction in original order.
    """
    p, h = knowledge.p, knowledge.h
    count, h_tot, c1 = p.size, knowledge.h_tot, knowledge.irreducible_loss
    order, _ = greedy_order(knowledge)
    p_sorted, h_sorted = p[order], h[order]
    cum_h, cum_ph = np.cumsum(h_sorted), np.cumsum(p_sorted * h_sorted)
    total_ph = float(cum_ph[-1]) if order.size else 0.0
    learned = np.zeros(count)
    if capacity >= h_tot:
        learned[:] = 1.0
        return c1, count, 0.0, learned
    if not capacity > 0.0:
        return c1 + total_ph, 0, 0.0, learned
    k = int(np.searchsorted(cum_h, capacity, side="right"))
    rest = capacity - (float(cum_h[k - 1]) if k > 0 else 0.0)
    gained = float(cum_ph[k - 1]) if k > 0 else 0.0
    f = 0.0
    if k < order.size:
        gained += float(p_sorted[k]) * rest
        f = rest / float(h_sorted[k])
        learned[order[k]] = f
    learned[order[:k]] = 1.0
    learned[h == 0.0] = 1.0
    return c1 + (total_ph - gained), count - order.size + k, f, learned


def assert_matches_linear_scan(mixture, total):
    alloc = optimal_allocation(mixture, total)
    *scalars, learned, predicate = linear_scan_allocation(mixture, total)
    got = (
        alloc.knowledge_capacity,
        alloc.web_capacity,
        alloc.knowledge_loss,
        alloc.web_loss,
        alloc.mixture_loss,
    )
    # float.hex tells -0.0 from 0.0; tobytes compares every bit of learned.
    assert [float(v).hex() for v in got] == [float(v).hex() for v in scalars]
    assert alloc.learned.dtype == learned.dtype
    assert alloc.learned.tobytes() == learned.tobytes()
    # Bisection is sound only where the predicate holds on a prefix.
    assert not np.any(predicate[1:] & ~predicate[:-1])


class TestLinearScanOracle:
    @PROPERTY_SETTINGS
    @given(cases())
    def test_bisection_matches_linear_scan(self, case):
        mixture, total = case
        with no_hang():
            assert_matches_linear_scan(mixture, total)

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_pareto_universe_of_2e4_facts(self, tabulated):
        rng = np.random.default_rng(20_000)
        raw = rng.pareto(1.5, 20_000) + 1.0
        p, h = raw / raw.sum(), rng.uniform(20.0, 60.0, raw.size)
        # Zero-entropy facts cost nothing, so any positive budget learns them.
        h[rng.choice(h.size, 200, replace=False)] = 0.0
        if tabulated:
            web = TabulatedCurve(points=((0.0, 9.0), (1e4, 5.0), (1e5, 3.0), (1e6, 2.5)))
        else:
            web = PowerLawCurve(floor=1.0, amplitude=1e5, exponent=0.3)
        mixture = MixtureUniverse(KnowledgeUniverse(p, h, 0.5), web, 0.05)
        h_tot = mixture.knowledge.h_tot
        order, cum_h = greedy_order(mixture.knowledge)
        onsets = frontier_m0(mixture) + cum_h[:-1]
        picks = rng.choice(order.size, 40, replace=False)
        totals = [0.0, h_tot, 10.0 * h_tot]
        totals += np.geomspace(1.0, 4.0 * (onsets.max() + h_tot), 60).tolist()
        for k in picks:
            for edge in (onsets[k], onsets[k] + h[order[k]]):
                totals += [float(edge), float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, math.inf))]
        for total in totals:
            assert_matches_linear_scan(mixture, total)


class TestZeroLedFrontier:
    @PROPERTY_SETTINGS
    @given(cases(), st.integers(0, 8))
    def test_loss_and_boundary_match_the_empty_prefix_formulas(self, case, zeros):
        mixture, total = case
        knowledge = mixture.knowledge
        # The `zeros` most frequent facts get entropy 0.
        h = knowledge.h.copy()
        h[np.argsort(-knowledge.p, kind="stable")[:zeros]] = 0.0
        knowledge = KnowledgeUniverse(knowledge.p, h, knowledge.irreducible_loss)
        frontier = knowledge._frontier
        assert frontier.cum_h.size == frontier.cum_ph.size == frontier.count + 1
        assert frontier.cum_h[0] == frontier.cum_ph[0] == 0.0
        _, cum_h = greedy_order(knowledge)
        # Inside every fact with entropy, k = K at cum_h[K], and every prefix end.
        capacities = [total, -0.0, 0.0, knowledge.h_tot] + (0.5 * cum_h[1:]).tolist()
        for edge in frontier.cum_h.tolist():
            capacities += [edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, math.inf))]
        for capacity in capacities:
            loss, k, f, _ = greedy_frontier(knowledge, capacity)
            index = frontier.index(capacity)
            assert index == int(np.searchsorted(frontier.cum_h[1:], capacity, side="right"))
            assert index == frontier.zeros + int(np.searchsorted(cum_h[1:], capacity, "right"))
            assert frontier.loss_at(capacity, index).hex() == loss.hex()
            got_k, got_f = frontier.boundary(capacity, index)
            assert (got_k, got_f.hex()) == (k, f.hex())

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([0.0, -0.0, 1.0, 2.0])),
                    min_size=1, max_size=40))
    def test_zero_entropy_facts_lead_the_order_by_index(self, facts):
        # Integer weights tie often; -0.0 entropies are zero-entropy facts too.
        weights = np.array([w for w, _ in facts], dtype=float)
        p, h = weights / weights.sum(), np.array([e for _, e in facts])
        frontier = KnowledgeUniverse(p, h)._frontier
        order = np.lexsort((np.arange(h.size), np.where(h == 0, 0.0, -p), h != 0))
        assert frontier.order.tolist() == order.tolist()
        assert frontier.zeros == np.count_nonzero(h == 0.0)
        # The zero prefix of the sums is +0.0, whatever the sign of its entropies.
        prefix = frontier.cum_h[:frontier.zeros + 1].tolist()
        assert [v.hex() for v in prefix] == ["0x0.0p+0"] * (frontier.zeros + 1)


class TestAllocationProperties:
    @PROPERTY_SETTINGS
    @given(cases())
    def test_split_is_exact_and_learned_is_a_prefix(self, case):
        mixture, total = case
        with no_hang():
            alloc = optimal_allocation(mixture, total)
        # m2 is the floating-point complement of m1, so m1 + m2 is M up to
        # the rounding of that one subtraction. The float sum m1 + m2 can
        # still round to a neighbour of M when the subtraction is a tie, and
        # no m1 that keeps the monotonicity below avoids every such tie.
        assert alloc.web_capacity == total - alloc.knowledge_capacity
        exact_sum = Fraction(alloc.knowledge_capacity) + Fraction(alloc.web_capacity)
        assert abs(exact_sum - Fraction(total)) <= Fraction(math.ulp(total)) / 2
        assert alloc.knowledge_capacity >= 0.0 and alloc.web_capacity >= 0.0
        learned = np.array(alloc.learned)
        assert np.all((learned >= 0.0) & (learned <= 1.0))
        assert np.count_nonzero((learned > 0.0) & (learned < 1.0)) <= 1
        assert math.isfinite(alloc.knowledge_loss)

    @PROPERTY_SETTINGS
    @given(cases(), log_uniform(-16, 1))
    def test_m1_monotone_in_capacity(self, case, step):
        mixture, low = case
        high = low + max(low, mixture.knowledge.h_tot) * step
        with no_hang():
            m1_low = optimal_allocation(mixture, low).knowledge_capacity
            m1_high = optimal_allocation(mixture, high).knowledge_capacity
        assert m1_high >= m1_low

    @PROPERTY_SETTINGS
    @given(cases(), ratios)
    def test_m1_monotone_in_mixing_ratio(self, case, other):
        mixture, total = case
        low, high = sorted((mixture.mixing_ratio, other))
        with no_hang():
            m1_low = optimal_allocation(replace(mixture, mixing_ratio=low), total)
            m1_high = optimal_allocation(replace(mixture, mixing_ratio=high), total)
        assert m1_high.knowledge_capacity >= m1_low.knowledge_capacity

    @PROPERTY_SETTINGS
    @given(cases(), st.data())
    def test_m1_monotone_in_frequency(self, case, data):
        mixture, total = case
        knowledge = mixture.knowledge
        i = data.draw(st.integers(0, knowledge.fact_count - 1))
        slack = 1.0 - math.fsum(knowledge.p.tolist())
        p = knowledge.p.copy()
        p[i] = min(p[i] * data.draw(log_uniform(0, 3)), p[i] + slack)
        raised = replace(
            mixture,
            knowledge=KnowledgeUniverse(p, knowledge.h, knowledge.irreducible_loss),
        )
        with no_hang():
            m1_low = optimal_allocation(mixture, total).knowledge_capacity
            m1_high = optimal_allocation(raised, total).knowledge_capacity
        assert m1_high >= m1_low


class TestAccuracyProperties:
    @PROPERTY_SETTINGS
    @given(cases())
    def test_in_unit_interval_and_one_exactly_when_all_learned(self, case):
        mixture, total = case
        with no_hang():
            alloc = optimal_allocation(mixture, total)
        acc = accuracy(alloc, mixture.knowledge)
        assert 0.0 <= acc <= 1.0
        assert (acc == 1.0) == bool(np.all(alloc.learned == 1.0))

    @PROPERTY_SETTINGS
    @given(cases(), log_uniform(-16, 1))
    def test_monotone_in_capacity(self, case, step):
        mixture, low = case
        high = low + max(low, mixture.knowledge.h_tot) * step
        with no_hang():
            acc_low = accuracy(optimal_allocation(mixture, low), mixture.knowledge)
            acc_high = accuracy(optimal_allocation(mixture, high), mixture.knowledge)
        assert acc_high >= acc_low

    def test_m1_ulps_above_h_tot_scores_one(self):
        # The interior bound of the solve lands one ulp above H_tot here
        # (1.0000000000000018 against 1.0000000000000016); the solve caps m1
        # at H_tot and gives the leftover bits to the web.
        knowledge = KnowledgeUniverse([0.5] + [0.01] * 10, [1.0] + [1.5e-16] * 10)
        mixture = MixtureUniverse(knowledge, PowerLawCurve(1.0, 1e-3, 0.5), 0.1)
        total = 1.5872301461753313
        alloc = optimal_allocation(mixture, total)
        assert alloc.knowledge_capacity == knowledge.h_tot
        assert alloc.web_capacity == total - knowledge.h_tot
        assert alloc.learned.tolist() == [1.0] * 11
        assert accuracy(alloc, knowledge) == 1.0
        assert count_accuracy(alloc) == 1.0

    @PROPERTY_SETTINGS
    @given(cases())
    def test_count_accuracy_is_the_fsum_of_learned(self, case):
        mixture, total = case
        with no_hang():
            alloc = optimal_allocation(mixture, total)
        learned = alloc.learned
        assert count_accuracy(alloc) == math.fsum(learned.tolist()) / learned.size

    def test_count_accuracy_of_an_empty_universe_is_one(self):
        empty = MixtureUniverse(KnowledgeUniverse([], []), PowerLawCurve(1.0, 1.0, 0.5), 0.5)
        alloc = optimal_allocation(empty, 10.0)
        assert count_accuracy(alloc) == 1.0
        assert count_accuracy(Allocation(*_scalars(alloc), KnowledgeUniverse([], []))) == 1.0


def _scalars(alloc):
    return (
        alloc.knowledge_capacity,
        alloc.web_capacity,
        alloc.knowledge_loss,
        alloc.web_loss,
        alloc.mixture_loss,
    )


class TestLazyLearned:
    @PROPERTY_SETTINGS
    @given(cases())
    def test_lazy_and_explicit_allocations_agree(self, case):
        mixture, total = case
        with no_hang():
            lazy = optimal_allocation(mixture, total)
        knowledge = mixture.knowledge
        frontier = knowledge._frontier
        m1 = lazy.knowledge_capacity
        assert lazy.learned.tobytes() == frontier.fractions_at(m1, frontier.index(m1)).tobytes()
        # The same split on an equal universe built apart, with its own frontier.
        rebuilt = KnowledgeUniverse(knowledge.p, knowledge.h, knowledge.irreducible_loss)
        explicit = Allocation(*_scalars(lazy), rebuilt)
        assert lazy == explicit and hash(lazy) == hash(explicit)
        assert pickle.loads(pickle.dumps(lazy)) == pickle.loads(pickle.dumps(explicit))
        assert lazy.to_dict() == explicit.to_dict()
        assert json.dumps(lazy.to_dict()) == json.dumps(explicit.to_dict())
        assert count_accuracy(lazy) == count_accuracy(explicit)


@st.composite
def grid_cases(draw):
    """(mixture, capacity, capacities, ratios): a case from cases() and a grid on each axis.

    Some draws zero the entropies of a few facts, and some swap the web for
    a tabulated one with a flat band [c, 2c] whose marginal is exactly one
    fact's r*p/(1-r) (t*c, 4*t*c and the quotient by c are exact), so that
    fact ties at the case's ratio. Each grid holds the case's own point and
    up to seven more, so some grids have one point.
    """
    mixture, capacity = draw(cases())
    knowledge = mixture.knowledge
    if draw(st.booleans()):
        h = knowledge.h.copy()
        h[draw(st.lists(st.integers(0, knowledge.fact_count - 1), max_size=3))] = 0.0
        knowledge = KnowledgeUniverse(knowledge.p, h, knowledge.irreducible_loss)
        mixture = replace(mixture, knowledge=knowledge)
    if draw(st.booleans()):
        r = mixture.mixing_ratio
        t = r * draw(st.sampled_from(knowledge.p.tolist())) / (1.0 - r)
        c = 2.0 ** draw(st.integers(-10, 50))
        web = TabulatedCurve(points=((0.0, 4.0 * t * c), (c, t * c), (2.0 * c, 0.0)))
        mixture = replace(mixture, web=web)
        capacity = draw(capacities(mixture))
    sizes = sorted({capacity, *draw(st.lists(capacities(mixture), max_size=7))})
    mixing = sorted({mixture.mixing_ratio, *draw(st.lists(ratios, max_size=7))})
    return mixture, capacity, tuple(sizes), tuple(mixing)


def independent_row(mixture, axis_value, capacity):
    """The sweep row of one point, from its own optimal_allocation."""
    alloc = optimal_allocation(mixture, capacity)
    return SweepRow(axis_value, accuracy(alloc, mixture.knowledge), count_accuracy(alloc),
                    alloc.knowledge_loss, alloc.web_loss, alloc.mixture_loss)


def independent_subset_result(exp, mixture, capacity):
    """The subset experiment's result at one capacity, from its own optimal_allocation."""
    learned = optimal_allocation(mixture, capacity).learned
    group_acc = learned.reshape(exp.group_count, exp.group_size).mean(axis=1)
    below = [g for g, acc in enumerate(group_acc) if acc < exp.accuracy_target]
    f_thres = exp.mixing_ratio * exp.weights[below[0]] / exp.group_size if below else None
    return SubsetCapacityResult(capacity, tuple(float(a) for a in group_acc), f_thres)


class TestGridSolve:
    """A grid solved as one bracketed search matches independent solves float for float."""

    @PROPERTY_SETTINGS
    @given(grid_cases())
    def test_sweep_rows_match_independent_solves(self, case):
        mixture, capacity, sizes, mixing = case
        with no_hang():
            by_size = sweep(SweepConfig(mixture, "model_size", sizes))
            by_ratio = sweep(SweepConfig(mixture, "mixing_ratio", mixing, capacity))
        assert [repr(row) for row in by_size] == [
            repr(independent_row(mixture, m, m)) for m in sizes
        ]
        assert [repr(row) for row in by_ratio] == [
            repr(independent_row(replace(mixture, mixing_ratio=r), r, capacity)) for r in mixing
        ]

    @PROPERTY_SETTINGS
    @given(grid_cases(), st.data())
    def test_subset_results_match_independent_solves(self, case, data):
        mixture = case[0]
        exp = SubsetExperiment(
            group_count=data.draw(st.integers(1, 6)),
            group_size=data.draw(st.integers(1, 4)),
            powerlaw_exponent=data.draw(st.floats(0.1, 3.0)),
            mixing_ratio=mixture.mixing_ratio,
            web_curve=mixture.web,
            capacity_grid=(0.0,),
            entropy_per_fact=data.draw(entropies),
        )
        subset = MixtureUniverse(build_subset_universe(exp), exp.web_curve, exp.mixing_ratio)
        grid = sorted(set(data.draw(st.lists(capacities(subset), min_size=1, max_size=8))))
        exp = replace(exp, capacity_grid=tuple(grid))
        with no_hang():
            results = run_subset_experiment(exp)
        assert [repr(res) for res in results] == [
            repr(independent_subset_result(exp, subset, c)) for c in grid
        ]


class TestGridValidationOrder:
    """A grid names its first bad case, with r*p/(1-r) checked at the first case only.

    A mixing-ratio sweep whose least ratio underflows is
    tests/test_simulator.py::TestSweep::test_first_ratio_whose_marginal_underflows_is_named.
    """

    MIXTURE = MixtureUniverse(
        KnowledgeUniverse([0.5, 1e-300], [5.0, 5.0]), PowerLawCurve(1.0, 100.0, 0.5), 0.5
    )

    def message(self, call):
        with pytest.raises(ValueError) as excinfo:
            call()
        return str(excinfo.value)

    def test_bad_capacity_at_the_first_case_comes_before_its_ratio(self):
        got = self.message(lambda: _grid_solve(self.MIXTURE, [(1e-30, math.nan), (0.5, 1.0)]))
        assert got == "total_capacity must be finite and >= 0, got nan"
        alone = replace(self.MIXTURE, mixing_ratio=1e-30)
        assert got == self.message(lambda: optimal_allocation(alone, math.nan))

    def test_nan_capacity_at_a_later_case_is_named(self):
        for cases in ([(0.5, 1.0), (0.5, math.nan)], [(1e-5, 1.0), (0.5, 2.0), (0.5, math.nan)]):
            got = self.message(lambda: _grid_solve(self.MIXTURE, cases))
            assert got == "total_capacity must be finite and >= 0, got nan"


def solved_allocation(mixture, solved):
    """An Allocation of one grid-solve tuple, with the solve's frontier index filled."""
    *scalars, k = solved
    alloc = Allocation(*scalars, mixture.knowledge)
    alloc.__dict__["frontier_index"] = k
    return alloc


def grid_allocations(mixture, capacity, sizes, mixing):
    """The grid allocations of both sweep axes, each with the mixture it was solved on."""
    by_size = _grid_solve(mixture, [(mixture.mixing_ratio, m) for m in sizes])
    by_ratio = _grid_solve(mixture, [(r, capacity) for r in mixing])
    return [(mixture, solved_allocation(mixture, t)) for t in by_size] + [
        (replace(mixture, mixing_ratio=r), solved_allocation(mixture, t))
        for r, t in zip(mixing, by_ratio)]


def assert_index_of_a_fresh_search(mixture, alloc):
    """The solve's frontier index is the one a search of m1 from scratch finds.

    The allocation is compared with one built by hand from its scalars on an
    equal universe built apart, whose index is searched on first read, and
    with the empty-prefix formulas, which build their own greedy order.
    """
    knowledge, m1 = mixture.knowledge, alloc.knowledge_capacity
    rebuilt = KnowledgeUniverse(knowledge.p, knowledge.h, knowledge.irreducible_loss)
    explicit = Allocation(*_scalars(alloc), rebuilt)
    assert "frontier_index" in vars(alloc) and "frontier_index" not in vars(explicit)
    fresh = int(np.searchsorted(rebuilt._frontier.cum_h[1:], m1, side="right"))
    assert alloc.frontier_index == explicit.frontier_index == fresh
    loss, k, f, learned = greedy_frontier(rebuilt, m1)
    assert alloc.knowledge_loss.hex() == rebuilt._frontier.loss_at(m1, fresh).hex() == loss.hex()
    count = (k + f) / rebuilt.fact_count if rebuilt.fact_count else 1.0
    assert count_accuracy(alloc) == count_accuracy(explicit) == count
    assert alloc.learned.tobytes() == explicit.learned.tobytes() == learned.tobytes()


class TestFrontierIndex:
    """Each solved case keeps the frontier index its own search found."""

    @PROPERTY_SETTINGS
    @given(grid_cases())
    def test_grid_allocations_match_fresh_searches(self, case):
        with no_hang():
            solved = grid_allocations(*case)
        for mixture, alloc in solved:
            assert_index_of_a_fresh_search(mixture, alloc)

    # Facts (p, h) = (0.4, 0), (0.3, 2), (0.2, 0), (0.1, 4) at r = 1/2 on a web whose
    # m0_minus is 2 for the first two and 6 for the last two. The zero-entropy facts 0
    # and 2 lead the order, then facts 1 and 3, which pass from M = 4 and 12: cum_h is
    # 0, 0, 0, 2, 6.
    ZEROS = MixtureUniverse(
        KnowledgeUniverse([0.4, 0.3, 0.2, 0.1], [0.0, 2.0, 0.0, 4.0]),
        TabulatedCurve(points=((0.0, 4.0), (2.0, 2.0), (6.0, 1.0), (14.0, 0.5))),
        0.5,
    )

    @pytest.mark.parametrize("capacity, m1, index, count", [
        # m1 = 0 behind the two leading zero-entropy facts: index 2, nothing learned.
        (1.0, 0.0, 2, 0.0),
        # Boundary fact 1 half learned, behind both zero-entropy facts.
        (3.0, 1.0, 2, 2.5 / 4),
        # Fact 1 whole at m1 = cum_h[3]; fact 3 fails, so the solve stops there.
        (5.0, 2.0, 3, 3 / 4),
        # Boundary fact 3 half learned.
        (10.0, 4.0, 3, 3.5 / 4),
        (12.0, 6.0, 4, 1.0),
    ])
    def test_zero_entropy_facts_at_and_before_the_boundary(self, capacity, m1, index, count):
        alloc = optimal_allocation(self.ZEROS, capacity)
        assert (alloc.knowledge_capacity, alloc.frontier_index) == (m1, index)
        assert count_accuracy(alloc) == count
        assert_index_of_a_fresh_search(self.ZEROS, alloc)

    def test_zero_entropy_grids_match_fresh_searches(self):
        sizes = tuple(x / 4 for x in range(0, 61))
        for mixture, alloc in grid_allocations(self.ZEROS, 10.0, sizes, (0.1, 0.3, 0.5, 0.9)):
            assert_index_of_a_fresh_search(mixture, alloc)

    # m0_minus is 0 for every fact (each r*p/(1-r) reaches the web's one marginal
    # 0.1), so at any capacity past cum_h[-1] every fact passes: j == count.
    WEB = TabulatedCurve(points=((0.0, 0.1), (1.0, 0.0)))

    def test_every_fact_passing_below_h_tot(self):
        # Summed one at a time the tiny entropies vanish; their exact sum does not.
        mixture = MixtureUniverse(KnowledgeUniverse([0.5, 0.3, 0.2], [1.0, 1e-16, 1e-16]),
                                  self.WEB, 0.5)
        frontier = mixture.knowledge._frontier
        assert frontier.cum_h[-1] == 1.0 < mixture.knowledge.h_tot
        alloc = optimal_allocation(mixture, 1.0)
        assert (alloc.knowledge_capacity, alloc.frontier_index) == (1.0, 3)
        assert count_accuracy(alloc) == 1.0 and accuracy(alloc, mixture.knowledge) < 1.0
        for mixture, alloc in grid_allocations(mixture, 1.0, (0.5, 1.0, 2.0), (0.25, 0.5, 0.75)):
            assert_index_of_a_fresh_search(mixture, alloc)

    def test_zero_entropy_fact_that_fails_below_h_tot(self):
        # As above, but a zero-entropy fact 3 that would pass only from M = 3. It
        # costs nothing, so m1 reaches h_tot once facts 0 to 2 pass, at M = 2.
        web = TabulatedCurve(points=((0.0, 0.3), (1.0, 0.1), (2.0, 0.05)))
        knowledge = KnowledgeUniverse([0.5, 0.3, 0.19, 0.01], [1.0, 1e-16, 1e-16, 0.0])
        mixture = MixtureUniverse(knowledge, web, 0.5)
        assert knowledge._frontier.cum_h[-1] == 1.0 < knowledge.h_tot
        m1 = [optimal_allocation(mixture, m).knowledge_capacity for m in (1.0, 1.5, 2.0, 2.5)]
        assert m1 == [1.0, 1.0, knowledge.h_tot, knowledge.h_tot]
        assert full_threshold_report(mixture).model_size_upper == 2.0
        for mixture, alloc in grid_allocations(mixture, 2.0, (1.0, 2.0, 3.0), (0.25, 0.5, 0.75)):
            assert_index_of_a_fresh_search(mixture, alloc)

    def test_every_fact_passing_above_h_tot(self):
        # Summed one at a time the entropies round up past their exact sum, so
        # m1 = h_tot holds two of the three cumulative entropies, not three.
        mixture = MixtureUniverse(KnowledgeUniverse([0.5, 0.3, 0.2], [1.0, 1.5e-16, 1.5e-16]),
                                  self.WEB, 0.5)
        frontier, h_tot = mixture.knowledge._frontier, mixture.knowledge.h_tot
        assert frontier.cum_h[-2] == h_tot < frontier.cum_h[-1]
        alloc = optimal_allocation(mixture, 2.0)
        assert (alloc.knowledge_capacity, alloc.frontier_index) == (h_tot, 2)
        assert count_accuracy(alloc) == 1.0
        for mixture, alloc in grid_allocations(mixture, 2.0, (0.5, 1.0, 2.0), (0.25, 0.5, 0.75)):
            assert_index_of_a_fresh_search(mixture, alloc)


@st.composite
def subset_experiments(draw):
    """A subset experiment on either web kind whose capacities split groups.

    Group sizes run from 1 to 200 facts, across the 8-lane and 128-block
    thresholds of numpy's pairwise sum. Each capacity is the onset of a
    drawn fact plus a drawn share of its entropy, so the boundary fact lies
    inside a group.
    """
    exp = SubsetExperiment(
        group_count=draw(st.integers(1, 8)),
        group_size=draw(st.integers(1, 200)),
        powerlaw_exponent=draw(st.floats(0.1, 3.0)),
        mixing_ratio=draw(ratios),
        web_curve=draw(web_curves()),
        capacity_grid=(0.0,),
        entropy_per_fact=draw(entropies),
    )
    frontier = build_subset_universe(exp)._frontier
    r = exp.mixing_ratio
    grid = set()
    for k in draw(st.lists(st.integers(0, frontier.count - 1), min_size=1, max_size=4)):
        onset = m0_minus(exp.web_curve, r * float(frontier.p_sorted[k]) / (1.0 - r))
        before = float(frontier.cum_h[k])
        grid.add(onset + before + draw(st.floats(0.0, 1.0)) * exp.entropy_per_fact)
    return replace(exp, capacity_grid=tuple(sorted(grid)))


class TestSubsetBoundary:
    """run_subset_experiment reads group accuracies off the frontier boundary."""

    @PROPERTY_SETTINGS
    @given(subset_experiments())
    def test_frontier_order_is_the_identity_with_no_zero_entropy_fact(self, exp):
        frontier = build_subset_universe(exp)._frontier
        assert np.array_equal(frontier.order, np.arange(frontier.count))
        assert frontier.zeros == 0

    @PROPERTY_SETTINGS
    @given(subset_experiments())
    def test_group_accuracy_is_the_fsum_of_its_learned_row(self, exp):
        mixture = MixtureUniverse(build_subset_universe(exp), exp.web_curve, exp.mixing_ratio)
        size = exp.group_size
        with no_hang():
            results = run_subset_experiment(exp)
        for res in results:
            learned = optimal_allocation(mixture, res.capacity).learned.tolist()
            assert res.group_accuracies == tuple(
                math.fsum(learned[g * size:(g + 1) * size]) / size
                for g in range(exp.group_count)
            )


class TestMixtureJson:
    @PROPERTY_SETTINGS
    @given(mixtures())
    def test_round_trip(self, mixture):
        assert mixture_from_dict(json.loads(json.dumps(mixture_to_dict(mixture)))) == mixture
