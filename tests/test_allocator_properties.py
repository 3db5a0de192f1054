"""Property tests of optimal_allocation and mixture JSON, entropies 1e-3 to 1e15 bits.

Each example runs under a hypothesis deadline and a SIGALRM guard, so a
solver that never returns fails the test instead of stalling the suite.
The oracle tests keep the linear-scan form of the solve (count every fact
whose bound reaches its cumulative entropy, then write every learned
fraction through the sort order) and require the bisection to match it bit
for bit.
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

from mixcap.allocator import Allocation, _grid_solve, optimal_allocation
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


@st.composite
def capacities(draw, mixture):
    """0, a multiple of the total entropy, or a few ulps from a fact's phase transition.

    Fact k of the frontier order starts to be learned at m0_minus(r*p_k/(1-r))
    plus the entropy of the facts before it, and is whole h_k bits later.
    """
    kind = draw(st.sampled_from(["zero", "scale", "boundary"]))
    if kind == "zero":
        return 0.0
    if kind == "scale":
        return mixture.knowledge.h_tot * draw(log_uniform(-6, 3))
    frontier = mixture.knowledge._frontier
    k = draw(st.integers(0, frontier.count - 1))
    r = mixture.mixing_ratio
    onset = m0_minus(mixture.web, r * float(frontier.p_sorted[k]) / (1.0 - r))
    before = float(frontier.cum_h[k])
    h_k = mixture.knowledge.h[frontier.order[k]]
    capacity = onset + before + draw(st.sampled_from([0.0, 1.0, 0.5])) * h_k
    for _ in range(draw(st.integers(-3, 3))):
        capacity = np.nextafter(capacity, math.inf)
    return max(float(capacity), 0.0)


@st.composite
def cases(draw):
    mixture = draw(mixtures())
    return mixture, draw(capacities(mixture))


def frontier_m0(mixture):
    """m0_minus(r*p_k/(1-r)) of every fact in frontier order, one scalar call each."""
    r = mixture.mixing_ratio
    return np.array([m0_minus(mixture.web, r * p / (1.0 - r))
                     for p in mixture.knowledge._frontier.p_sorted.tolist()])


def linear_scan_allocation(mixture, total):
    """(m1, m2, loss1, loss2, loss, learned, predicate) by the linear-scan solve.

    predicate[k] is the float test M - m0_k >= cum_h[k + 1] of sorted fact k.
    """
    web, r = mixture.web, mixture.mixing_ratio
    frontier = mixture.knowledge._frontier
    bound = total - frontier_m0(mixture)
    predicate = bound >= frontier.cum_h[1:]
    j = int(np.count_nonzero(predicate))
    if j == len(bound):
        m1 = min(frontier.h_tot, total)
    else:
        m1 = min(max(float(bound[j]), float(frontier.cum_h[j])), frontier.h_tot)
    m2 = total - m1
    k = int(np.searchsorted(frontier.cum_h[1:], m1, side="right"))
    loss1, loss2 = frontier.loss_at(m1, k), eval_web_loss(web, m2)
    learned = full_fractions(mixture.knowledge, m1)
    return m1, m2, loss1, loss2, r * loss1 + (1.0 - r) * loss2, learned, predicate


def full_fractions(knowledge, capacity):
    """Learned fractions built over the whole sorted order, then scattered."""
    frontier = knowledge._frontier
    h_sorted = knowledge.h[frontier.order]
    n = frontier.count
    frac_sorted = np.zeros(n)
    if n == 0:
        return frac_sorted
    if capacity >= frontier.h_tot:
        frac_sorted[:] = 1.0
    elif capacity > 0.0:
        k = int(np.searchsorted(frontier.cum_h[1:], capacity, side="right"))
        frac_sorted[:k] = 1.0
        if k < n:
            prev = float(frontier.cum_h[k])
            if h_sorted[k] > 0.0:
                frac_sorted[k] = (capacity - prev) / h_sorted[k]
        frac_sorted[h_sorted == 0.0] = 1.0
    fractions = np.empty(n)
    fractions[frontier.order] = frac_sorted
    return fractions


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
        frontier = mixture.knowledge._frontier
        onsets = frontier_m0(mixture) + frontier.cum_h[:-1]
        picks = rng.choice(frontier.count, 40, replace=False)
        totals = [0.0, frontier.h_tot, 10.0 * frontier.h_tot]
        totals += np.geomspace(1.0, 4.0 * (onsets.max() + frontier.h_tot), 60).tolist()
        for k in picks:
            for edge in (onsets[k], onsets[k] + mixture.knowledge.h[frontier.order[k]]):
                totals += [float(edge), float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, math.inf))]
        for total in totals:
            assert_matches_linear_scan(mixture, total)


def empty_prefix_frontier(knowledge, capacity):
    """(loss, (k, f, z)) over K-entry prefix sums that special-case the empty prefix.

    The frontier formulas before the prefix sums were led by 0.0, with the
    sorted p and h as their own arrays.
    """
    order = knowledge._frontier.order
    p_sorted, h_sorted = knowledge.p[order], knowledge.h[order]
    cum_h, cum_ph = np.cumsum(h_sorted), np.cumsum(p_sorted * h_sorted)
    count, h_tot, c1 = order.size, knowledge.h_tot, knowledge.irreducible_loss
    total_ph = float(cum_ph[-1]) if count else 0.0
    if capacity >= h_tot:
        return c1, (count, 0.0, 0)
    if not capacity > 0.0:
        return c1 + total_ph, (0, 0.0, 0)
    k = int(np.searchsorted(cum_h, capacity, side="right"))
    rest = capacity - (float(cum_h[k - 1]) if k > 0 else 0.0)
    learned = float(cum_ph[k - 1]) if k > 0 else 0.0
    if k < count:
        learned += float(p_sorted[k]) * rest
    f = rest / float(h_sorted[k]) if k < count else 0.0
    z = int(np.count_nonzero(h_sorted[k:] == 0.0))
    return c1 + (total_ph - learned), (k, f, z)


class TestZeroLedFrontier:
    @PROPERTY_SETTINGS
    @given(cases(), st.integers(0, 8))
    def test_loss_and_boundary_match_the_empty_prefix_formulas(self, case, zeros):
        mixture, total = case
        knowledge = mixture.knowledge
        # The first `zeros` facts of the order get entropy 0, so the order leads with them.
        h = knowledge.h.copy()
        h[knowledge._frontier.order[:zeros]] = 0.0
        knowledge = KnowledgeUniverse(knowledge.p, h, knowledge.irreducible_loss)
        frontier = knowledge._frontier
        assert frontier.cum_h.size == frontier.cum_ph.size == frontier.count + 1
        assert frontier.cum_h[0] == frontier.cum_ph[0] == 0.0
        # k = 0 inside the first fact, k = K at cum_h[K], and every prefix end.
        capacities = [total, -0.0, 0.0, float(0.5 * frontier.cum_h[1]), knowledge.h_tot]
        for edge in frontier.cum_h.tolist():
            capacities += [edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, math.inf))]
        for capacity in capacities:
            loss, (k, f, z) = empty_prefix_frontier(knowledge, capacity)
            index = frontier.index(capacity)
            assert index == int(np.searchsorted(frontier.cum_h[1:], capacity, side="right"))
            assert frontier.loss_at(capacity, index).hex() == loss.hex()
            got_k, got_f, got_z = frontier.boundary(capacity, index)
            assert (got_k, got_f.hex(), got_z) == (k, f.hex(), z)

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=40))
    def test_boundary_counts_zero_entropy_facts_as_searchsorted_does(self, facts):
        # Integer weights tie often, so the stable order interleaves the zero-entropy
        # facts with the rest; each fact with entropy has 1 or 2 bits.
        weights = np.array([w for w, _ in facts], dtype=float)
        h = np.array([0.0 if zero else 1.0 + i % 2 for i, (_, zero) in enumerate(facts)])
        frontier = KnowledgeUniverse(weights / weights.sum(), h)._frontier
        zero_sorted = np.flatnonzero(h[frontier.order] == 0.0)
        assert frontier.zero_sorted.tolist() == zero_sorted.tolist()
        capacities = (0.5 * (frontier.cum_h[:-1] + frontier.cum_h[1:])).tolist()
        capacities += frontier.cum_h.tolist()
        for capacity in capacities:
            if not 0.0 < capacity < frontier.h_tot:
                continue
            index = frontier.index(capacity)
            k, _, z = frontier.boundary(capacity, index)
            assert k == index
            assert z == zero_sorted.size - int(np.searchsorted(zero_sorted, index, side="left"))


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
    with the empty-prefix formulas, which search cum_h with numpy.
    """
    knowledge, m1 = mixture.knowledge, alloc.knowledge_capacity
    rebuilt = KnowledgeUniverse(knowledge.p, knowledge.h, knowledge.irreducible_loss)
    explicit = Allocation(*_scalars(alloc), rebuilt)
    assert "frontier_index" in vars(alloc) and "frontier_index" not in vars(explicit)
    fresh = int(np.searchsorted(rebuilt._frontier.cum_h[1:], m1, side="right"))
    assert alloc.frontier_index == explicit.frontier_index == fresh
    loss, (k, f, z) = empty_prefix_frontier(rebuilt, m1)
    assert alloc.knowledge_loss.hex() == rebuilt._frontier.loss_at(m1, fresh).hex() == loss.hex()
    count = ((k + z) + f) / rebuilt.fact_count if rebuilt.fact_count else 1.0
    assert count_accuracy(alloc) == count_accuracy(explicit) == count
    assert alloc.learned.tobytes() == explicit.learned.tobytes()
    assert alloc.learned.tobytes() == full_fractions(rebuilt, m1).tobytes()


class TestFrontierIndex:
    """Each solved case keeps the frontier index its own search found."""

    @PROPERTY_SETTINGS
    @given(grid_cases())
    def test_grid_allocations_match_fresh_searches(self, case):
        with no_hang():
            solved = grid_allocations(*case)
        for mixture, alloc in solved:
            assert_index_of_a_fresh_search(mixture, alloc)

    # Sorted facts (p, h) = (0.4, 0), (0.3, 2), (0.2, 0), (0.1, 4) at r = 1/2 on a web
    # whose m0_minus is 2 for the first two and 6 for the last two: facts pass from
    # M = 2, 4, 8 and 12, and cum_h is 0, 0, 2, 2, 6.
    ZEROS = MixtureUniverse(
        KnowledgeUniverse([0.4, 0.3, 0.2, 0.1], [0.0, 2.0, 0.0, 4.0]),
        TabulatedCurve(points=((0.0, 4.0), (2.0, 2.0), (6.0, 1.0), (14.0, 0.5))),
        0.5,
    )

    @pytest.mark.parametrize("capacity, m1, index, count", [
        # m1 = 0 behind the leading zero-entropy fact: index 1, nothing learned.
        (1.0, 0.0, 1, 0.0),
        # Boundary fact 1 half learned; the zero-entropy fact after it counts.
        (3.0, 1.0, 1, 2.5 / 4),
        # The solve stops at the zero-entropy fact 2, whose cum_h[3] = m1: the
        # search runs past the solve's prefix end to fact 3.
        (5.0, 2.0, 3, 3 / 4),
        # Boundary fact 3 half learned, behind zero-entropy facts 0 and 2.
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
        assert frontier.zero_sorted.size == 0

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
