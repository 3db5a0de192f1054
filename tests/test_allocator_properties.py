"""Property tests of optimal_allocation and mixture JSON, entropies 1e-3 to 1e15 bits.

Each example runs under a hypothesis deadline and a SIGALRM guard, so a
solver that never returns fails the test instead of stalling the suite.
The oracle tests keep the linear-scan form of the solve (count every fact
whose bound reaches its cumulative entropy, then write every learned
fraction through the sort order) and require the bisection to match it bit
for bit.
"""

import contextlib
import math
import signal
from dataclasses import replace
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixcap.allocator import optimal_allocation
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    eval_web_loss,
    m0_minus,
    mixture_from_json,
    mixture_to_json,
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
    onset = float(m0_minus(mixture.web, r * frontier.p_sorted[k] / (1.0 - r)))
    before = float(frontier.cum_h[k - 1]) if k else 0.0
    capacity = onset + before + draw(st.sampled_from([0.0, 1.0, 0.5])) * frontier.h_sorted[k]
    for _ in range(draw(st.integers(-3, 3))):
        capacity = np.nextafter(capacity, math.inf)
    return max(float(capacity), 0.0)


@st.composite
def cases(draw):
    mixture = draw(mixtures())
    return mixture, draw(capacities(mixture))


def linear_scan_allocation(mixture, total):
    """(m1, m2, loss1, loss2, loss, learned, predicate) by the linear-scan solve.

    predicate[k] is the float test M - m0_k >= cum_h[k] of sorted fact k.
    """
    web, r = mixture.web, mixture.mixing_ratio
    frontier = mixture.knowledge._frontier
    bound = total - m0_minus(web, r * frontier.p_sorted / (1.0 - r))
    predicate = bound >= frontier.cum_h
    j = int(np.count_nonzero(predicate))
    if j == len(bound):
        m1 = min(frontier.h_tot, total)
    else:
        m1 = max(float(bound[j]), float(frontier.cum_h[j - 1]) if j else 0.0)
    m2 = total - m1
    loss1, loss2 = frontier.loss_at(m1), eval_web_loss(web, m2)
    learned = full_fractions(frontier, m1)
    return m1, m2, loss1, loss2, r * loss1 + (1.0 - r) * loss2, learned, predicate


def full_fractions(frontier, capacity):
    """Learned fractions built over the whole sorted order, then scattered."""
    n = frontier.count
    frac_sorted = np.zeros(n)
    if n == 0:
        return frac_sorted
    if capacity >= frontier.h_tot:
        frac_sorted[:] = 1.0
    elif capacity > 0.0:
        k = int(np.searchsorted(frontier.cum_h, capacity, side="right"))
        frac_sorted[:k] = 1.0
        if k < n:
            prev = float(frontier.cum_h[k - 1]) if k > 0 else 0.0
            if frontier.h_sorted[k] > 0.0:
                frac_sorted[k] = (capacity - prev) / frontier.h_sorted[k]
        frac_sorted[frontier.h_sorted == 0.0] = 1.0
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
        onsets = mixture._frontier_m0 + np.concatenate(([0.0], frontier.cum_h[:-1]))
        picks = rng.choice(frontier.count, 40, replace=False)
        totals = [0.0, frontier.h_tot, 10.0 * frontier.h_tot]
        totals += np.geomspace(1.0, 4.0 * (onsets.max() + frontier.h_tot), 60).tolist()
        for k in picks:
            for edge in (onsets[k], onsets[k] + frontier.h_sorted[k]):
                totals += [float(edge), float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, math.inf))]
        for total in totals:
            assert_matches_linear_scan(mixture, total)


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


class TestMixtureJson:
    @PROPERTY_SETTINGS
    @given(mixtures())
    def test_round_trip(self, mixture):
        assert mixture_from_json(mixture_to_json(mixture)) == mixture
