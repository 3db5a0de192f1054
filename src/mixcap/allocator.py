"""Optimal bounded-capacity allocation and phase-transition thresholds.

Given a mixture of a knowledge domain (ratio r) and a web domain, the
optimal learner with capacity M splits it as m1 + m2 = M to minimize

    r * F1(m1) + (1 - r) * F2(M - m1),

where F1 is the knowledge frontier and F2 the web loss curve. Because both
curves are convex the optimum is characterized by marginal values: a fact
with exposure frequency p is worth learning exactly when r*p/(1-r) beats the
web marginal -F2'. That comparison produces sharp phase transitions in model
size, mixing ratio, and per-fact corpus frequency, all computed here.

The allocator optimizes this idealized objective directly; it does not
simulate any training procedure.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    _m0_terms,
    _marginal_ratio,
    eval_web_loss,
    m0_minus,
    web_marginal,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

__all__ = [
    "Allocation",
    "ThresholdReport",
    "optimal_allocation",
    "full_threshold_report",
    "apply_subsampling",
    "apply_ckm",
]


@dataclass(frozen=True, init=False)
class Allocation:
    """An optimal capacity split, the losses it achieves and its universe.

    knowledge_capacity (m1) and web_capacity (m2) are in bits. m2 is the
    correctly rounded M - m1 for the total capacity M, so the exact sum
    m1 + m2 is within half an ulp of M, and m1 is non-decreasing in M. The
    float sum m1 + m2 can round to a neighbour of M at a rounding tie; no
    m1 that keeps the monotonicity avoids every such tie. knowledge is the
    universe the split was solved on. Two values are derived from m1 on
    that universe's frontier on first read, so a caller that never reads
    them never pays for them: frontier_index, the number of sorted facts,
    zero-entropy ones first, whose cumulative entropy fits in m1 (the
    boundary fact's sorted position when one is fractional, and the fact
    count K once m1 reaches H_tot), and learned,
    the per-fact learned fraction in fact order as a read-only float64 array:
    1.0 on the first frontier_index sorted facts, zero-entropy ones at any m1.
    optimal_allocation, the one function here that builds an Allocation,
    fills frontier_index from its solve's own search; an allocation built
    by hand, replaced or unpickled searches for it, and one whose m1 is
    negative or NaN is refused there. Equality compares the scalar
    fields and the universe, hashing reads the scalar fields and the
    universe's O(1) hash, and pickling carries the universe, so a list of
    allocations from one universe pickles it once. Neither derived value
    takes part in equality, hashing, repr or pickling. Instances are
    immutable.
    """

    knowledge_capacity: float
    web_capacity: float
    knowledge_loss: float
    web_loss: float
    mixture_loss: float
    knowledge: KnowledgeUniverse = field(repr=False)

    def __init__(self, knowledge_capacity: float, web_capacity: float, knowledge_loss: float,
                 web_loss: float, mixture_loss: float, knowledge: KnowledgeUniverse):
        # Fills the instance dict in place: the generated frozen __init__ calls
        # object.__setattr__ once per field, which costs more than a solve.
        values = self.__dict__
        values["knowledge_capacity"] = knowledge_capacity
        values["web_capacity"] = web_capacity
        values["knowledge_loss"] = knowledge_loss
        values["web_loss"] = web_loss
        values["mixture_loss"] = mixture_loss
        values["knowledge"] = knowledge

    @cached_property
    def frontier_index(self) -> int:
        if not self.knowledge_capacity >= 0.0:
            raise ValueError(f"knowledge_capacity must be >= 0, got {self.knowledge_capacity}")
        return self.knowledge._frontier.index(self.knowledge_capacity)

    @cached_property
    def learned(self) -> np.ndarray:
        return self.knowledge._frontier.fractions_at(self.knowledge_capacity, self.frontier_index)

    def __reduce__(self):
        # Rebuilt through __init__, so neither derived value is pickled.
        return Allocation, tuple(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        return {
            "m1": self.knowledge_capacity,
            "m2": self.web_capacity,
            "loss1": self.knowledge_loss,
            "loss2": self.web_loss,
            "loss": self.mixture_loss,
            "learned": self.learned.tolist(),
        }


@dataclass(frozen=True)
class ThresholdReport:
    """Phase-transition thresholds for a mixture configuration.

    model_size_lower is the greatest capacity at which m1 is 0, so no fact
    with entropy is learned (set by the most frequent of those facts);
    model_size_upper the least one at or above which everything is. The
    mixing-ratio and single-fact-frequency fields are the analogous bounds at a
    fixed capacity and are None when no capacity was supplied. Asymptotic fields
    carry the single-value power-law forms of the same thresholds (unspecified
    proportionality constants in the underlying scaling relations mean the exact
    bound pairs are the authoritative numbers; consumers choose).
    """

    model_size_lower: float
    model_size_upper: float
    mixing_ratio_lower: float | None = None
    mixing_ratio_upper: float | None = None
    single_fact_frequency_lower: float | None = None
    single_fact_frequency_upper: float | None = None
    single_fact_frequency_asymptotic: float | None = None
    mixing_ratio_asymptotic: float | None = None
    model_size_asymptotic: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.model_size_lower > self.model_size_upper:
            raise ValueError("model_size_lower must be <= model_size_upper")
        if (
            self.mixing_ratio_lower is not None
            and self.mixing_ratio_upper is not None
            and self.mixing_ratio_lower > self.mixing_ratio_upper
        ):
            raise ValueError("mixing_ratio_lower must be <= mixing_ratio_upper")

    def to_dict(self) -> dict:
        return {
            "m_lower": self.model_size_lower,
            "m_upper": self.model_size_upper,
            "r_lower": self.mixing_ratio_lower,
            "r_upper": self.mixing_ratio_upper,
            "f_lower": self.single_fact_frequency_lower,
            "f_upper": self.single_fact_frequency_upper,
            "f_asymptotic": self.single_fact_frequency_asymptotic,
            "r_asymptotic": self.mixing_ratio_asymptotic,
            "m_asymptotic": self.model_size_asymptotic,
            "exponent": self.exponent,
        }


def optimal_allocation(mixture: MixtureUniverse, total_capacity: float) -> Allocation:
    """Split total_capacity between the knowledge and web domains optimally.

    The knowledge frontier learns zero-entropy facts free and spends capacity
    on the rest in decreasing exposure frequency, so the optimum is an exact
    fractional knapsack. Sorted fact k, with t_k = r*p_k/(1-r), is
    worth learning while the web keeps at least m0_minus(t_k) bits, so the
    knowledge domain may grow to M - m0_minus(t_k) while it learns fact k.
    That bound shrinks along the order while the cumulative entropy grows,
    so the fully learned facts form a prefix, the first fact after it takes
    the bits left up to its bound, and no other fact is fractional. Taking
    the m0_minus end of any flat-marginal band breaks ties toward the
    knowledge domain. Uniform frequencies give the closed form
    m1 = clip(M - m0_minus(r*p/(1-r)), 0, min(M, H_tot)).

    The interior m1 is capped at H_tot, so that the bits a rounded bound
    leaves past H_tot go to the web. A solve is a bisection over the sorted
    facts that evaluates m0_minus, as full_threshold_report does, only at
    the facts it probes: O(log K) work with no fact-length array. It is the
    one-case grid of _grid_solve, and the only place that wraps a solve in an
    Allocation; its frontier_index is the solve's own. The returned learned
    is built from m1 on first read.
    """
    cases = [(mixture.mixing_ratio, total_capacity)]
    m1, m2, loss1, loss2, loss, k = _grid_solve(mixture, cases)[0]
    allocation = Allocation(m1, m2, loss1, loss2, loss, mixture.knowledge)
    allocation.__dict__["frontier_index"] = k
    return allocation


def _grid_solve(
    mixture: MixtureUniverse, cases: list[tuple[float, float]]
) -> list[tuple[float, float, float, float, float, int]]:
    """The optimal split at every (mixing ratio r, capacity M) case of a grid, in order.

    Each case gives the tuple (m1, m2, loss1, loss2, mixture_loss, frontier_index):
    the five scalar fields of optimal_allocation's Allocation at that r and M on
    mixture's knowledge universe and web, and the frontier index of m1. Neither M nor
    r decreases along the cases, at least one, as on a sweep's strictly increasing
    grid of either axis. The cases are checked first, in grid order, so the first bad
    case raises what optimal_allocation would: every M is checked, and r*p/(1-r) of
    the least frequent fact only at the first case. Products and quotients round
    monotonically, so that t underflows for some fact and case exactly when it does
    for the least frequent fact at the least r. Then one bracketed search solves
    them: the middle case over the facts with entropy, then each half with its
    learned-prefix lengths j bracketed by the j of the solved cases on either side.
    The frontier, the universe and the web's m0_minus terms are read once per grid,
    and each probe evaluates m0_minus inline with m0_minus's own expressions, so no
    Python function is called per probe. The frontier index of m1 is searched from
    the case's j: the j facts fit in m1, as no prefix sum passes h_tot, and sorted
    fact j does not fit unless cum_h[j + 1] == cum_h[j], so one probe usually finds
    it. The knowledge loss is read at that index, and the case's tuple keeps it.
    At capacity -0.0, m1 is +0.0 and m2 -0.0 on a power-law and a tabulated web alike.

    This gives the splits of independent solves. Sorted fact k passes the solve's test
    fl(M - m0_minus(fl(r*p_k/(1-r)))) >= cum_h[k + 1] at a case if it passes at an
    earlier one: as full_threshold_report notes, every rounding is monotone and
    m0_minus does not increase, so the bound rises with M and with r. j counts the
    zero-entropy facts, which lead the order, and the prefix of facts after them that
    pass, so it does not decrease along the cases; a case between two solved ones has
    its j in [j_left, j_right], where a bisection finds the j a bisection over the
    whole order finds, and the rest of the solve reads only j.
    """
    frontier = mixture.knowledge._frontier
    ratio_checked = not frontier.count
    for r, capacity in cases:
        if not (math.isfinite(capacity) and capacity >= 0.0):
            raise ValueError(f"total_capacity must be finite and >= 0, got {capacity}")
        if not ratio_checked:
            _marginal_ratio(r, frontier.p_min)
            ratio_checked = True
    web, count, h_tot = mixture.web, frontier.count, frontier.h_tot
    p, cum_h, cum_h_next = frontier.p_view, frontier.cum_h_view, frontier.cum_h_next
    scale, power, slopes, caps = _m0_terms(web)
    solved = [None] * len(cases)
    # Pending halves: cases [a, b) whose j lie in [lo, hi]; every m1 learns the zeros.
    stack = [(0, len(cases), frontier.zeros, count)]
    while stack:
        a, b, lo, hi = stack.pop()
        mid = (a + b) // 2
        r, capacity = cases[mid]
        q = 1.0 - r
        # j = the number of facts whose bound M - m0_minus(t_k) reaches cum_h[k + 1].
        # The bound does not increase along the order and cum_h does not
        # decrease, so those facts are a prefix and bisection finds its end.
        j, top = lo, hi
        while j < top:
            k = (j + top) // 2
            t = r * p[k] / q
            if capacity - ((scale / t) ** power if slopes is None
                           else caps[bisect.bisect_left(slopes, -t)]) >= cum_h_next[k]:
                j = k + 1
            else:
                top = k
        bound = capacity
        if j < count:
            t = r * p[j] / q
            bound -= ((scale / t) ** power if slopes is None
                      else caps[bisect.bisect_left(slopes, -t)])
        # cum_h[j] <= h_tot, so the j passing facts fit in m1. max keeps the first of
        # equal arguments, so a bound of -0.0 gives cum_h[j]'s +0.0 on either web kind.
        m1 = min(h_tot, max(cum_h[j], bound))
        k = frontier.index(m1, j)
        m2 = capacity - m1
        loss1 = frontier.loss_at(m1, k)
        loss2 = eval_web_loss(web, m2)
        solved[mid] = (m1, m2, loss1, loss2, r * loss1 + q * loss2, k)
        if a < mid:
            stack.append((a, mid, lo, j))
        if mid + 1 < b:
            stack.append((mid + 1, b, j, hi))
    return solved


def full_threshold_report(
    mixture: MixtureUniverse, total_capacity: float | None = None
) -> ThresholdReport:
    """All phase-transition thresholds of a mixture.

    Write m1(M, r) for the knowledge capacity that _grid_solve gives
    the case (r, M) on this mixture. It does not decrease in M or in r: each
    fact's bound fl(M - m0_minus(fl(r*p/(1-r)))) rises with both, as every
    rounding is monotone and m0_minus does not increase, and higher bounds
    only move the solve's learned prefix and its boundary share forward. So
    each bound but m_lower is the least float at which the solve passes its
    test (_least_float), and the test holds at every float above it.

    p_max and p_min are the extreme frequencies of the facts with entropy.
    Model size: m_lower = m0_minus(r*p_max/(1-r)), so m1 is 0 at and below
    it and positive above; for a power-law web it is also the nominal
    threshold m_asymptotic, with exponent alpha + 1. m_upper is the least M
    with m1 == H_tot; one that overflows is refused, naming exposure_frequency.

    Mixing ratio, at capacity M (None without one): r_lower is the least
    float ratio with m1 > 0, r_upper the least with m1 == H_tot. Each is 1
    if no r < 1 qualifies, and 0 if the solve passes at the least ratio it
    accepts (below it some r*p/(1-r) underflows). r_asymptotic is g/p_max,
    g the left web marginal at M; a capacity whose g overflows is refused.
    Single-fact frequency: f_lower = r_lower*p_max and f_upper =
    r_upper*p_min, so on heterogeneous facts f_upper may fall below
    f_lower; f_asymptotic is g, the small-r limit. Facts whose entropies
    are all 0 are learned at every M and r, so they are refused.
    """
    frontier, web, h_tot = mixture.knowledge._frontier, mixture.web, mixture.knowledge.h_tot
    if not frontier.count:
        raise ValueError(
            "threshold formulas need at least one fact; the knowledge domain has no facts"
        )
    if not h_tot > 0.0:
        raise ValueError("threshold formulas need a fact with target_entropy > 0")
    p_max, p_min = frontier.p_view[frontier.zeros], frontier.p_view[-1]
    m_lower = m0_minus(web, _marginal_ratio(mixture.mixing_ratio, p_max))
    m_upper = _least_float(
        lambda m: _grid_solve(mixture, [(mixture.mixing_ratio, m)])[0][0] == h_tot, math.inf
    )
    if math.isinf(m_upper):
        raise ValueError(
            f"exposure_frequency {p_min} is too small for mixing_ratio "
            f"{mixture.mixing_ratio}: the model size that learns it overflows"
        )
    power_law = isinstance(web, PowerLawCurve)
    bands = {}
    if total_capacity is not None:
        if not (math.isfinite(total_capacity) and total_capacity > 0.0):
            raise ValueError(f"total_capacity must be finite and > 0, got {total_capacity}")
        g = web_marginal(web, total_capacity, "left")
        if math.isinf(g):
            raise ValueError(
                f"capacity {total_capacity} bits leaves the web marginal infinite: "
                "a power-law web marginal diverges as its capacity goes to 0"
            )

        def m1(r: float) -> float:
            try:
                return _grid_solve(mixture, [(r, total_capacity)])[0][0]
            except ValueError:  # some r*p/(1-r) underflows, as it does at r = 0
                return -math.inf

        def least_ratio(test: Callable[[float], bool]) -> float:
            r = _least_float(lambda r: test(m1(r)), 1.0)
            return 0.0 if r < 1.0 and m1(math.nextafter(r, 0.0)) == -math.inf else r

        r_lower = least_ratio(lambda m: m > 0.0)
        r_upper = least_ratio(lambda m: m == h_tot)
        bands = dict(
            mixing_ratio_lower=r_lower,
            mixing_ratio_upper=r_upper,
            single_fact_frequency_lower=r_lower * p_max,
            single_fact_frequency_upper=r_upper * p_min,
            single_fact_frequency_asymptotic=g,
            mixing_ratio_asymptotic=g / p_max,
        )
    return ThresholdReport(
        model_size_lower=m_lower,
        model_size_upper=m_upper,
        model_size_asymptotic=m_lower if power_law else None,
        exponent=web.exponent + 1.0 if power_law else None,
        **bands,
    )


def _least_float(test: Callable[[float], bool], hi: float) -> float:
    """The least float x in (0, hi) with test(x), or hi if there is none.

    test must be false up to some float and true from it on; it is never
    called at 0.0 or at hi. Nonnegative floats are ordered as their bit
    patterns, so this bisects the integers between the patterns of 0.0 and
    hi. They are fewer than 2**63 apart for any hi up to inf and each step
    halves the gap, so the loop ends within 63 steps and cannot spin.
    """

    def value(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi_bits = 0, struct.unpack("<q", struct.pack("<d", hi))[0]
    while hi_bits - lo > 1:
        mid = (lo + hi_bits) // 2
        if test(value(mid)):
            hi_bits = mid
        else:
            lo = mid
    return value(hi_bits)


def apply_subsampling(mixture: MixtureUniverse, keep_ratio: float) -> MixtureUniverse:
    """Keep a prefix of ceil(keep_ratio * K) facts at proportionally raised frequency.

    The knowledge domain's token share is fixed, so spreading it over fewer
    facts divides each retained fact's exposure frequency by keep_ratio and
    shrinks H_tot accordingly. The prefix is deterministic; callers wanting a
    random subsample shuffle the facts first.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if keep_ratio == 1.0:
        return mixture
    knowledge = mixture.knowledge
    kept = math.ceil(keep_ratio * knowledge.fact_count)
    scaled = KnowledgeUniverse(
        knowledge.p[:kept] / keep_ratio, knowledge.h[:kept], knowledge.irreducible_loss
    )
    return replace(mixture, knowledge=scaled)


def apply_ckm(
    mixture: MixtureUniverse,
    ckm_ratio: float,
    original_tokens_per_fact: float,
    compact_tokens_per_fact: float,
) -> MixtureUniverse:
    """Raise per-fact frequency by mixing in compact rephrasings of each fact.

    With the knowledge token budget held fixed, compact copies occupy the
    fraction tau/(1+tau) of it and state each fact at 1/compact_tokens cost,
    so every exposure frequency is multiplied by

        (1 + tau * original_tokens / compact_tokens) / (1 + tau).

    Entropies are unchanged. This token-share accounting makes the
    proportionality between frequency and inverse token cost explicit; the
    token counts are parameters precisely because only their ratio matters.
    """
    if not (math.isfinite(ckm_ratio) and ckm_ratio >= 0.0):
        raise ValueError(f"ckm_ratio must be finite and >= 0, got {ckm_ratio}")
    for name, tokens in (("original_tokens_per_fact", original_tokens_per_fact),
                         ("compact_tokens_per_fact", compact_tokens_per_fact)):
        if not (math.isfinite(tokens) and tokens > 0.0):
            raise ValueError(f"token counts must be finite and > 0: {name} is {tokens}")
    if ckm_ratio == 0.0:
        return mixture
    multiplier = (
        1.0 + ckm_ratio * original_tokens_per_fact / compact_tokens_per_fact
    ) / (1.0 + ckm_ratio)
    knowledge = mixture.knowledge
    scaled = KnowledgeUniverse(
        knowledge.p * multiplier, knowledge.h, knowledge.irreducible_loss
    )
    return replace(mixture, knowledge=scaled)
