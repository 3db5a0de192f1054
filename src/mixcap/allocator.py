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
from dataclasses import dataclass, replace

import numpy as np

from .universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    eval_web_loss,
    m0_minus,
    m0_plus,
    web_marginal,
)

__all__ = [
    "Allocation",
    "ThresholdReport",
    "optimal_allocation",
    "full_threshold_report",
    "apply_subsampling",
    "apply_ckm",
]

@dataclass(frozen=True, eq=False)
class Allocation:
    """An optimal capacity split and the losses it achieves.

    knowledge_capacity (m1) and web_capacity (m2) are in bits. m2 is the
    correctly rounded M - m1 for the total capacity M, so the exact sum
    m1 + m2 is within half an ulp of M, and m1 is non-decreasing in M. The
    float sum m1 + m2 can round to a neighbour of M at a rounding tie; no
    m1 that keeps the monotonicity avoids every such tie. learned holds the
    per-fact learned fraction in original fact order, as a read-only float64
    array; an array passed in is viewed, not copied. Equality compares the
    scalar fields and the learned values, and pickling keeps learned
    read-only.
    """

    knowledge_capacity: float
    web_capacity: float
    knowledge_loss: float
    web_loss: float
    mixture_loss: float
    learned: np.ndarray

    def __post_init__(self):
        # A view, so the caller's own array keeps its flags.
        learned = np.asarray(self.learned, dtype=float).view()
        learned.flags.writeable = False
        object.__setattr__(self, "learned", learned)

    def _scalars(self) -> tuple[float, ...]:
        return (
            self.knowledge_capacity,
            self.web_capacity,
            self.knowledge_loss,
            self.web_loss,
            self.mixture_loss,
        )

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._scalars() == other._scalars() and np.array_equal(
            self.learned, other.learned
        )

    def __hash__(self):
        return hash((*self._scalars(), self.learned.size))

    def __reduce__(self):
        return Allocation, (*self._scalars(), self.learned)

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

    model_size_lower is the capacity at or below which nothing from the
    knowledge domain is learned; model_size_upper the capacity at or above
    which everything is. The mixing-ratio and single-fact-frequency fields
    are the analogous bounds at a fixed capacity and are None when no
    capacity was supplied. Asymptotic fields carry the single-value power-law
    forms of the same thresholds (unspecified proportionality constants in
    the underlying scaling relations mean the exact bound pairs are the
    authoritative numbers; consumers choose).
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

    The knowledge frontier spends capacity on facts in decreasing exposure
    frequency, so the optimum is an exact fractional knapsack (marginal
    matching). Sorted fact k, with marginal ratio t_k = r*p_k/(1-r), is
    worth learning while the web keeps at least m0_minus(t_k) bits, so the
    knowledge domain may grow to M - m0_minus(t_k) while it learns fact k.
    That bound shrinks along the order while the cumulative entropy grows,
    so the fully learned facts form a prefix, the first fact after it takes
    the bits left up to its bound, and no other fact is fractional. Taking
    the m0_minus end of any flat-marginal band breaks ties toward the
    knowledge domain. Uniform frequencies give the closed form
    m1 = clip(M - m0_minus(r*p/(1-r)), 0, min(M, H_tot)).

    The m0_minus values are cached per mixture (with np.power for a
    power-law web, as full_threshold_report computes them), so a solve is a
    bisection over the sorted facts plus one pass that writes learned.
    """
    if not (math.isfinite(total_capacity) and total_capacity >= 0.0):
        raise ValueError(
            f"total_capacity must be finite and >= 0, got {total_capacity}"
        )
    web, r = mixture.web, mixture.mixing_ratio
    frontier = mixture.knowledge._frontier
    m0, cum_h = mixture._frontier_m0, frontier.cum_h
    # j = the number of facts whose bound M - m0_k reaches cum_h[k]. The
    # bound does not increase along the order and cum_h does not decrease,
    # so those facts are a prefix and bisection finds its end.
    j = bisect.bisect_left(
        range(frontier.count), True, key=lambda k: not (total_capacity - m0[k] >= cum_h[k])
    )
    if j == frontier.count:
        # h_tot is summed apart from cum_h, so it can pass M by an ulp.
        m1 = min(frontier.h_tot, total_capacity)
    else:
        m1 = max(float(total_capacity - m0[j]), float(cum_h[j - 1]) if j else 0.0)

    m2 = total_capacity - m1
    loss1 = frontier.loss_at(m1)
    loss2 = eval_web_loss(web, m2)
    return Allocation(
        knowledge_capacity=m1,
        web_capacity=m2,
        knowledge_loss=loss1,
        web_loss=loss2,
        mixture_loss=r * loss1 + (1.0 - r) * loss2,
        learned=frontier.fractions_at(m1),
    )


def full_threshold_report(
    mixture: MixtureUniverse, total_capacity: float | None = None
) -> ThresholdReport:
    """All phase-transition thresholds of a uniform-frequency mixture.

    Model size: at or below m0_minus(r*p/(1-r)) the optimal learner stores
    no facts; at or above m0_plus(r*p/(1-r)) + H_tot it stores all of them.
    For a power-law web curve the two m0 values coincide and the report
    carries (A*alpha*(1-r)/(r*p)) ** (1/(alpha+1)) as the nominal single
    threshold along with the scaling exponent alpha + 1.

    Mixing ratio, at capacity M (the fields stay None without one): below
    r_lower = g / (p + g), with g the left web marginal at M, nothing is
    learned; above r_upper, computed from the right marginal at M - H_tot,
    everything is. When M <= H_tot full learning may require r -> 1, so
    r_upper is reported as 1. The asymptotic mixing ratio is g/p, the
    small-r form under which halving the fact count halves the ratio.

    Single-fact frequency, at capacity M: a fact whose overall corpus
    frequency r*p exceeds the band is learned. The bounds are r*p at the
    mixing-ratio bounds; the asymptotic value is the small-r limit
    f ~ -F2'(M) = g, which for a power law is A * alpha * M**(-alpha-1).
    """
    web, h_tot = mixture.web, mixture.knowledge.h_tot
    p = mixture.knowledge.uniform_frequency()
    if p is None:
        raise ValueError(
            "threshold formulas need a uniform exposure_frequency; "
            "got heterogeneous facts"
        )
    t = mixture._marginal_ratio(p)
    exponent = asymptotic = None
    if isinstance(web, PowerLawCurve):
        exponent = web.exponent + 1.0
        asymptotic = (web.amplitude * web.exponent / t) ** (1.0 / exponent)
    bands = {}
    if total_capacity is not None:
        if not (math.isfinite(total_capacity) and total_capacity > 0.0):
            raise ValueError(f"total_capacity must be finite and > 0, got {total_capacity}")
        g = web_marginal(web, total_capacity, "left")
        r_lower = min(max(g / (p + g), 0.0), 1.0)
        r_upper = 1.0
        if total_capacity - h_tot > 0.0:
            g_up = web_marginal(web, total_capacity - h_tot, "right")
            if not math.isinf(g_up):
                r_upper = min(max(g_up / (p + g_up), 0.0), 1.0)
        bands = dict(
            mixing_ratio_lower=r_lower,
            mixing_ratio_upper=r_upper,
            single_fact_frequency_lower=r_lower * p,
            single_fact_frequency_upper=r_upper * p,
            single_fact_frequency_asymptotic=g,
            mixing_ratio_asymptotic=g / p,
        )
    return ThresholdReport(
        model_size_lower=m0_minus(web, t),
        model_size_upper=m0_plus(web, t) + h_tot,
        model_size_asymptotic=asymptotic,
        exponent=exponent,
        **bands,
    )


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
    if ckm_ratio < 0.0:
        raise ValueError(f"ckm_ratio must be >= 0, got {ckm_ratio}")
    if original_tokens_per_fact <= 0.0 or compact_tokens_per_fact <= 0.0:
        raise ValueError("token counts must be > 0")
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
