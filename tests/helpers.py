"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: the knowledge
frontier is cross-checked by enumerating basic feasible solutions of the
underlying linear program (every subset fully learned plus one fractional
boundary fact), and the allocator by a dense grid over the capacity split.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    eval_web_loss,
    knowledge_frontier,
)


def make_uniform_knowledge(rng, max_facts=50) -> KnowledgeUniverse:
    k = int(rng.integers(1, max_facts + 1))
    p = float(rng.uniform(0.001, 1.0)) / k
    entropies = rng.uniform(0.1, 20.0, size=k)
    return KnowledgeUniverse(
        np.full(k, p), entropies, irreducible_loss=float(rng.uniform(0.0, 3.0))
    )


def make_hetero_knowledge(rng, max_facts=8) -> KnowledgeUniverse:
    k = int(rng.integers(1, max_facts + 1))
    raw = rng.uniform(0.05, 1.0, size=k)
    budget = float(rng.uniform(0.2, 1.0))
    p = raw / raw.sum() * budget
    entropies = rng.uniform(0.1, 10.0, size=k)
    return KnowledgeUniverse(p, entropies, irreducible_loss=float(rng.uniform(0.0, 3.0)))


def make_power_law(rng) -> PowerLawCurve:
    return PowerLawCurve(
        floor=float(rng.uniform(0.0, 3.0)),
        amplitude=float(rng.uniform(1.0, 500.0)),
        exponent=float(rng.uniform(0.05, 0.95)),
    )


def make_tabulated(rng, max_segments=6) -> TabulatedCurve:
    n_seg = int(rng.integers(2, max_segments + 1))
    gaps = rng.uniform(1.0, 30.0, size=n_seg)
    caps = np.concatenate([[0.0], np.cumsum(gaps)])
    # Convex and non-increasing: negative slopes sorted ascending toward 0.
    slopes = np.sort(-rng.uniform(0.01, 2.0, size=n_seg))
    losses = [float(rng.uniform(5.0, 20.0))]
    for slope, gap in zip(slopes, gaps):
        losses.append(losses[-1] + float(slope) * float(gap))
    shift = -min(losses)
    if shift > 0:
        losses = [l + shift for l in losses]
    return TabulatedCurve(points=tuple(zip(caps.tolist(), losses)))


def make_mixture(rng, uniform=True, tabulated=False) -> MixtureUniverse:
    knowledge = (
        make_uniform_knowledge(rng) if uniform else make_hetero_knowledge(rng)
    )
    web = make_tabulated(rng) if tabulated else make_power_law(rng)
    return MixtureUniverse(
        knowledge=knowledge,
        web=web,
        mixing_ratio=float(rng.uniform(0.02, 0.98)),
    )


def frontier_vertex_oracle(knowledge: KnowledgeUniverse, capacity: float) -> float:
    """Exact minimum loss by enumerating LP basic solutions.

    Every candidate sets one subset of facts fully learned and at most one
    further fact fractionally learned with the leftover capacity; the
    continuous optimum is always of this form, so the enumeration is exact.
    """
    k = knowledge.fact_count
    p, h = knowledge.p, knowledge.h
    base = knowledge.irreducible_loss + float(np.dot(p, h))
    best = base  # learn nothing
    for subset in itertools.product((0, 1), repeat=k):
        mask = np.array(subset, dtype=bool)
        used = float(h[mask].sum())
        if used > capacity + 1e-12:
            continue
        gain_full = float(np.dot(p[mask], h[mask]))
        best = min(best, base - gain_full)
        rest = capacity - used
        for j in range(k):
            if mask[j] or h[j] <= 0.0:
                continue
            frac = min(rest / h[j], 1.0)
            best = min(best, base - gain_full - p[j] * h[j] * frac)
    return best


def frontier_grid_oracle(knowledge: KnowledgeUniverse, capacity: float, step: float) -> float:
    """Grid minimization over per-fact fractions for two-fact universes."""
    assert knowledge.fact_count == 2
    p, h = knowledge.p, knowledge.h
    grid = np.arange(0.0, 1.0 + step / 2, step)
    f1, f2 = np.meshgrid(grid, grid, indexing="ij")
    spend = f1 * h[0] + f2 * h[1]
    loss = knowledge.irreducible_loss + p[0] * h[0] * (1 - f1) + p[1] * h[1] * (1 - f2)
    loss = np.where(spend <= capacity + 1e-12, loss, np.inf)
    return float(loss.min())


def allocation_grid_oracle(mixture: MixtureUniverse, capacity: float, n=1000) -> float:
    """Best mixed loss over a dense grid of capacity splits."""
    upper = min(capacity, mixture.knowledge.h_tot)
    grid = np.linspace(0.0, upper, n + 1) if upper > 0 else np.array([0.0])
    r = mixture.mixing_ratio
    best = math.inf
    for m1 in grid:
        loss1, _ = knowledge_frontier(mixture.knowledge, float(m1))
        loss2 = eval_web_loss(mixture.web, capacity - float(m1))
        best = min(best, r * loss1 + (1 - r) * loss2)
    return best
