"""Reference allocation solver, written apart from mixcap.

The benchmark checks mixcap's outputs against this module, so it imports
nothing from the package. The method is the marginal-matching solution of
the mixture objective

    r * F1(m1) + (1 - r) * F2(M - m1):

sort the facts by exposure frequency descending (ties by index), so that
fact k occupies knowledge capacity [lo_k, lo_k + h_k]. Its next bit is worth
t_k = r*p_k/(1-r) to the knowledge domain and costs the web its marginal
g(m2) = -F2'(m2). Fact k is therefore learned up to the point where m2 falls
to m0(t_k), the last web capacity whose marginal still exceeds t_k:

    x_k = clip(M - m0(t_k) - lo_k, 0, h_k),  m1 = sum_k x_k.

Taking the last capacity whose marginal *exceeds* t_k gives a flat band of
equal marginals to the knowledge domain, which is the documented tie rule.
At most one fact is fractional, because x_k < h_k forces x_(k+1) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLaw:
    """F(m) = c + a * m**(-alpha); +inf at m = 0."""

    c: float
    a: float
    alpha: float

    def loss(self, m: float) -> float:
        return math.inf if m == 0.0 else self.c + self.a * m ** (-self.alpha)

    def marginal_left(self, m: float) -> float:
        return math.inf if m == 0.0 else self.a * self.alpha * m ** (-self.alpha - 1.0)

    marginal_right = marginal_left

    def m0(self, t: np.ndarray) -> np.ndarray:
        """Capacity at which the marginal equals t (strictly decreasing marginal)."""
        return (self.a * self.alpha / np.asarray(t, dtype=float)) ** (
            1.0 / (self.alpha + 1.0)
        )


@dataclass(frozen=True)
class Tabulated:
    """Convex piecewise-linear curve through (capacity, loss) points, flat after."""

    points: tuple[tuple[float, float], ...]

    @property
    def caps(self) -> np.ndarray:
        return np.array([m for m, _ in self.points], dtype=float)

    @property
    def marginals(self) -> np.ndarray:
        """-slope of each segment, non-increasing by convexity."""
        caps = self.caps
        losses = np.array([f for _, f in self.points], dtype=float)
        return -np.diff(losses) / np.diff(caps)

    def loss(self, m: float) -> float:
        caps = self.caps
        losses = np.array([f for _, f in self.points], dtype=float)
        return float(losses[-1]) if m >= caps[-1] else float(np.interp(m, caps, losses))

    def marginal_left(self, m: float) -> float:
        j = int(np.searchsorted(self.caps, m, side="left")) - 1
        return float(self.marginals[j]) if 0 <= j < len(self.marginals) else 0.0

    def marginal_right(self, m: float) -> float:
        j = int(np.searchsorted(self.caps, m, side="right")) - 1
        return float(self.marginals[j]) if j < len(self.marginals) else 0.0

    def m0(self, t: np.ndarray) -> np.ndarray:
        """sup{m : g(m) > t}: the breakpoint ending the segments whose marginal exceeds t."""
        marg = self.marginals
        count = np.searchsorted(-marg, -np.asarray(t, dtype=float), side="left")
        return self.caps[count]


def web_from_doc(doc: dict):
    """The web curve of a mixture document's "web" entry."""
    if "power_law" in doc:
        pl = doc["power_law"]
        return PowerLaw(c=float(pl["c"]), a=float(pl["a"]), alpha=float(pl["alpha"]))
    return Tabulated(points=tuple((float(m), float(f)) for m, f in doc["tabulated"]))


@dataclass(frozen=True)
class Solution:
    m1: float
    m2: float
    learned: np.ndarray  # per-fact learned fraction, original fact order
    mixture_loss: float
    accuracy: float  # entropy-weighted learned share


def knowledge_loss(p: np.ndarray, h: np.ndarray, learned: np.ndarray, c1: float) -> float:
    return c1 + math.fsum((p * h * (1.0 - learned)).tolist())


def entropy_accuracy(h: np.ndarray, learned: np.ndarray) -> float:
    total = math.fsum(h.tolist())
    return 1.0 if total == 0.0 else math.fsum((h * learned).tolist()) / total


def solve(p, h, r: float, web, capacity: float, c1: float = 0.0) -> Solution:
    """Optimal split with ties to the knowledge domain; every h must be > 0."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    order = np.argsort(-p, kind="stable")
    ps, hs = p[order], h[order]
    lo = np.concatenate(([0.0], np.cumsum(hs)[:-1]))
    x = np.clip(capacity - web.m0(r * ps / (1.0 - r)) - lo, 0.0, hs)
    learned = np.empty_like(p)
    learned[order] = x / hs
    m1 = math.fsum(x.tolist())
    m2 = capacity - m1
    return Solution(
        m1=m1,
        m2=m2,
        learned=learned,
        mixture_loss=r * knowledge_loss(p, h, learned, c1) + (1.0 - r) * web.loss(m2),
        accuracy=entropy_accuracy(h, learned),
    )


def frontier(p, h, capacity: float, c1: float = 0.0) -> tuple[float, np.ndarray]:
    """Knowledge domain alone: spend capacity on the most frequent facts first."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    order = np.argsort(-p, kind="stable")
    hs = h[order]
    lo = np.concatenate(([0.0], np.cumsum(hs)[:-1]))
    learned = np.empty_like(p)
    learned[order] = np.clip(capacity - lo, 0.0, hs) / hs
    return knowledge_loss(p, h, learned, c1), learned


def single_fact_closed_form(p: float, h: float, c1: float, web: PowerLaw, r: float, capacity: float):
    """(m1, m2, loss) for one fact and a power-law web: m2 = m0(t) unless clipped."""
    t = r * p / (1.0 - r)
    m0 = (web.a * web.alpha / t) ** (1.0 / (web.alpha + 1.0))
    m1 = min(max(capacity - m0, 0.0), h, capacity)
    m2 = capacity - m1
    loss = r * (c1 + p * (h - m1)) + (1.0 - r) * web.loss(m2)
    return m1, m2, loss


def loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of ln y on ln x."""
    u = np.log(np.asarray(xs, dtype=float))
    v = np.log(np.asarray(ys, dtype=float))
    du = u - u.mean()
    return float(np.dot(du, v - v.mean()) / np.dot(du, du))
