"""Data universes and their best-achievable loss curves.

A knowledge universe is a finite collection of random facts, given as two
columns: each fact's exposure frequency and its target-token entropy. A
web-domain loss curve gives the best achievable loss F(M) as a function of
capacity M (in bits), either as a power law C + A * M**(-alpha) or as a
tabulated convex piecewise-linear curve. All entropies and losses are in
bits; callers converting from nats do so before construction.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads or worker processes. A
knowledge universe keeps its facts in read-only columns and caches its
sorted frontier on first use; the cache is a pure function of those
columns, so sharing a universe shares the sort. numpy holds those fact
columns and nothing else: web curves are Python floats, which no SIMD
dispatch reaches. A power law goes through the C library's pow (Python's
**); a tabulated curve keeps tuples, searched with bisect and interpolated
as np.interp does. A mixture caches nothing: m0_minus is the one map from
a marginal threshold to a web capacity, on the same primitives.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Union

import numpy as np

from ._json import json_number

__all__ = [
    "KnowledgeUniverse",
    "PowerLawCurve",
    "TabulatedCurve",
    "WebLossCurve",
    "MixtureUniverse",
    "eval_web_loss",
    "web_marginal",
    "m0_minus",
    "warmup_loss",
    "knowledge_frontier",
    "mixture_to_dict",
    "mixture_from_dict",
    "web_curve_to_dict",
    "web_curve_from_dict",
]

Side = Literal["left", "right"]


class KnowledgeUniverse:
    """A knowledge-dense domain of disjoint facts plus its irreducible loss.

    Facts are stored as two read-only float64 columns, copied from the
    arguments: ``p`` (exposure frequencies, each in (0, 1], summing to at
    most 1) and ``h`` (target entropies, bits, each finite and >= 0, with a
    finite total). irreducible_loss, stored as a float, is the loss that
    remains with unbounded capacity (the floor of the domain's loss curve).
    The sorted frontier is built on first use and shared by every later
    solve on this universe.
    """

    def __init__(self, p, h, irreducible_loss: float = 0.0):
        p, h = np.array(p, dtype=float), np.array(h, dtype=float)
        if p.ndim != 1 or p.shape != h.shape:
            raise ValueError(
                f"p and h must be 1-D and of equal length, got shapes {p.shape} and {h.shape}"
            )
        bad = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))
        if bad.size:
            raise ValueError(
                f"exposure_frequency must be in (0, 1], got {float(p[bad[0]])}"
            )
        bad = np.flatnonzero(~(np.isfinite(h) & (h >= 0.0)))
        if bad.size:
            raise ValueError(
                f"target_entropy must be finite and >= 0, got {float(h[bad[0]])}"
            )
        if not (math.isfinite(irreducible_loss) and irreducible_loss >= 0.0):
            raise ValueError(
                f"irreducible_loss must be finite and >= 0, got {irreducible_loss}"
            )
        total_p = math.fsum(memoryview(p))
        if total_p > 1.0 + 1e-12:
            raise ValueError(
                f"fact exposure_frequency values must sum to <= 1 "
                f"(contexts are disjoint), got {total_p}"
            )
        try:
            # Total target entropy (bits): the cost of learning every fact.
            h_tot = math.fsum(memoryview(h))
        except OverflowError:
            raise ValueError("target_entropy values must sum to a finite total") from None
        p.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "irreducible_loss", float(irreducible_loss))
        object.__setattr__(self, "h_tot", h_tot)

    def __setattr__(self, name, value):
        raise AttributeError(f"KnowledgeUniverse is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KnowledgeUniverse is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, KnowledgeUniverse):
            return NotImplemented
        return (
            self.irreducible_loss == other.irreducible_loss
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.h, other.h)
        )

    def __hash__(self):
        return hash((self.irreducible_loss, self.fact_count, self.h_tot))

    def __repr__(self):
        return (
            f"KnowledgeUniverse(fact_count={self.fact_count}, "
            f"irreducible_loss={self.irreducible_loss!r})"
        )

    def __reduce__(self):
        return KnowledgeUniverse, (self.p, self.h, self.irreducible_loss)

    @property
    def fact_count(self) -> int:
        return self.p.size

    @cached_property
    def _frontier(self) -> _FrontierCurve:
        """The greedy frontier, sorted once per universe."""
        return _FrontierCurve(self.p, self.h, self.irreducible_loss, self.h_tot)


@dataclass(frozen=True)
class PowerLawCurve:
    """Best-achievable web loss F(M) = floor + amplitude * M**(-exponent).

    The exponent must lie in (0, 1). The curve diverges at M = 0; evaluation
    there, or at a capacity so small that the power passes the float range,
    returns +inf as a documented sentinel so that allocation code can treat
    a zero web budget uniformly (the allocator never selects it).
    """

    floor: float
    amplitude: float
    exponent: float

    def __post_init__(self):
        if not 0.0 < self.exponent < 1.0:
            raise ValueError(f"exponent must be in (0, 1), got {self.exponent}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")


@dataclass(frozen=True)
class TabulatedCurve:
    """Piecewise-linear convex loss curve given as (capacity, loss) points.

    Points must be sorted by capacity, start at capacity 0, have
    non-increasing losses, and have non-decreasing slopes (convexity).
    Non-convex point lists are rejected rather than convexified so that data
    errors surface instead of being silently smoothed away. Beyond the last
    point the curve is flat at the final loss.
    """

    points: tuple[tuple[float, float], ...]
    _capacities: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((float(m), float(f)) for m, f in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("tabulated curve needs at least 2 points")
        caps = tuple(m for m, _ in pts)
        losses = [f for _, f in pts]
        if not all(map(math.isfinite, (*caps, *losses))):
            raise ValueError("points must be finite")
        if caps[0] != 0.0:
            raise ValueError(f"first capacity must be 0, got {caps[0]}")
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ValueError("capacities must be strictly increasing")
        if any(f < 0.0 for f in losses):
            raise ValueError("losses must be >= 0")
        if any(b > a for a, b in zip(losses, losses[1:])):
            raise ValueError("losses must be non-increasing in capacity")
        slopes = tuple((f1 - f0) / (m1 - m0) for (m0, f0), (m1, f1) in zip(pts, pts[1:]))
        for k, slope in enumerate(slopes):
            if not math.isfinite(slope):
                raise ValueError(f"the slope of the segment from {pts[k]} to {pts[k + 1]} "
                                 "overflows")
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("points are not convex (slopes must be non-decreasing)")
        object.__setattr__(self, "_capacities", caps)
        object.__setattr__(self, "_slopes", slopes)


WebLossCurve = Union[PowerLawCurve, TabulatedCurve]


@dataclass(frozen=True)
class MixtureUniverse:
    """A knowledge domain mixed with a web domain at ratio r.

    The mixture draws a fraction ``mixing_ratio`` of the data distribution
    from the knowledge domain and the rest from the web domain; the two
    domains carry non-overlapping information, so their losses add.
    """

    knowledge: KnowledgeUniverse
    web: WebLossCurve
    mixing_ratio: float

    def __post_init__(self):
        if not 0.0 < self.mixing_ratio < 1.0:
            raise ValueError(
                f"mixing_ratio must be in (0, 1), got {self.mixing_ratio}"
            )


def _marginal_ratio(r: float, p: float) -> float:
    """Threshold t = r*p/(1-r) that the web marginal is compared against.

    A frequency so small that t underflows to 0 is refused, as is r = 0:
    no web capacity is worth it.
    """
    t = r * p / (1.0 - r)
    if t == 0.0:
        raise ValueError(f"exposure_frequency {p} is too small for "
                         f"mixing_ratio {r}: r*p/(1-r) underflows to 0")
    return t


def eval_web_loss(curve: WebLossCurve, capacity: float) -> float:
    """Best achievable web loss at the given capacity (bits)."""
    if not capacity >= 0.0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if isinstance(curve, PowerLawCurve):
        try:
            return curve.floor + curve.amplitude * capacity ** (-curve.exponent)
        except (ZeroDivisionError, OverflowError):  # capacity 0, or a power past the float range
            return math.inf
    # np.interp's arithmetic: a breakpoint's own loss, else slope_j * (M - m_j) + f_j.
    if capacity >= curve._capacities[-1]:
        return curve.points[-1][1]
    j = bisect.bisect_right(curve._capacities, capacity) - 1
    m_j, f_j = curve.points[j]
    return f_j if capacity == m_j else curve._slopes[j] * (capacity - m_j) + f_j


def web_marginal(curve: WebLossCurve, capacity: float, side: Side) -> float:
    """Nonnegative marginal value of web capacity: the negated one-sided derivative.

    For a power law both sides agree. For a tabulated curve the left side is
    the negated slope of the segment ending at ``capacity`` and the right
    side the negated slope of the segment starting there; at a breakpoint
    left >= right. Beyond the last point the curve is flat, so both sides
    are 0 there.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not capacity >= 0.0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if capacity == 0.0 and side == "left":
        raise ValueError("left derivative is undefined at capacity 0")
    if isinstance(curve, PowerLawCurve):
        try:
            return curve.amplitude * curve.exponent * capacity ** (-curve.exponent - 1.0)
        except (ZeroDivisionError, OverflowError):  # capacity 0, or a power past the float range
            return math.inf
    # Segment i with capacity in (caps[i], caps[i+1]] (left) or [caps[i], caps[i+1]) (right).
    search = bisect.bisect_left if side == "left" else bisect.bisect_right
    i = search(curve._capacities, capacity) - 1
    if i >= len(curve._slopes):
        return 0.0
    return -curve._slopes[i]


def m0_minus(curve: WebLossCurve, t: float) -> float:
    """Last capacity at which the web marginal still exceeds t.

    sup{M >= 0 : -F'(M) > t}; returns 0 when no capacity qualifies. On a
    flat-marginal band this is the band's low end, where ties go to the
    knowledge domain.
    """
    if not t > 0.0:
        raise ValueError(f"marginal threshold t must be > 0, got {t}")
    scale, power, slopes, caps = _m0_terms(curve)
    return (scale / t) ** power if slopes is None else caps[bisect.bisect_left(slopes, -t)]


def _m0_terms(curve: WebLossCurve) -> tuple:
    """(scale, power, slopes, caps), in which m0_minus(curve, t) for t > 0 is
    (scale / t) ** power on a power law (slopes and caps None) and
    caps[bisect_left(slopes, -t)] on a tabulated curve (scale and power None).

    A power law goes through Python's ** (the C library's pow), which gives
    +inf when A*alpha/t overflows: no finite web capacity is enough. On a
    tabulated curve the marginals -slope are non-increasing by convexity, so
    the slopes are searched ascending: k = number of segments with marginal
    > t, and the answer is the breakpoint that ends that run of segments.
    """
    if isinstance(curve, PowerLawCurve):
        return curve.amplitude * curve.exponent, 1.0 / (curve.exponent + 1.0), None, None
    return None, None, curve._slopes, curve._capacities


def warmup_loss(knowledge: KnowledgeUniverse, capacity: float) -> float:
    """Best loss when every fact shares one exposure frequency p.

    F(M) = irreducible_loss + p * max(H_tot - M, 0): loss falls linearly
    with capacity until the whole domain is stored, then stays flat.
    Frequencies within a relative 1e-12 of each other count as equal; facts
    further apart are refused, as is a loss with nothing learned that
    overflows.
    """
    if not capacity >= 0.0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    c1 = knowledge.irreducible_loss
    if not knowledge.fact_count:
        return c1
    p, p_max = float(knowledge.p[0]), float(knowledge.p.max())
    if p_max - float(knowledge.p.min()) > 1e-12 * p_max:
        raise ValueError(
            "facts have heterogeneous exposure frequencies; "
            "use knowledge_frontier instead"
        )
    if math.isinf(c1 + p * knowledge.h_tot):
        raise ValueError(
            f"irreducible_loss {c1!r} plus p * H_tot {p * knowledge.h_tot!r} overflows: "
            "the knowledge loss with no fact learned leaves the float range"
        )
    return c1 + p * max(knowledge.h_tot - capacity, 0.0)


class _FrontierCurve:
    """Prepared greedy frontier of a knowledge universe.

    The zeros facts with zero entropy cost nothing and come first, by index;
    the rest follow by exposure frequency descending (ties by index), and
    capacity is spent in that order; the boundary fact is learned
    fractionally. Prefix sums led by 0.0 make index, the one search,
    O(log K); the loss and the learned layout at a capacity read its answer.
    """

    def __init__(self, p: np.ndarray, h: np.ndarray, c1: float, h_tot: float):
        self.c1 = c1
        self.count = p.size
        self.h_tot = h_tot
        self.p_min = float(p.min(initial=1.0))  # of all facts, checked for underflow
        # A stable sort of -p with the zero-entropy facts keyed -inf, freed before the sums.
        zero, key = h == 0.0, -p
        key[zero] = -np.inf
        self.order, self.zeros = np.argsort(key, kind="stable"), int(np.count_nonzero(zero))
        del zero, key
        self.p_sorted = p[self.order]
        h_sorted = h[self.order]
        h_sorted[:self.zeros] = 0.0  # +0.0, so that no -0.0 entropy reaches a sum
        self.cum_h, self.cum_ph = np.zeros(self.count + 1), np.zeros(self.count + 1)
        # Summed one fact at a time, cum_h can round past the float range where the
        # fsum behind h_tot does not; an infinite cum_ph fails the loss check below.
        with np.errstate(over="ignore"):
            np.cumsum(h_sorted, out=self.cum_h[1:])
            np.cumsum(self.p_sorted * h_sorted, out=self.cum_ph[1:])
        if math.isinf(self.cum_h[-1]):
            raise ValueError(
                f"target_entropy values summed in frequency order overflow, though their "
                f"total {h_tot!r} is finite: the frontier's prefix sums leave the float range"
            )
        # Python-float views for the O(log K) probes; cum_h_next[k] is cum_h[k + 1].
        self.p_view, self.h_view, self.order_view = map(memoryview, (self.p_sorted, h, self.order))
        self.cum_h_view, self.cum_ph_view = memoryview(self.cum_h), memoryview(self.cum_ph)
        self.cum_h_next, self.total_ph = self.cum_h_view[1:], self.cum_ph_view[-1]
        # The loss with nothing learned; every loss on this frontier is at most it.
        if not math.isfinite(c1 + self.total_ph):
            raise ValueError(
                f"irreducible_loss {c1!r} plus sum(p * h) {self.total_ph!r} overflows: "
                "the knowledge loss with no fact learned leaves the float range"
            )

    def index(self, capacity: float, lo: int = 0) -> int:
        """The number of sorted facts whose cumulative entropy fits in capacity.

        That is the count of k with cum_h[k + 1] <= capacity, found by
        bisection in O(log K). lo is a count known to fit (cum_h[lo] <=
        capacity); when sorted fact lo does not fit, one probe answers lo.
        """
        if lo == self.count or self.cum_h_next[lo] > capacity:
            return lo
        return bisect.bisect_right(self.cum_h_next, capacity, lo + 1)

    def loss_at(self, capacity: float, k: int) -> float:
        """The knowledge loss at capacity, k being index(capacity)."""
        if capacity >= self.h_tot:
            return self.c1
        learned = self.cum_ph_view[k]
        if k < self.count:
            learned += self.p_view[k] * (capacity - self.cum_h_view[k])
        return self.c1 + (self.total_ph - learned)

    def boundary(self, capacity: float, k: int) -> tuple[int, float]:
        """(k, f): the learned layout at a capacity, k being index(capacity).

        The first k sorted facts, led by the zero-entropy ones once capacity
        > 0, are fully learned and sorted fact k (if k < K) holds the
        fraction f; every other fact is 0.
        """
        if capacity >= self.h_tot:
            return self.count, 0.0
        if not capacity > 0.0:
            return 0, 0.0
        f = 0.0
        if k < self.count:
            # cum_h[k + 1] > capacity >= cum_h[k], so fact k has h > 0.
            f = (capacity - self.cum_h_view[k]) / self.h_view[self.order_view[k]]
        return k, f

    def fractions_at(self, capacity: float, k: int) -> np.ndarray:
        """Learned fraction of every fact in original order, laid out by
        boundary (k being index(capacity)), as a new read-only float64 array.

        Only the learned prefix and the boundary fact are written through
        the sort order; the rest stay 0.
        """
        k, f = self.boundary(capacity, k)
        fractions = np.zeros(self.count)
        fractions[self.order[:k]] = 1.0
        if f:
            fractions[self.order[k]] = f
        fractions.flags.writeable = False
        return fractions


def knowledge_frontier(
    knowledge: KnowledgeUniverse, capacity: float
) -> tuple[float, np.ndarray]:
    """Best loss over the knowledge domain alone, plus per-fact learned fractions.

    Any positive capacity learns the zero-entropy facts and is spent greedily
    on the most frequently exposed other facts first (ties broken by fact
    index, for determinism), the boundary fact learned fractionally. With
    uniform frequencies this matches warmup_loss exactly. The fractions come
    in fact order as a read-only float64 array, the type of Allocation.learned.
    """
    if not capacity >= 0.0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    frontier = knowledge._frontier
    k = frontier.index(capacity)
    return frontier.loss_at(capacity, k), frontier.fractions_at(capacity, k)


# ---------------------------------------------------------------------------
# JSON document form. Field names are part of the contract:
# {"knowledge": {"facts": [{"p":..,"h":..}], "c1":..},
#  "web": {"power_law": {"c":..,"a":..,"alpha":..}} | {"tabulated": [[M,F],..]},
#  "r": ..}
# ---------------------------------------------------------------------------


def web_curve_to_dict(curve: WebLossCurve) -> dict:
    if isinstance(curve, PowerLawCurve):
        return {
            "power_law": {"c": curve.floor, "a": curve.amplitude, "alpha": curve.exponent}
        }
    return {"tabulated": [[m, f] for m, f in curve.points]}


def web_curve_from_dict(doc: dict, path: str = "web") -> WebLossCurve:
    """A web curve from its document; path names the document in errors."""
    if "power_law" in _object(doc, path):
        path += ".power_law"
        pl = _object(doc["power_law"], path)
        return PowerLawCurve(
            floor=json_number(pl["c"], f"{path}.c"),
            amplitude=json_number(pl["a"], f"{path}.a"),
            exponent=json_number(pl["alpha"], f"{path}.alpha"),
        )
    if "tabulated" in doc:
        path += ".tabulated"
        points = doc["tabulated"]
        if not isinstance(points, (list, tuple)) or not all(
            isinstance(pt, (list, tuple)) and len(pt) == 2 for pt in points
        ):
            raise ValueError(f"{path} must be a JSON array of [capacity, loss] pairs")
        return TabulatedCurve(
            points=tuple(
                (json_number(m, f"{path}[{i}][0]"), json_number(f, f"{path}[{i}][1]"))
                for i, (m, f) in enumerate(points)
            )
        )
    raise ValueError("web curve document needs a 'power_law' or 'tabulated' entry")


def mixture_to_dict(mixture: MixtureUniverse) -> dict:
    knowledge = mixture.knowledge
    return {
        "knowledge": {
            "facts": [
                {"p": p, "h": h}
                for p, h in zip(knowledge.p.tolist(), knowledge.h.tolist())
            ],
            "c1": knowledge.irreducible_loss,
        },
        "web": web_curve_to_dict(mixture.web),
        "r": mixture.mixing_ratio,
    }


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be a JSON object")
    return value


def _fact_column(facts: list, key: str) -> np.ndarray:
    """One field of every fact document, as a float64 column."""
    try:
        column = [f[key] for f in facts]
    except TypeError:
        i = next(i for i, f in enumerate(facts) if not isinstance(f, dict))
        raise ValueError(f"mixture.knowledge.facts[{i}] must be a JSON object") from None
    # One pass over the element types; the per-element check only runs to
    # name the offending fact, of a wrong type or beyond the float range.
    try:
        if set(map(type, column)) <= {int, float}:
            return np.array(column, dtype=float)
    except OverflowError:
        pass
    for i, value in enumerate(column):
        json_number(value, f"mixture.knowledge.facts[{i}].{key}")
    return np.array(column, dtype=float)


def mixture_from_dict(doc: dict) -> MixtureUniverse:
    try:
        kdoc = _object(_object(doc, "mixture")["knowledge"], "mixture.knowledge")
        facts = kdoc["facts"]
        if not isinstance(facts, (list, tuple)):
            raise ValueError("mixture.knowledge.facts must be a JSON array")
        knowledge = KnowledgeUniverse(
            _fact_column(facts, "p"),
            _fact_column(facts, "h"),
            json_number(kdoc.get("c1", 0.0), "mixture.knowledge.c1"),
        )
        web = web_curve_from_dict(doc["web"], "mixture.web")
        return MixtureUniverse(
            knowledge=knowledge, web=web, mixing_ratio=json_number(doc["r"], "mixture.r")
        )
    except KeyError as exc:
        raise ValueError(f"mixture document is missing field {exc}") from exc
