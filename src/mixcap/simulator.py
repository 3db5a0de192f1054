"""Theory-exact synthetic experiments around the mixing phase transitions.

A sweep evaluates the optimal allocation along a model-size or mixing-ratio
grid and reports accuracy next to the domain losses; the accuracy column is
exactly 0 below the lower phase boundary and exactly 1 above the upper one.
The subset experiment builds a knowledge universe of equal-size groups whose
sampling weights follow a power law, then reads off the threshold corpus
frequency at each capacity as the frequency of the first group whose
accuracy falls below the target; a group's accuracy, the mean learned
fraction of its facts, is read off the frontier boundary. Fitting log
threshold frequency against log capacity (``analysis.fit_loglog``)
recovers a line of slope -(alpha + 1), alpha being the web scaling exponent.

Everything is a pure function of its config. A grid is solved as one
bracketed search: the learned prefix of the knowledge frontier never shrinks
along a strictly increasing grid of either axis, so each point bisects only
between the prefix ends of the solved points on either side of it, and gets
the allocation an independent solve gives it. Output is in grid order.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .allocator import Allocation, _grid_solve
from .universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    WebLossCurve,
    _FrontierCurve,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SubsetExperiment",
    "SubsetCapacityResult",
    "accuracy",
    "count_accuracy",
    "sweep",
    "build_subset_universe",
    "run_subset_experiment",
    "sweep_csv",
    "subset_long_csv",
    "subset_thresholds_csv",
    "THRESHOLD_LAW_REFERENCE",
]

# Reference comparison for the threshold-frequency law: the slope measured
# on a trained-model study of the same design (1.152) next to the
# scaling-exponent prediction alpha + 1 for alpha = 0.283. The simulation
# here reproduces the prediction by construction and cannot arbitrate the gap.
THRESHOLD_LAW_REFERENCE = {"fitted_slope": 1.152, "predicted_exponent": 1.283}

# Out-of-band marker for "no group fell below the target" in CSV output;
# 0 is a legal frequency, so the sentinel must not be numeric.
THRESHOLD_SENTINEL = "NA"


def _check_grid(name: str, grid: tuple[float, ...], ratios: bool = False) -> None:
    """Refuse an empty or unordered grid, or one with ratios outside (0, 1) or bad capacities."""
    if not grid:
        raise ValueError(f"{name} must be non-empty")
    for g in grid:
        if ratios and not 0.0 < g < 1.0:
            raise ValueError(f"{name} entries must be in (0, 1), got {g}")
        if not ratios and not (math.isfinite(g) and g >= 0.0):
            raise ValueError(f"{name} entries must be finite and >= 0, got {g}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class SweepConfig:
    """One-axis sweep specification.

    ``grid`` must be strictly increasing, its entries finite capacities >= 0
    on a model-size axis and ratios in (0, 1) on a mixing-ratio axis. A
    mixing-ratio sweep holds ``total_capacity`` fixed while r varies, so
    that field is required for that axis; a model-size sweep takes its
    capacities from the grid. ``total_capacity``, when given, must be finite
    and >= 0. A sweep reports the accuracy at every grid point and applies
    no target.
    """

    mixture: MixtureUniverse
    sweep_axis: str
    grid: tuple[float, ...]
    total_capacity: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if self.sweep_axis not in ("model_size", "mixing_ratio"):
            raise ValueError(
                f"sweep_axis must be 'model_size' or 'mixing_ratio', got {self.sweep_axis!r}"
            )
        _check_grid("grid", self.grid, ratios=self.sweep_axis == "mixing_ratio")
        if self.sweep_axis == "mixing_ratio" and self.total_capacity is None:
            raise ValueError("mixing_ratio sweeps need total_capacity")
        capacity = self.total_capacity
        if capacity is not None and not (math.isfinite(capacity) and capacity >= 0.0):
            raise ValueError(f"total_capacity must be finite and >= 0, got {capacity}")


@dataclass(frozen=True, init=False)
class SweepRow:
    axis_value: float
    accuracy: float
    accuracy_count: float
    knowledge_loss: float
    web_loss: float
    mixture_loss: float

    def __init__(self, axis_value: float, accuracy: float, accuracy_count: float,
                 knowledge_loss: float, web_loss: float, mixture_loss: float):
        # Fills the instance dict in place, as Allocation's __init__ does.
        values = self.__dict__
        values["axis_value"] = axis_value
        values["accuracy"] = accuracy
        values["accuracy_count"] = accuracy_count
        values["knowledge_loss"] = knowledge_loss
        values["web_loss"] = web_loss
        values["mixture_loss"] = mixture_loss


def accuracy(allocation: Allocation, knowledge: KnowledgeUniverse) -> float:
    """Share of the knowledge domain's entropy H_tot that the allocation stores.

    This is m1 / H_tot, one correctly rounded division of the solve's own
    knowledge capacity; in exact arithmetic it is the entropy-weighted
    learned fraction. At m1 >= H_tot, where every fact is learned, it is
    exactly 1.0; that covers a universe with no entropy to learn. A solve
    caps m1 at H_tot, so the division never reads above 1; an Allocation
    built by hand may still carry a larger m1. sweep scores its points with
    the same expression (_accuracy).
    """
    return _accuracy(allocation.knowledge_capacity, knowledge.h_tot)


def _accuracy(m1: float, h_tot: float) -> float:
    return 1.0 if m1 >= h_tot else m1 / h_tot


def count_accuracy(allocation: Allocation) -> float:
    """Plain fraction of facts learned, weighting every fact equally.

    This is fsum(learned) / n, 1.0 when there are no facts, and it reads no
    array: the k = frontier_index learned prefix facts (the zero-entropy
    facts among them at every m1) and the share f of the boundary fact
    that the allocation's universe gives at m1 (_FrontierCurve.fraction)
    make (k + f) / n, the same correctly rounded sum. optimal_allocation
    fills frontier_index from its solve's own search, so scoring a solved
    point searches nothing. sweep scores its
    points with the same expression (_count_accuracy). Secondary metric kept
    alongside the entropy-weighted accuracy for comparison with studies that
    count memorized items.
    """
    return _count_accuracy(
        allocation.knowledge._frontier, allocation.knowledge_capacity, allocation.frontier_index
    )


def _count_accuracy(frontier: _FrontierCurve, m1: float, k: int) -> float:
    if not frontier.count:
        return 1.0
    return (k + frontier.fraction(m1, k)) / frontier.count


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the optimal allocation at every grid point, in grid order.

    Each row is read straight off the grid solve's per-case scalars (m1, the
    three losses and the frontier index), scored with the expressions of
    accuracy and count_accuracy, so no Allocation is built.
    """
    if config.sweep_axis == "model_size":
        cases = [(config.mixture.mixing_ratio, value) for value in config.grid]
    else:
        cases = [(value, config.total_capacity) for value in config.grid]
    knowledge = config.mixture.knowledge
    frontier, h_tot = knowledge._frontier, knowledge.h_tot
    solved = _grid_solve(config.mixture, cases)
    return [
        SweepRow(value, _accuracy(m1, h_tot), _count_accuracy(frontier, m1, k), loss1, loss2, loss)
        for value, (m1, _, loss1, loss2, loss, k) in zip(config.grid, solved)
    ]


@dataclass(frozen=True)
class SubsetExperiment:
    """Power-law-partitioned knowledge universe mixed into a web curve.

    group_count groups of group_size facts each; group g has sampling weight
    proportional to g**(-powerlaw_exponent), split uniformly within the
    group (weights are normalized to sum to 1 before splitting). Every fact
    carries entropy_per_fact > 0 bits, and only a total over all facts that
    overflows is refused; None (the default) stands for
    ``corpus.RECORD_ENTROPY_BITS``, the biography-record entropy, so
    corpus-derived universes line up with this builder.
    ``capacity_grid`` must be strictly increasing, with finite entries >= 0.
    """

    group_count: int = 100
    group_size: int = 100
    powerlaw_exponent: float = 1.5
    mixing_ratio: float = 0.01
    web_curve: WebLossCurve = PowerLawCurve(floor=1.0, amplitude=1e6, exponent=0.283)
    # Chosen so the failing group stays deep in the 100-group partition,
    # where the frequency staircase is fine enough for slope recovery.
    capacity_grid: tuple[float, ...] = tuple(np.geomspace(1e9, 1.2e10, 13).tolist())
    accuracy_target: float = 0.8
    entropy_per_fact: float | None = None

    def __post_init__(self):
        # Read here, so that importing this module loads no corpus.
        from .corpus import NAME_PRODUCT_SIZE, RECORD_ENTROPY_BITS

        if self.entropy_per_fact is None:
            object.__setattr__(self, "entropy_per_fact", RECORD_ENTROPY_BITS)
        object.__setattr__(
            self, "capacity_grid", tuple(float(c) for c in self.capacity_grid)
        )
        if self.group_count < 1 or self.group_size < 1:
            raise ValueError("group_count and group_size must be >= 1")
        facts = self.group_count * self.group_size
        if facts > NAME_PRODUCT_SIZE:
            raise ValueError(
                f"group_count {self.group_count} times group_size {self.group_size} is "
                f"{facts} facts, more than the {NAME_PRODUCT_SIZE} biographies SynBio holds"
            )
        if self.powerlaw_exponent <= 0.0:
            raise ValueError(
                f"powerlaw_exponent must be > 0, got {self.powerlaw_exponent}"
            )
        if not 0.0 < self.mixing_ratio < 1.0:
            raise ValueError(
                f"mixing_ratio must be in (0, 1), got {self.mixing_ratio}"
            )
        out_of_range = (
            f"powerlaw_exponent {self.powerlaw_exponent} is out of range for "
            f"{self.group_count} groups of {self.group_size} facts at mixing_ratio "
            f"{self.mixing_ratio}"
        )
        try:
            p_last = self.weights[-1] / self.group_size
        except ValueError as exc:
            raise ValueError(f"{out_of_range}: {exc}") from None
        if self.mixing_ratio * p_last / (1.0 - self.mixing_ratio) == 0.0:
            raise ValueError(f"{out_of_range}: the last group's r*p/(1-r) underflows to 0")
        _check_grid("capacity_grid", self.capacity_grid)
        if not 0.0 < self.accuracy_target < 1.0:
            raise ValueError(
                f"accuracy_target must be in (0, 1), got {self.accuracy_target}"
            )
        if not (math.isfinite(self.entropy_per_fact) and self.entropy_per_fact > 0.0):
            raise ValueError(
                f"entropy_per_fact must be finite and > 0, got {self.entropy_per_fact}"
            )
        # fl(e*K) overflows exactly when the fsum behind h_tot does.
        if math.isinf(self.entropy_per_fact * facts):
            raise ValueError(
                f"entropy_per_fact {self.entropy_per_fact} times {facts} facts overflows: "
                "the total entropy leaves the float range"
            )

    @cached_property
    def weights(self) -> list[float]:
        """Per-group sampling weights, descending, computed once."""
        from .corpus import power_law_partition

        return power_law_partition(self.group_count, self.powerlaw_exponent)


@dataclass(frozen=True)
class SubsetCapacityResult:
    capacity: float
    group_accuracies: tuple[float, ...]
    threshold_frequency: float | None  # None: no group fell below the target


def build_subset_universe(exp: SubsetExperiment) -> KnowledgeUniverse:
    p = np.repeat(np.divide(exp.weights, exp.group_size), exp.group_size)
    return KnowledgeUniverse(p, np.full(p.size, exp.entropy_per_fact))


def run_subset_experiment(exp: SubsetExperiment) -> list[SubsetCapacityResult]:
    """Per-capacity group accuracies and the measured threshold frequency.

    A group's accuracy is fsum of its learned row over group_size, read off
    the frontier index k and boundary share f as count_accuracy reads them:
    O(groups) per point and no fact-length array. No fact has entropy 0 and p does
    not increase, so the stable frontier order is the identity: the first
    k // group_size groups are 1.0, the next holds
    (k % group_size + f) / group_size and the rest are 0.0. The threshold
    frequency at a capacity is the corpus frequency r * p of the first group
    whose accuracy misses the target, or None if every group clears it. Each
    capacity reads only m1 and its frontier index off the grid solve, so no
    Allocation is built.
    """
    knowledge = build_subset_universe(exp)
    mixture = MixtureUniverse(
        knowledge=knowledge, web=exp.web_curve, mixing_ratio=exp.mixing_ratio
    )
    count, size, frontier = exp.group_count, exp.group_size, knowledge._frontier
    results = []
    solved = _grid_solve(mixture, [(exp.mixing_ratio, c) for c in exp.capacity_grid])
    for capacity, (m1, *_, k) in zip(exp.capacity_grid, solved):
        full, part = divmod(k, size)
        group_acc = [1.0] * full
        if full < count:
            group_acc += [(part + frontier.fraction(m1, k)) / size] + [0.0] * (count - full - 1)
        below = next((g for g, acc in enumerate(group_acc) if acc < exp.accuracy_target), None)
        f_thres = None if below is None else exp.mixing_ratio * exp.weights[below] / size
        results.append(SubsetCapacityResult(capacity, tuple(group_acc), f_thres))
    return results


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def sweep_csv(rows: list[SweepRow]) -> str:
    return _csv(
        ["axis", "accuracy", "accuracy_count", "knowledge_loss", "web_loss", "mixture_loss"],
        ([_fmt(v) for v in (r.axis_value, r.accuracy, r.accuracy_count, r.knowledge_loss,
                            r.web_loss, r.mixture_loss)] for r in rows),
    )


def subset_long_csv(results: list[SubsetCapacityResult], exp: SubsetExperiment) -> str:
    return _csv(
        ["capacity", "group", "weight", "accuracy"],
        ([_fmt(res.capacity), g + 1, _fmt(exp.weights[g]), _fmt(acc)]
         for res in results for g, acc in enumerate(res.group_accuracies)),
    )


def subset_thresholds_csv(results: list[SubsetCapacityResult]) -> str:
    return _csv(
        ["capacity", "f_thres"],
        ([_fmt(res.capacity), THRESHOLD_SENTINEL if res.threshold_frequency is None
          else _fmt(res.threshold_frequency)] for res in results),
    )
