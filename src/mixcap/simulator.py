"""Theory-exact synthetic experiments around the mixing phase transitions.

A sweep evaluates the optimal allocation along a model-size or mixing-ratio
grid and reports accuracy next to the domain losses; the accuracy column is
exactly 0 below the lower phase boundary and exactly 1 above the upper one.
The subset experiment builds a knowledge universe of equal-size groups whose
sampling weights follow a power law, then reads off the threshold corpus
frequency at each capacity as the frequency of the first group whose
accuracy falls below the target. Fitting log threshold frequency against
log capacity (``analysis.fit_loglog``) recovers a line of slope
-(alpha + 1), alpha being the web scaling exponent.

Everything is a pure function of its config: grid points are independent and
may be evaluated in any order or in parallel, with output sorted by axis
value.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .allocator import Allocation, optimal_allocation
from .universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    WebLossCurve,
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
        if not self.grid:
            raise ValueError("grid must be non-empty")
        for g in self.grid:
            if self.sweep_axis == "model_size" and not (math.isfinite(g) and g >= 0.0):
                raise ValueError(f"grid entries must be finite and >= 0, got {g}")
            if self.sweep_axis == "mixing_ratio" and not 0.0 < g < 1.0:
                raise ValueError(f"grid entries must be in (0, 1), got {g}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.sweep_axis == "mixing_ratio" and self.total_capacity is None:
            raise ValueError("mixing_ratio sweeps need total_capacity")
        capacity = self.total_capacity
        if capacity is not None and not (math.isfinite(capacity) and capacity >= 0.0):
            raise ValueError(f"total_capacity must be finite and >= 0, got {capacity}")


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    accuracy: float
    accuracy_count: float
    knowledge_loss: float
    web_loss: float
    mixture_loss: float


def accuracy(allocation: Allocation, knowledge: KnowledgeUniverse) -> float:
    """Share of the knowledge domain's entropy H_tot that the allocation stores.

    This is m1 / H_tot, one correctly rounded division of the solve's own
    knowledge capacity; in exact arithmetic it is the entropy-weighted
    learned fraction. At m1 >= H_tot, where every fact is learned, it is
    exactly 1.0; that covers a universe with no entropy to learn. A solve
    caps m1 at H_tot, so the division never reads above 1; an Allocation
    built by hand may still carry a larger m1.
    """
    m1, h_tot = allocation.knowledge_capacity, knowledge.h_tot
    return 1.0 if m1 >= h_tot else m1 / h_tot


def count_accuracy(allocation: Allocation) -> float:
    """Plain fraction of facts learned, weighting every fact equally.

    This is fsum(learned) / n, 1.0 when there are no facts, and it reads no
    array: the k learned prefix facts, the z zero-entropy facts after them
    and the boundary fraction f that the allocation's universe gives at m1
    (_FrontierCurve.boundary) make (k + z + f) / n, the same correctly
    rounded sum. Secondary metric kept alongside the entropy-weighted
    accuracy for comparison with studies that count memorized items.
    """
    frontier = allocation.knowledge._frontier
    if not frontier.count:
        return 1.0
    k, f, z = frontier.boundary(allocation.knowledge_capacity)
    return ((k + z) + f) / frontier.count


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the optimal allocation at every grid point, sorted by axis."""
    rows = []
    for value in config.grid:
        if config.sweep_axis == "model_size":
            mixture = config.mixture
            capacity = value
        else:
            # The same KnowledgeUniverse object, so its sorted frontier is reused.
            mixture = replace(config.mixture, mixing_ratio=value)
            capacity = config.total_capacity
        alloc = optimal_allocation(mixture, capacity)
        rows.append(
            SweepRow(
                axis_value=value,
                accuracy=accuracy(alloc, mixture.knowledge),
                accuracy_count=count_accuracy(alloc),
                knowledge_loss=alloc.knowledge_loss,
                web_loss=alloc.web_loss,
                mixture_loss=alloc.mixture_loss,
            )
        )
    return rows


@dataclass(frozen=True)
class SubsetExperiment:
    """Power-law-partitioned knowledge universe mixed into a web curve.

    group_count groups of group_size facts each; group g has sampling weight
    proportional to g**(-powerlaw_exponent), split uniformly within the
    group (weights are normalized to sum to 1 before splitting). Every fact
    carries entropy_per_fact bits; None (the default) stands for
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
        if self.entropy_per_fact is None:
            # Read here, so that importing this module loads no corpus.
            from .corpus import RECORD_ENTROPY_BITS

            object.__setattr__(self, "entropy_per_fact", RECORD_ENTROPY_BITS)
        object.__setattr__(
            self, "capacity_grid", tuple(float(c) for c in self.capacity_grid)
        )
        if self.group_count < 1 or self.group_size < 1:
            raise ValueError("group_count and group_size must be >= 1")
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
        if not self.capacity_grid:
            raise ValueError("capacity_grid must be non-empty")
        for c in self.capacity_grid:
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError(f"capacity_grid entries must be finite and >= 0, got {c}")
        if any(b <= a for a, b in zip(self.capacity_grid, self.capacity_grid[1:])):
            raise ValueError("capacity_grid must be strictly increasing")
        if not 0.0 < self.accuracy_target < 1.0:
            raise ValueError(
                f"accuracy_target must be in (0, 1), got {self.accuracy_target}"
            )
        if self.entropy_per_fact <= 0.0:
            raise ValueError(
                f"entropy_per_fact must be > 0, got {self.entropy_per_fact}"
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

    Groups are already in descending-weight order; the threshold frequency
    at a capacity is the overall corpus frequency r * p of the first group
    whose accuracy misses the target, or None if every group clears it.
    """
    knowledge = build_subset_universe(exp)
    mixture = MixtureUniverse(
        knowledge=knowledge, web=exp.web_curve, mixing_ratio=exp.mixing_ratio
    )
    results = []
    for capacity in exp.capacity_grid:
        alloc = optimal_allocation(mixture, capacity)
        frac = alloc.learned.reshape(exp.group_count, exp.group_size)
        group_acc = frac.mean(axis=1)  # uniform entropy within a group
        f_thres = None
        for g in range(exp.group_count):
            if group_acc[g] < exp.accuracy_target:
                f_thres = exp.mixing_ratio * exp.weights[g] / exp.group_size
                break
        results.append(
            SubsetCapacityResult(
                capacity=capacity,
                group_accuracies=tuple(float(a) for a in group_acc),
                threshold_frequency=f_thres,
            )
        )
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
