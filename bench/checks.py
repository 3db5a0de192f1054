"""Output checks. Each raises CheckFailed on a wrong output, or Fault when a
known fault of the program shows; neither imports mixcap.

Tolerances are set from the arithmetic the program does, not from what it
happens to return:

- LOSS_RTOL: two correct solvers agree on a loss to a few ulps; 1e-12
  leaves three orders of margin. Knowledge losses are sums over every fact,
  so comparisons of them also allow the summation error bound
  n * eps * sum(p*h) (``summation_slack``), which any summation order meets.
- The certificate judges a fact by the loss its bits would save, because
  mixcap's golden-section search stops with m1 off by up to about 1e-5
  relative once the objective is flat below float resolution.
- ACCURACY_SLACK: the same search noise moves accuracy by ~1e-15 between
  neighbouring grid points; a drop of more than 1e-9 is a real decrease.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

LOSS_RTOL = 1e-12
ACCURACY_SLACK = 1e-9
SLOPE_RTOL = 0.02


class CheckFailed(Exception):
    """The program's output is wrong."""


class Fault(Exception):
    """A known fault of the program showed; the operation counts as failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    return rows[1:]


# --------------------------------------------------------------------------
# Allocations
# --------------------------------------------------------------------------


def matches(what: str, value: float, expected: float, atol: float = 0.0) -> None:
    bound = LOSS_RTOL * max(abs(value), abs(expected)) + atol
    require(abs(value - expected) <= bound, f"{what} {value!r} != reference {expected!r}")


def summation_slack(p: np.ndarray, h: np.ndarray, weight: float = 1.0) -> float:
    """Error bound of summing the knowledge loss's n terms in any order: n * eps * sum(|terms|)."""
    return p.size * np.finfo(float).eps * weight * math.fsum((p * h).tolist())


def split_sums(m1: float, m2: float, capacity: float) -> None:
    require(m1 >= 0.0 and m2 >= 0.0, f"negative split m1={m1} m2={m2}")
    require(close(m1 + m2, capacity, 1e-12), f"m1 + m2 = {m1 + m2!r} != capacity {capacity!r}")


def at_most_one_fractional(learned: np.ndarray) -> None:
    require(bool(np.all((learned >= 0.0) & (learned <= 1.0))), "learned fraction outside [0, 1]")
    fractional = int(np.count_nonzero((learned > 0.0) & (learned < 1.0)))
    require(fractional <= 1, f"{fractional} facts are fractional")


def certificate(p: np.ndarray, h: np.ndarray, learned: np.ndarray, r: float, web, m2: float, loss: float) -> None:
    """All-or-nothing: a fact worth more than the web marginal at m2 is fully
    learned and one worth less is unlearned. The marginal is the reference
    curve's own. A shortfall counts only if moving its bits between the
    domains would lower the mixture loss by more than LOSS_RTOL, which leaves
    the search's resolution to the loss check."""
    t = r * p / (1.0 - r)
    slack = LOSS_RTOL * abs(loss) / (1.0 - r)
    short = (1.0 - learned) * h * (t - web.marginal_left(m2)) > slack
    over = learned * h * (web.marginal_right(m2) - t) > slack
    require(not short.any(), f"{int(short.sum())} facts above the web marginal not fully learned")
    require(not over.any(), f"{int(over.sum())} facts below the web marginal learned")


def accuracy_value(acc: float, h: np.ndarray, learned: np.ndarray) -> None:
    """In [0, 1] and the entropy-weighted learned share, up to the error bound
    of two n-term sums of non-negative terms (2 * n * eps)."""
    require(0.0 <= acc <= 1.0, f"accuracy {acc!r} outside [0, 1]")
    own = math.fsum((h * learned).tolist()) / math.fsum(h.tolist())
    require(abs(acc - own) <= 2 * h.size * np.finfo(float).eps, f"accuracy {acc!r} != entropy-weighted share {own!r}")


def accuracy_curve(accs) -> None:
    """In [0, 1] and non-decreasing along the axis."""
    accs = list(accs)
    require(all(0.0 <= a <= 1.0 for a in accs), "accuracy outside [0, 1]")
    drops = [i for i in range(len(accs) - 1) if accs[i + 1] < accs[i] - ACCURACY_SLACK]
    require(not drops, f"accuracy decreases after grid point {drops[:3]}")


def largest_optimum(m1: float, expected: float) -> None:
    """Ties go to the knowledge domain: m1 is the largest optimal split."""
    if not close(m1, expected, 1e-9):
        raise Fault(f"tie rule: m1 = {m1!r}, largest optimal split is {expected!r}")


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------


def loglog_slope_near(slope: float, expected: float) -> None:
    require(abs(slope / expected - 1.0) <= SLOPE_RTOL, f"log-log slope {slope:.4f} not within 2% of {expected:.4f}")


def fit_covers(fit: dict, slope_true: float, slope_ols: float) -> None:
    lo, hi = fit["ci95"]["slope"]
    require(lo <= slope_true <= hi, f"ci95 [{lo}, {hi}] misses the generating slope {slope_true}")
    require(close(fit["params"]["slope"], slope_ols, 1e-9), f"slope {fit['params']['slope']} != least squares {slope_ols}")


def member(value: float, population) -> None:
    require(value in set(population), f"{value!r} is not one of the input values")


def rejected(returncode: int, stderr: str, parameter: str) -> None:
    """Bad input exits 2 and names the parameter."""
    if returncode != 2 or parameter not in stderr:
        raise Fault(f"invalid {parameter}: exit {returncode}, stderr {stderr.strip()[:80]!r}")


# --------------------------------------------------------------------------
# Corpora
# --------------------------------------------------------------------------


def records_valid(docs, domains: dict[str, frozenset], pronouns: frozenset) -> None:
    """Distinct names, every value in its domain."""
    names = [d["name"] for d in docs]
    require(len(set(names)) == len(names), f"{len(names) - len(set(names))} duplicate names")
    for d in docs:
        require(set(d["attrs"]) == set(domains), f"attributes {sorted(d['attrs'])}")
        for attr, value in d["attrs"].items():
            require(value in domains[attr], f"{attr} value {value!r} outside its domain")
        require(d["pronoun"] in pronouns, f"pronoun {d['pronoun']!r}")


def rendering_verbatim(text: str, doc: dict) -> None:
    require(doc["name"] in text, f"name {doc['name']!r} missing from rendering")
    for attr, value in doc["attrs"].items():
        require(value in text, f"{attr} value {value!r} missing from rendering")


def subsample_kept(kept_positions, n: int, keep: float) -> None:
    """round(keep*N) records, in their original order."""
    require(len(kept_positions) == round(keep * n), f"kept {len(kept_positions)} of {n}, expected {round(keep * n)}")
    require(all(a < b for a, b in zip(kept_positions, kept_positions[1:])), "kept records out of order")


def ckm_budget(texts, original: int, compact: int, ratio: float) -> None:
    require(original > 0, "no original tokens")
    own = sum(len(t.split()) for t in texts)
    require(own == compact, f"compact tokens {compact} != counted {own}")
    require(compact >= ratio * original, f"compact tokens {compact} < {ratio} * {original}")


def mix_plan(plan: dict, total: float, ratio: float, knowledge_tokens: float) -> None:
    require(
        close(plan["knowledge_epochs"] * knowledge_tokens, ratio * total, 1e-12),
        "epochs * knowledge_tokens != r * S",
    )
    require(close(plan["web_sample_tokens"] + ratio * total, total, 1e-12), "web + knowledge != S")
    require(plan["per_fact_frequency"] > 0.0, "per-fact frequency <= 0")


def identical(a: bytes, b: bytes, what: str) -> None:
    require(a == b, f"{what} differs between two runs with the same seed")
